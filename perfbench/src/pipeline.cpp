// Offline pipeline workloads: fabric, mesh and resync.
//
// Every input is generated from the run's seed: the seed draws the start
// offsets and the simulator's delays of a ping-pong run on a fixed topology
// whose links are bounded in [2, 8] ms.  Solves use the library defaults
// (Johnson APSP, Karp cycle mean) except SyncOptions::threads = 4, so a
// change of default shows up here as a measured change.
//
// Untraced repetitions give the end-to-end metrics.  Traced repetitions time
// the same epoch's public calls one by one from outside — the stage calls
// synchronize() makes, under spans sharing the epoch's id — and give the
// per-layer metrics.

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/incremental.hpp"
#include "core/local_estimates.hpp"
#include "core/precision.hpp"
#include "core/zones.hpp"
#include "hostspeed.hpp"
#include "lab/topo.hpp"
#include "proto/ping_pong.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cs;

constexpr double kLb = 0.002;
constexpr double kUb = 0.008;
constexpr double kSkew = 0.2;             ///< largest start offset, seconds
constexpr double kWarmup = kSkew + 0.1;  ///< first probe, after every start

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

/// DESIGN.md tolerance contract: SHIFTS relaxes with epsilon =
/// 1e-9 × max(1, |Ã^max|) per step, so a reported distance may exceed the
/// optimum by (path length × epsilon); n bounds the path length.
double tolerance(double a_max, std::size_t n) {
  return 1e-9 * std::max(1.0, std::abs(a_max)) *
         static_cast<double>(std::max<std::size_t>(n, 1));
}

struct Instance {
  SystemModel model;
  std::vector<View> views;
  std::vector<RealTime> starts;
  std::size_t observations{0};  ///< receive events across all views
};

std::unique_ptr<Instance> make_instance(Topology topo, std::uint64_t seed,
                                        std::size_t rounds) {
  SystemModel model(std::move(topo));
  for (const auto& [a, b] : model.topology().links)
    model.set_constraint(make_bounds(a, b, kLb, kUb));
  Rng rng(seed);
  SimOptions sim;
  sim.start_offsets =
      random_start_offsets(model.processor_count(), kSkew, rng);
  sim.seed = seed;
  sim.max_events = std::max<std::size_t>(
      sim.max_events, 64 * (rounds + 1) *
                          (model.topology().link_count() +
                           model.processor_count()));
  PingPongParams params;
  params.warmup = Duration{kWarmup};
  params.rounds = rounds;
  SimResult run = simulate(model, make_ping_pong(params), sim);
  auto inst = std::make_unique<Instance>(
      Instance{std::move(model), run.execution.views(),
               run.execution.start_times(), 0});
  for (const View& v : inst->views) inst->observations += v.receives().size();
  return inst;
}

/// Runs f() under a span and stores the span's length in `seconds`.
template <class F>
auto traced(Tracer& tracer, const char* name, std::uint64_t id,
            std::uint32_t parent, double& seconds, F&& f) {
  const std::uint32_t span = tracer.open(name, id, parent);
  auto result = f();
  tracer.close(span);
  seconds = tracer.seconds(span);
  return result;
}

/// Thm 4.6 equality (the guaranteed precision of the published corrections
/// is the published Ã^max) and realized <= claimed against the simulator's
/// true start times.
bool dense_ok(const Instance& inst, const SyncOutcome& out) {
  if (!out.bounded()) return false;
  const double a = out.optimal_precision.finite();
  const double tol = tolerance(a, inst.views.size());
  const ExtReal rho = guaranteed_precision(out.ms_estimates, out.corrections);
  return rho.is_finite() && std::abs(rho.finite() - a) <= tol &&
         realized_precision(inst.starts, out.corrections) <= a + tol;
}

/// Thm 4.6 equality in every zone and on the quotient, and realized <=
/// composed bound.
bool zoned_ok(const Instance& inst, const ZonedOutcome& z) {
  if (!z.bounded()) return false;
  for (const ZoneStats& s : z.zones)
    if (!s.bounded || s.thm46_gap > tolerance(s.a_max, s.size)) return false;
  if (z.quotient_thm46_gap >
      tolerance(z.quotient_a_max.finite(), z.plan.count))
    return false;
  const double bound = z.composed_bound.finite();
  return realized_precision(inst.starts, z.corrections) <=
         bound + tolerance(bound, inst.views.size());
}

bool close(const std::vector<double>& a, const std::vector<double>& b,
           double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(std::abs(a[i] - b[i]) <= tol)) return false;
  return true;
}

/// Counts and bounds that must repeat exactly across repetitions (of the
/// same input draw).
class Repeats {
 public:
  explicit Repeats(Report& report) : report_(report) {}
  void see(const std::string& name, double value, std::size_t draw = 0) {
    const auto [it, fresh] = first_.emplace(std::pair{name, draw}, value);
    if (!fresh)
      report_.check(it->second == value, name + " repeats exactly");
  }

 private:
  Report& report_;
  std::map<std::pair<std::string, std::size_t>, double> first_;
};

void record_plan(Values& values, const ZonePlan& plan,
                 const std::vector<double>& plan_s) {
  double singletons = 0, max_size = 0;
  for (const auto& members : plan.members()) {
    if (members.size() == 1) ++singletons;
    max_size = std::max(max_size, static_cast<double>(members.size()));
  }
  values["zones.count"] = static_cast<double>(plan.count);
  values["zones.singletons"] = singletons;
  values["zones.max_size"] = max_size;
  values["zones.plan_s"] = median(plan_s);
}

SyncOptions sync_options(std::size_t threads) {
  SyncOptions opts;
  opts.threads = threads;
  return opts;
}

/// Set-up is timed kSetups times before measuring.  fabric and resync time
/// it once more every kSetupPeriod seconds while measuring, so that their
/// setup_s, like epoch_s, samples the host over the whole run and not only
/// its first second; mesh's set-up takes too long to repeat.  A set-up is
/// deterministic in the seed, so a repeat replaces the inputs with identical
/// ones and the checks that results repeat exactly still hold.
constexpr int kSetups = 3;
constexpr double kSetupPeriod = 2.0;

/// due() is true once per `seconds`, counted from construction.
class Every {
 public:
  explicit Every(double seconds)
      : period_ns_(static_cast<std::int64_t>(seconds * 1e9)),
        next_ns_(now_ns() + period_ns_) {}
  bool due() {
    const std::int64_t now = now_ns();
    if (now < next_ns_) return false;
    next_ns_ = now + period_ns_;
    return true;
  }

 private:
  std::int64_t period_ns_;
  std::int64_t next_ns_;
};

/// Independent input draws of one run: their seeds come from the run seed.
std::vector<std::uint64_t> draw_seeds(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<std::uint64_t> seeds(count);
  for (std::uint64_t& s : seeds) s = rng.next();
  return seeds;
}

ShiftsOptions quotient_shift_options(const ZonedOutcome& z) {
  ShiftsOptions qo;
  qo.root = z.plan.zone_of[0];
  return qo;
}

}  // namespace

// ---- fabric -------------------------------------------------------------
//
// dc 2 12 24: 302 agents, 312 links, 4 ping-pong rounds, drawn
// kFabricDraws times per run (Ã^max of one draw swings ±15% with the seed;
// the mean over the draws is steady).  At this size the dense m̃s matrix and
// Karp's walk table (0.7 MB each) stay in a core's L2; at dc 4 24 40 they
// stream from the shared L3, and other tenants of the host moved the epoch
// time by up to 1.9x.  A repetition is a dense synchronize() of the next
// draw.  epoch_s is their mean, rescaled by the HostSpeed reference sampled
// after each repetition: SHIFTS (Karp) is ~85% of the epoch and has the
// reference kernel's instruction mix, so the two slow down together.  The
// zoned arm is the solve under greedy_bfs_zones(topo, 32) —
// synchronize_zoned(), the call synchronize() makes when SyncOptions::zones
// is set, which also returns the per-zone diagnostics the checks read.

namespace {
constexpr std::size_t kFabricDraws = 16;
}  // namespace

void run_fabric(const Options& o, Report& report, Tracer& tracer,
                Values& values) {
  std::vector<double> setup_s, plan_s;
  std::vector<std::unique_ptr<Instance>> draws;
  ZonePlan plan;
  const auto set_up = [&] {
    draws.clear();
    const std::int64_t t0 = now_ns();
    for (const std::uint64_t seed : draw_seeds(o.seed, kFabricDraws))
      draws.push_back(
          make_instance(cs::lab::make_datacenter(2, 12, 24), seed, 4));
    const std::int64_t t1 = now_ns();
    plan = greedy_bfs_zones(draws[0]->model.topology(), 32);
    plan_s.push_back(seconds_since(t1));
    setup_s.push_back(seconds_since(t0));
  };
  for (int i = 0; i < kSetups; ++i) set_up();
  const std::size_t n = draws[0]->views.size();
  report.info("workload.agents", static_cast<double>(n));
  report.info("workload.links",
              static_cast<double>(draws[0]->model.topology().link_count()));
  report.info("workload.draws", static_cast<double>(draws.size()));

  const SyncOptions opts = sync_options(kSyncThreads);
  Repeats repeats(report);
  std::vector<double> bound(draws.size(), 0.0), ratio;
  // Sampled after every repetition; see hostspeed.hpp.
  HostSpeed speed, traced_speed;
  double mls_edges = 0.0, components = 0.0;

  // Zoned solve of draw i next to its dense optimum: per-zone Thm 4.6,
  // realized <= composed, composed >= dense.
  const auto zoned_epoch = [&](std::size_t i, const ZonedOutcome& zoned) {
    bool ok = zoned_ok(*draws[i], zoned) && bound[i] > 0.0;
    if (ok) {
      const double composed = zoned.composed_bound.finite();
      const bool contains = composed + tolerance(bound[i], n) >= bound[i];
      report.check(contains, "fabric: composed bound >= dense Ã^max");
      ok = contains;
      ratio.push_back(composed / bound[i]);
    }
    report.check(ok, "fabric zoned: per-zone Thm 4.6, realized <= bound");
    report.attempt(ok);
    repeats.see("zones.count", static_cast<double>(zoned.plan.count));
  };
  const auto dense_epoch = [&](std::size_t i, const SyncOutcome& dense) {
    const bool ok = dense_ok(*draws[i], dense);
    report.check(ok, "fabric dense: Thm 4.6 equality, realized <= claimed");
    report.attempt(ok);
    if (ok) bound[i] = dense.optimal_precision.finite();
    mls_edges = static_cast<double>(dense.mls_graph.edge_count());
    components = static_cast<double>(dense.components.component_count);
    repeats.see("bound_us", bound[i], i);
    repeats.see("local_estimates.mls_edges", mls_edges, i);
  };

  // Untraced runs solve every draw at least once; their dense Ã^max mean is
  // bound_us.  The zoned arm runs on the first repetition (for its checks)
  // and, in traced runs, on every one (for zoned_epoch_s).
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<double> dense_s, zoned_s;
  std::size_t rep = 0;
  Every resetup(kSetupPeriod);
  const std::int64_t deadline = deadline_after(budget);
  do {
    const std::size_t i = rep % draws.size();
    std::int64_t t0 = now_ns();
    const SyncOutcome dense =
        synchronize(draws[i]->model, draws[i]->views, opts);
    dense_s.push_back(seconds_since(t0));
    dense_epoch(i, dense);
    if (o.trace || rep == 0) {
      t0 = now_ns();
      const ZonedOutcome zoned =
          synchronize_zoned(draws[i]->model, draws[i]->views, plan, opts);
      zoned_s.push_back(seconds_since(t0));
      zoned_epoch(i, zoned);
    }
    speed.sample();
    if (resetup.due()) set_up();
    ++rep;
  } while (now_ns() < deadline || (!o.trace && rep < draws.size()));
  report.series("epoch_s", dense_s, "s");
  report.series("zoned_epoch_s", zoned_s, "s");
  report.series("setup_s", setup_s, "s");
  report.series("bound_s", bound, "s");
  report.series("host.reference_s", speed.samples(), "s");
  report.info("host.factor", speed.normalize(1.0));

  values["setup_s"] = median(setup_s);
  values["epoch_s"] = speed.normalize(mean(dense_s));
  values["bound_us"] = mean(bound) * 1e6;
  if (!o.trace) return;

  values["epoch.raw_s"] = mean(dense_s);
  values["host.reference_s"] = speed.mean_s();
  values["zoned_epoch_s"] = mean(zoned_s);
  values["local_estimates.obs"] = static_cast<double>(draws[0]->observations);
  values["local_estimates.mls_edges"] = mls_edges;
  values["shifts.components"] = components;
  record_plan(values, plan, plan_s);

  // A traced epoch calls the stages synchronize() is made of, one by one,
  // under the epoch's span; the zoned epoch likewise.
  std::vector<double> epoch_s, local_s, global_s, shifts_s, self_s, solve_s,
      quotient_s;
  std::uint64_t epoch = 0;
  const std::int64_t traced_deadline = deadline_after(budget);
  do {
    const std::size_t i = rep++ % draws.size();
    const Instance& inst = *draws[i];
    ++epoch;
    const std::uint32_t root = tracer.open("epoch", epoch);
    double t_local = 0, t_global = 0, t_shifts = 0;
    const Digraph mls =
        traced(tracer, "local_estimates", epoch, root, t_local, [&] {
          return local_shift_estimates(inst.model, inst.views, opts.match,
                                       opts.threads);
        });
    const DistanceMatrix ms =
        traced(tracer, "global_estimates", epoch, root, t_global,
               [&] { return global_shift_estimates(mls, opts.apsp); });
    const ShiftsResult shifts =
        traced(tracer, "shifts", epoch, root, t_shifts, [&] {
          ShiftsOptions so;
          so.threads = opts.threads;
          return compute_shifts(ms, so);
        });
    tracer.close(root);
    SyncOutcome dense;
    dense.ms_estimates = ms;
    dense.corrections = shifts.corrections;
    dense.optimal_precision = shifts.a_max;
    dense.mls_graph = mls;
    dense.components = shifts.components;
    dense_epoch(i, dense);
    epoch_s.push_back(tracer.seconds(root));
    local_s.push_back(t_local);
    global_s.push_back(t_global);
    shifts_s.push_back(t_shifts);
    self_s.push_back(tracer.seconds(root) - (t_local + t_global + t_shifts));

    const std::uint32_t zroot = tracer.open("zoned_epoch", epoch);
    double t_zlocal = 0, t_solve = 0, t_quotient = 0;
    Digraph zmls = traced(tracer, "local_estimates", epoch, zroot, t_zlocal,
                          [&] {
                            return local_shift_estimates(
                                inst.model, inst.views, opts.match,
                                opts.threads);
                          });
    const ZonedOutcome zoned =
        traced(tracer, "zones.solve", epoch, zroot, t_solve, [&] {
          return synchronize_zoned_mls(std::move(zmls), plan, opts);
        });
    tracer.close(zroot);
    zoned_epoch(i, zoned);
    // Diagnostic re-run of the quotient's SHIFTS: how much of the zoned
    // solve the quotient costs.
    const ShiftsResult quotient =
        traced(tracer, "zones.quotient_shifts", epoch, 0, t_quotient, [&] {
          return compute_shifts(zoned.quotient_ms,
                                quotient_shift_options(zoned));
        });
    report.check(std::abs(quotient.a_max.value() -
                          zoned.quotient_a_max.value()) <=
                     tolerance(zoned.quotient_a_max.value(), zoned.plan.count),
                 "fabric: quotient SHIFTS re-run reproduces the zoned solve");
    local_s.push_back(t_zlocal);
    solve_s.push_back(t_solve);
    quotient_s.push_back(t_quotient);
    traced_speed.sample();
  } while (now_ns() < traced_deadline);

  const std::int64_t t0 = now_ns();
  const SyncOutcome serial =
      synchronize(draws[0]->model, draws[0]->views, sync_options(1));
  values["epoch.serial_s"] = seconds_since(t0);
  dense_epoch(0, serial);

  values["local_estimates.s"] = mean(local_s);
  values["global_estimates.s"] = mean(global_s);
  values["shifts.s"] = mean(shifts_s);
  values["epoch.self_s"] = mean(self_s);
  values["zones.solve_s"] = mean(solve_s);
  values["zones.quotient_shifts_s"] = mean(quotient_s);
  values["zoned_bound_ratio"] = median(ratio);
  values["trace.overhead_ratio"] = traced_speed.normalize(mean(epoch_s)) /
                                   speed.normalize(mean(dense_s));
  report.series("traced.epoch_s", epoch_s, "s");
}

// ---- mesh ---------------------------------------------------------------
//
// torus 97x97: 9,409 agents, 4 ping-pong rounds, greedy_bfs_zones(topo, 64).
// Dense APSP and SHIFTS never run; the epoch is the zoned solve.

void run_mesh(const Options& o, Report& report, Tracer& tracer,
              Values& values) {
  std::vector<double> setup_s, plan_s;
  std::unique_ptr<Instance> inst;
  ZonePlan plan;
  for (int i = 0; i < kSetups; ++i) {
    inst.reset();
    const std::int64_t t0 = now_ns();
    inst = make_instance(cs::lab::make_torus(97, 97), o.seed, 4);
    const std::int64_t t1 = now_ns();
    plan = greedy_bfs_zones(inst->model.topology(), 64);
    plan_s.push_back(seconds_since(t1));
    setup_s.push_back(seconds_since(t0));
  }
  report.info("workload.agents", static_cast<double>(inst->views.size()));
  report.info("workload.links",
              static_cast<double>(inst->model.topology().link_count()));

  const SyncOptions opts = sync_options(kSyncThreads);
  Repeats repeats(report);
  double bound = 0.0, mls_edges = 0.0;
  const auto check = [&](const ZonedOutcome& z) {
    const bool ok = zoned_ok(*inst, z);
    report.check(ok, "mesh: per-zone Thm 4.6, realized <= composed bound");
    report.attempt(ok);
    if (z.bounded()) bound = z.composed_bound.finite();
    mls_edges = static_cast<double>(z.mls_graph.edge_count());
    repeats.see("bound_us", bound);
    repeats.see("local_estimates.mls_edges", mls_edges);
    repeats.see("zones.count", static_cast<double>(z.plan.count));
  };
  // Returns the seconds the solve took.
  const auto solve = [&](const SyncOptions& with) {
    const std::int64_t t0 = now_ns();
    const ZonedOutcome z =
        synchronize_zoned(inst->model, inst->views, plan, with);
    const double seconds = seconds_since(t0);
    check(z);
    return seconds;
  };

  solve(opts);  // warm-up: first touch of the solver's buffers
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<double> epoch_s;
  const std::int64_t deadline = deadline_after(budget);
  do {
    epoch_s.push_back(solve(opts));
  } while (now_ns() < deadline);
  report.series("epoch_s", epoch_s, "s");
  report.series("setup_s", setup_s, "s");

  values["setup_s"] = median(setup_s);
  values["epoch_s"] = mean(epoch_s);
  values["bound_us"] = bound * 1e6;
  if (!o.trace) return;

  values["zoned_epoch_s"] = mean(epoch_s);
  values["local_estimates.obs"] = static_cast<double>(inst->observations);
  values["local_estimates.mls_edges"] = mls_edges;
  record_plan(values, plan, plan_s);

  // A traced epoch calls the two stages synchronize_zoned() is made of
  // under the epoch's span.
  std::vector<double> traced_s, local_s, solve_s, quotient_s, self_s;
  std::uint64_t epoch = 0;
  const std::int64_t traced_deadline = deadline_after(budget);
  do {
    ++epoch;
    const std::uint32_t root = tracer.open("epoch", epoch);
    double t_local = 0, t_solve = 0, t_quotient = 0;
    Digraph mls =
        traced(tracer, "local_estimates", epoch, root, t_local, [&] {
          return local_shift_estimates(inst->model, inst->views,
                                       opts.match, opts.threads);
        });
    const ZonedOutcome zoned =
        traced(tracer, "zones.solve", epoch, root, t_solve, [&] {
          return synchronize_zoned_mls(std::move(mls), plan, opts);
        });
    tracer.close(root);
    check(zoned);
    const ShiftsResult quotient =
        traced(tracer, "zones.quotient_shifts", epoch, 0, t_quotient, [&] {
          return compute_shifts(zoned.quotient_ms,
                                quotient_shift_options(zoned));
        });
    report.check(std::abs(quotient.a_max.value() -
                          zoned.quotient_a_max.value()) <=
                     tolerance(zoned.quotient_a_max.value(), zoned.plan.count),
                 "mesh: quotient SHIFTS re-run reproduces the zoned solve");
    traced_s.push_back(tracer.seconds(root));
    local_s.push_back(t_local);
    solve_s.push_back(t_solve);
    quotient_s.push_back(t_quotient);
    self_s.push_back(tracer.seconds(root) - (t_local + t_solve));
  } while (now_ns() < traced_deadline);

  values["epoch.serial_s"] = solve(sync_options(1));

  values["local_estimates.s"] = mean(local_s);
  values["zones.solve_s"] = mean(solve_s);
  values["zones.quotient_shifts_s"] = mean(quotient_s);
  values["epoch.self_s"] = mean(self_s);
  values["trace.overhead_ratio"] = mean(traced_s) / mean(epoch_s);
  report.series("traced.epoch_s", traced_s, "s");
}

// ---- resync -------------------------------------------------------------
//
// torus 16x16, 24 ping-pong rounds, 12 epoch boundaries, drawn kResyncDraws
// times per run.  At boundary k every view is cut with View::prefix at the
// clock time just before probe round 2k, and the cut goes through one
// IncrementalSynchronizer (kDropOrphans).  One pass = 12 epochs of one draw
// from a fresh synchronizer.

namespace {

constexpr std::size_t kResyncRounds = 24;
constexpr std::size_t kResyncEpochs = 12;
constexpr std::size_t kResyncDraws = 4;

std::vector<ClockTime> resync_boundaries() {
  const PingPongParams defaults;
  std::vector<ClockTime> cuts;
  for (std::size_t k = 1; k <= kResyncEpochs; ++k)
    cuts.push_back(ClockTime{kWarmup + (2.0 * static_cast<double>(k) - 0.5) *
                                           defaults.spacing.sec});
  return cuts;
}

std::vector<View> cut_views(const std::vector<View>& views, ClockTime at) {
  std::vector<View> out;
  out.reserve(views.size());
  for (const View& v : views) out.push_back(v.prefix(at));
  return out;
}

struct PassResult {
  double seconds{0.0};
  std::vector<double> precision;  ///< per epoch, +inf when unbounded
  SyncOutcome last;
  std::vector<View> last_cut;
  double incremental{0}, rebuilds{0}, dirty_rows{0}, mls_edges{0};
};

}  // namespace

void run_resync(const Options& o, Report& report, Tracer& tracer,
                Values& values) {
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Instance>> draws;
  std::vector<ClockTime> cuts;
  const auto set_up = [&] {
    draws.clear();
    const std::int64_t t0 = now_ns();
    for (const std::uint64_t seed : draw_seeds(o.seed, kResyncDraws))
      draws.push_back(
          make_instance(cs::lab::make_torus(16, 16), seed, kResyncRounds));
    cuts = resync_boundaries();
    setup_s.push_back(seconds_since(t0));
  };
  for (int i = 0; i < kSetups; ++i) set_up();
  const std::size_t n = draws[0]->views.size();
  report.info("workload.agents", static_cast<double>(n));
  report.info("workload.draws", static_cast<double>(draws.size()));
  report.info("workload.epochs_per_pass", static_cast<double>(cuts.size()));

  SyncOptions opts = sync_options(kSyncThreads);
  opts.match = MatchPolicy::kDropOrphans;

  std::vector<double> prefix_s, local_s, step_s, epoch_span_s;
  std::uint64_t epoch_id = 0;
  // One pass over a draw; traced passes call the two stages step() is made
  // of.
  const auto pass = [&](const Instance& inst, const SyncOptions& with,
                        bool trace) {
    PassResult r;
    IncrementalSynchronizer sync(inst.model, with);
    const std::int64_t t0 = now_ns();
    for (const ClockTime cut : cuts) {
      if (!trace) {
        r.last_cut = cut_views(inst.views, cut);
        r.last = sync.step(r.last_cut);
      } else {
        ++epoch_id;
        const std::uint32_t root = tracer.open("epoch", epoch_id);
        double t_prefix = 0, t_local = 0, t_step = 0;
        r.last_cut = traced(tracer, "resync.prefix", epoch_id, root, t_prefix,
                            [&] { return cut_views(inst.views, cut); });
        Digraph mls =
            traced(tracer, "local_estimates", epoch_id, root, t_local, [&] {
              return local_shift_estimates(inst.model, r.last_cut,
                                           with.match, with.threads);
            });
        r.last = traced(tracer, "incremental.step_mls", epoch_id, root,
                        t_step,
                        [&] { return sync.step_mls(std::move(mls)); });
        tracer.close(root);
        prefix_s.push_back(t_prefix);
        local_s.push_back(t_local);
        step_s.push_back(t_step);
        epoch_span_s.push_back(tracer.seconds(root));
      }
      r.precision.push_back(r.last.optimal_precision.value());
      const auto& apsp = sync.last_apsp_step();
      (apsp.incremental ? r.incremental : r.rebuilds) += 1;
      r.dirty_rows += static_cast<double>(apsp.dirty_rows);
    }
    r.seconds = seconds_since(t0);
    r.mls_edges = static_cast<double>(r.last.mls_graph.edge_count());
    return r;
  };

  Repeats repeats(report);
  std::vector<double> bound(draws.size(), 0.0);
  const auto check = [&](std::size_t i, const PassResult& r) {
    const Instance& inst = *draws[i];
    // Growing prefixes only add observations: precision never loosens.
    bool ok = true;
    for (std::size_t k = 1; k < r.precision.size(); ++k)
      if (std::isfinite(r.precision[k - 1]))
        ok = ok && r.precision[k] <= r.precision[k - 1] +
                                         tolerance(r.precision[k - 1], n);
    report.check(ok, "resync: precision does not increase across epochs");
    // The last epoch matches a from-scratch synchronize() on the same cut.
    const SyncOutcome scratch = synchronize(inst.model, r.last_cut, opts);
    bool same = r.last.bounded() && scratch.bounded();
    if (same) {
      const double a = scratch.optimal_precision.finite();
      const double tol = tolerance(a, n);
      same = std::abs(r.last.optimal_precision.finite() - a) <= tol &&
             close(r.last.corrections, scratch.corrections, tol) &&
             realized_precision(inst.starts, r.last.corrections) <= a + tol;
    }
    report.check(same,
                 "resync: last epoch matches from-scratch synchronize(), "
                 "realized <= claimed");
    report.add_attempts(r.precision.size(),
                        ok && same ? 0 : r.precision.size());
    bound[i] = r.precision.back();
    repeats.see("bound_us", r.precision.back(), i);
    repeats.see("incremental.apsp_incremental", r.incremental, i);
    repeats.see("incremental.dirty_rows", r.dirty_rows, i);
    repeats.see("local_estimates.mls_edges", r.mls_edges, i);
  };

  check(0, pass(*draws[0], opts, false));  // warm-up
  // Untraced runs make at least one pass over every draw; the mean of their
  // last-epoch Ã^max is bound_us.
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<double> epoch_s;
  PassResult last;
  std::size_t passes = 0;
  Every resetup(kSetupPeriod);
  const std::int64_t deadline = deadline_after(budget);
  do {
    const std::size_t i = passes++ % draws.size();
    last = pass(*draws[i], opts, false);
    epoch_s.push_back(last.seconds / static_cast<double>(cuts.size()));
    check(i, last);
    if (resetup.due()) set_up();
  } while (now_ns() < deadline || (!o.trace && passes < draws.size()));
  report.series("epoch_s", epoch_s, "s");
  report.series("setup_s", setup_s, "s");
  report.series("bound_s", bound, "s");

  values["setup_s"] = median(setup_s);
  values["epoch_s"] = mean(epoch_s);
  values["bound_us"] = mean(bound) * 1e6;
  if (!o.trace) return;

  values["local_estimates.obs"] = static_cast<double>(draws[0]->observations);
  values["local_estimates.mls_edges"] = last.mls_edges;
  values["incremental.apsp_incremental"] = last.incremental;
  values["incremental.apsp_rebuilds"] = last.rebuilds;
  values["incremental.dirty_rows"] = last.dirty_rows;
  values["shifts.components"] =
      static_cast<double>(last.last.components.component_count);

  std::vector<double> traced_epoch_s;
  const std::int64_t traced_deadline = deadline_after(budget);
  do {
    const std::size_t i = passes++ % draws.size();
    const PassResult r = pass(*draws[i], opts, true);
    traced_epoch_s.push_back(r.seconds / static_cast<double>(cuts.size()));
    check(i, r);
  } while (now_ns() < traced_deadline);

  SyncOptions serial_opts = opts;
  serial_opts.threads = 1;
  const PassResult serial = pass(*draws[0], serial_opts, false);
  check(0, serial);
  values["epoch.serial_s"] = serial.seconds / static_cast<double>(cuts.size());

  // Self time of the epoch span: what the three stage calls leave over.
  std::vector<double> self_s;
  for (std::size_t i = 0; i < epoch_span_s.size(); ++i)
    self_s.push_back(epoch_span_s[i] - (prefix_s[i] + local_s[i] + step_s[i]));
  values["resync.prefix_s"] = mean(prefix_s);
  values["local_estimates.s"] = mean(local_s);
  values["incremental.step_mls_s"] = mean(step_s);
  values["epoch.self_s"] = mean(self_s);
  values["trace.overhead_ratio"] = mean(traced_epoch_s) / mean(epoch_s);
  report.series("traced.epoch_s", traced_epoch_s, "s");
}

}  // namespace perfbench
