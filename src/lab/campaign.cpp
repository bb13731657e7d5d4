#include "lab/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "core/precision.hpp"
#include "core/synchronizer.hpp"
#include "core/zones.hpp"
#include "lab/trial.hpp"
#include "proto/beacon.hpp"
#include "proto/ping_pong.hpp"
#include "sim/simulator.hpp"

namespace cs::lab {
namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

std::uint64_t splitmix64_once(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

AutomatonFactory make_protocol(const CampaignSpec& spec) {
  // Warmup past the maximum start skew so probes never race a peer's start.
  const Duration warmup{spec.skew + 0.1};
  if (spec.protocol.kind == "pingpong") {
    PingPongParams params;
    params.warmup = warmup;
    params.rounds = spec.protocol.rounds;
    return make_ping_pong(params);
  }
  if (spec.protocol.kind == "beacon") {
    BeaconParams params;
    params.warmup = warmup;
    params.period = Duration{spec.protocol.period};
    params.count = spec.protocol.count;
    return make_beacon(params);
  }
  fail("unknown campaign protocol: '" + spec.protocol.kind + "'");
}

// Instantiates a zones-axis arm for a concrete topology.  "natural" uses
// the datacenter fabric's rack structure when available and falls back to
// BFS clustering with ~sqrt(n) nodes per zone elsewhere; both choices are
// pure functions of the (already deterministic) topology.
ZonePlan build_zone_plan(const ZoneAxisSpec& arm, const TopoSpec& topo_spec,
                         const Topology& topo) {
  if (arm.kind == "natural") {
    if (topo_spec.family == "dc")
      return datacenter_zones(topo_spec.dims[0], topo_spec.dims[1],
                              topo_spec.dims[2]);
    const auto target = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(topo.node_count))));
    return greedy_bfs_zones(topo, std::max<std::size_t>(target, 1));
  }
  if (arm.kind == "size") return greedy_bfs_zones(topo, arm.size);
  fail("unknown zones arm kind: '" + arm.kind + "'");
}

// Runs a drift and/or Byzantine arm through the epoch trial
// (lab/trial.hpp) and folds its result into the TaskResult schema.  Trial
// arms probe with ping-pong on the trial's own epoch schedule (the
// campaign protocol spec does not apply) and require a plain `bounds` mix:
// actual delays come from the middle quarter of the declared band, so the
// declared slack absorbs the rate estimator's re-anchoring error and
// sub-detection-threshold lies are possible (docs/DRIFT.md, docs/BYZ.md).
// The fault and zones axes compose: the injectors draw from disjoint
// derived streams, and the zone plan is the epochs' solve.
void run_trial_task(const CampaignSpec& spec, const TaskSpec& task,
                    const SystemModel& model, const Topology& topo,
                    const FaultPlan* faults, std::uint64_t seed,
                    Rng& offset_rng, double tolerance,
                    std::size_t task_threads, TaskResult& r) {
  const MixSpec& mix = spec.mixes[task.mix_id];
  if (mix.kind != "bounds")
    fail("drift and byz arms require a 'bounds' mix (got '" + mix.kind +
         "')");
  const DriftAxisSpec& drift_arm = spec.drift_arm(task.drift_id);
  const ByzAxisSpec& byz_arm = spec.byz_arm(task.byz_id);
  const ZoneAxisSpec& zone_arm = spec.zone_arm(task.zone_id);

  TrialConfig config;
  config.epoch.sync.threads = task_threads;
  config.faults = faults;
  config.skew = spec.skew;
  const double width = mix.ub - mix.lb;
  config.sample_lo = mix.lb + 0.375 * width;
  config.sample_hi = mix.lb + 0.625 * width;
  config.sim_seed = derive_task_seed(seed, 2);
  config.start_offsets =
      random_start_offsets(model.processor_count(), spec.skew, offset_rng);
  config.tolerance = tolerance;
  // Three 8 s epochs unless a drift arm sets its own schedule.
  config.horizon = 32.0;
  config.interval = 8.0;

  if (drift_arm.drifting()) {
    config.oscillator.kind = drift_arm.kind == "walk"
                                 ? drift::OscillatorSpec::Kind::kRandomWalk
                                 : drift::OscillatorSpec::Kind::kConstant;
    config.oscillator.ppm = drift_arm.ppm;
    config.oscillator.step_ppm = drift_arm.step_ppm;
    config.interval = drift_arm.resync;
    config.horizon = drift_arm.horizon_or_default();
    config.drift_seed = derive_task_seed(seed, 3);
  }
  if (byz_arm.byzantine()) {
    config.plan.behavior = byz::behavior_from_name(byz_arm.kind);
    config.plan.f = byz_arm.f;
    config.plan.magnitude = byz_arm.magnitude;
    config.plan.seed = derive_task_seed(seed, 4);
    // "robust" = trimmed folds *and* quorum validation: the MAD gate
    // deletes the floor-clamp outliers that would otherwise force
    // detection outages, and the quorum pass catches the silent corruption
    // trimming alone would let through (the trim-backfire finding;
    // docs/BYZ.md).
    const std::string& est = byz_arm.estimator;
    if (est != "naive" && est != "trimmed" && est != "quorum" &&
        est != "robust")
      fail("unknown byz estimator: '" + est + "'");
    RobustOptions& robust = config.epoch.sync.robust;
    robust.trim = est == "trimmed" || est == "robust";
    if (est == "quorum" || est == "robust") {
      robust.quorum = 3;
      robust.quorum_tolerance = byz_arm.quorum_tolerance;
    }
  }
  ZonePlan zone_plan;
  if (zone_arm.zoned()) {
    zone_plan = build_zone_plan(zone_arm, spec.topologies[task.topology_id],
                                topo);
    config.epoch.sync.zones = &zone_plan;
    r.zoned = true;
    r.zone_count = zone_plan.count;
    for (const std::vector<NodeId>& zone : zone_plan.members())
      r.zone_max_size = std::max(r.zone_max_size, zone.size());
  }

  const TrialResult trial = run_trial(model, config);
  if (drift_arm.drifting()) {
    r.drifting = true;
    r.drift_rho = config.oscillator.rho();
    r.drift_window = trial.window;
    r.drift_epochs = trial.epochs;
    r.drift_bound = trial.bound_max;
    r.drift_slope = trial.max_abs_slope;
  }
  if (byz_arm.byzantine()) {
    r.byzantine = true;
    r.byz_epochs = trial.epochs;
    r.byz_violations = trial.violations;
    r.byz_lied_stamps = trial.lied_stamps;
    r.byz_quorum_dropped = trial.quorum_dropped_max;
  }
  // A detected epoch is an outage whatever its cause (a liar, or an
  // estimator guard too thin for the drift): the --check gate fails it.
  r.byz_detected = trial.detected_epochs;
  r.delivered = trial.delivered;
  r.dropped = trial.dropped;
  r.events = trial.events;
  if (!trial.ok) fail(trial.failure);
  // Honest-subgraph scoring: `claimed` is the max per-component bound the
  // pipeline published for components with >= 2 honest members (every
  // agent is honest on a drift-only arm), `realized` their measured
  // spread, `sound` the trial verdict against the drift-adjusted bound.
  r.bounded = true;
  r.claimed = trial.claimed_max;
  r.guaranteed = trial.claimed_max;
  r.thm46_gap = trial.thm46_gap;
  r.realized = trial.realized_max;
  r.sound = trial.sound;
}

}  // namespace

std::uint64_t derive_task_seed(std::uint64_t campaign_seed,
                               std::uint64_t stream) {
  // Two mixing rounds over the (seed, stream) pair; the multiplier
  // decorrelates consecutive streams before splitmix64 finishes the job.
  const std::uint64_t x =
      campaign_seed ^ (0x2545f4914f6cdd1dULL * (stream + 1));
  return splitmix64_once(splitmix64_once(x));
}

TaskResult run_task(const CampaignSpec& spec, const TaskSpec& task,
                    double tolerance, std::size_t task_threads) {
  const auto start = SteadyClock::now();
  TaskResult r;
  const std::uint64_t seed = derive_task_seed(spec.seed, task.index);
  Rng rng(seed);
  Rng topo_rng = rng.split(1);
  Rng offset_rng = rng.split(2);

  const Topology topo =
      make_topology(spec.topologies[task.topology_id], topo_rng);
  r.nodes = topo.node_count;
  r.links = topo.link_count();
  SystemModel model(topo);
  apply_mix(model, spec.mixes[task.mix_id]);

  const FaultSpec& fault_spec = spec.faults[task.fault_id];
  const FaultPlan plan = fault_spec.build(derive_task_seed(seed, 1));

  SimOptions opts;
  opts.start_offsets =
      random_start_offsets(model.processor_count(), spec.skew, offset_rng);
  opts.seed = derive_task_seed(seed, 2);
  opts.delay_scale = spec.delay_scale;
  // The default cap guards against runaway protocols on lab-sized graphs;
  // scale it with the instance so 100k-node fabrics don't trip it while a
  // protocol generating events out of proportion to the topology still does.
  opts.max_events = std::max<std::size_t>(
      opts.max_events,
      64 * (spec.protocol.rounds + 1) * (topo.link_count() + topo.node_count));
  if (fault_spec.faulty()) opts.faults = &plan;

  try {
    if (spec.drift_arm(task.drift_id).drifting() ||
        spec.byz_arm(task.byz_id).byzantine()) {
      // Trial arms draw their start offsets after the draw above, from
      // the same stream.
      run_trial_task(spec, task, model, topo,
                     fault_spec.faulty() ? &plan : nullptr, seed, offset_rng,
                     tolerance, task_threads, r);
      r.ok = true;
      r.seconds = seconds_since(start);
      return r;
    }

    const SimResult sim = simulate(model, make_protocol(spec), opts);
    r.delivered = sim.delivered_messages;
    r.dropped = sim.fault_dropped_messages;
    r.events = sim.delivered_messages + sim.fired_timers;
    const std::vector<View> views = sim.execution.views();
    const std::vector<RealTime> starts = sim.execution.start_times();

    SyncOptions sync_opts;
    // Omission faults leave orphan sends in the views; the strict pairing
    // policy stays on for clean cells so id-reuse bugs cannot hide.
    sync_opts.match =
        fault_spec.faulty() ? MatchPolicy::kDropOrphans : MatchPolicy::kStrict;

    const ZoneAxisSpec& zone_arm = spec.zone_arm(task.zone_id);
    if (zone_arm.zoned()) {
      // Zone-hierarchical path (Thm 5.5/5.6 composition).  `claimed` is the
      // composed bound; `thm46_gap` folds the per-zone and quotient
      // equality residuals so the report gates enforce zone optimality.
      sync_opts.threads = task_threads;
      const ZonePlan plan = build_zone_plan(
          zone_arm, spec.topologies[task.topology_id], topo);
      const ZonedOutcome out =
          synchronize_zoned(model, views, plan, sync_opts);
      r.zoned = true;
      r.zone_count = out.plan.count;
      for (const ZoneStats& z : out.zones) {
        r.zone_max_size = std::max(r.zone_max_size, std::size_t{z.size});
        if (z.bounded) r.zone_a_max_max = std::max(r.zone_a_max_max, z.a_max);
        r.thm46_gap = std::max(r.thm46_gap, z.thm46_gap);
      }
      r.thm46_gap = std::max(r.thm46_gap, out.quotient_thm46_gap);
      const ZoneRealized realized =
          realized_precision_zoned(starts, out.corrections, out.plan);
      r.realized = realized.overall;
      r.realized_intra = realized.intra;
      r.realized_cross = realized.cross;
      r.bounded = out.bounded();
      if (r.bounded) {
        r.claimed = out.composed_bound.finite();
        r.guaranteed = r.claimed;
        r.sound = r.realized <= r.claimed + tolerance;
      }
    } else {
      const SyncOutcome out = synchronize(model, views, sync_opts);

      r.bounded = out.bounded();
      r.realized = realized_precision(starts, out.corrections);
      if (r.bounded) {
        r.claimed = out.optimal_precision.finite();
        r.guaranteed =
            guaranteed_precision(out.ms_estimates, out.corrections).finite();
        r.thm46_gap = std::abs(r.guaranteed - r.claimed);
        r.sound = r.realized <= r.claimed + tolerance;
      } else {
        // Synchronized per finiteness component; the global Ã^max is +inf
        // and Theorem 4.6 equality is only meaningful per component, so
        // record the finite-direction guarantee and skip the equality
        // check.
        r.guaranteed =
            guaranteed_precision_finite(out.ms_estimates, out.corrections);
      }
    }
    r.ok = true;
  } catch (const Error& e) {
    r.ok = false;
    r.failure = e.what();
  }
  r.seconds = seconds_since(start);
  return r;
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const RunOptions& options) {
  const auto start = SteadyClock::now();
  CampaignResult result;
  result.spec = spec;
  result.tasks = expand(spec);
  result.results.resize(result.tasks.size());
  result.threads = resolve_threads(options.threads);

  PoolOptions pool;
  pool.threads = options.threads;
  pool.metrics = options.metrics;
  run_indexed(
      result.tasks.size(),
      [&](std::size_t i) {
        result.results[i] = run_task(spec, result.tasks[i], options.tolerance,
                                     options.task_threads);
        metrics_increment(options.metrics, result.results[i].ok
                                               ? "lab.tasks_ok"
                                               : "lab.tasks_failed");
        metrics_observe(options.metrics, "lab.task_seconds",
                        result.results[i].seconds);
      },
      pool);

  result.wall_seconds = seconds_since(start);
  return result;
}

}  // namespace cs::lab
