// E18 — Byzantine adversaries: lying agents vs estimator hardening, as
// f x estimator x topology, plus recovery after a bounded attack.
//
// Claims exercised (docs/BYZ.md):
//   * f = 0 honesty tax is zero: every robust variant is bit-clean on
//     honest runs — no detections, no violations, Thm 4.6 equality holds.
//   * The naive pipeline is breakable: somewhere in the f >= 1 sweep a
//     sign-coordinated equivocation slips inside the detection threshold
//     and the published bound is measurably exceeded on the honest
//     subgraph — the run requires at least one such silent violation.
//   * Quorum validation closes the silent window: every quorum arm with
//     f < n/3 stays sound (violations == 0) — detection outages are
//     permitted (loud, nobody misled), silence is not.
//   * Recovery is finite: when the attack's active window ends before the
//     horizon, sliding-window estimation sheds the poisoned observations
//     in a measured number of epochs; a staleness carry stretches (but
//     does not unbound) that count.
//   * Churn composes: link down-windows darken the view census without
//     perturbing the adversary's random streams.
//
// Usage: bench_e18_byz [--quick] [out.json]   (default ./BENCH_byz.json)
// --quick drops the circulant topology and halves the arm grid for CI
// smoke; the committed artifact is the full run.

#include <chrono>

#include "lab/trial.hpp"
#include "support.hpp"

namespace {

using namespace cs;
using namespace cs::bench;
using namespace cs::byz;
using cs::lab::TrialConfig;
using cs::lab::TrialEpochRow;
using cs::lab::TrialResult;
using SteadyClock = std::chrono::steady_clock;

constexpr double kLb = 0.001;
constexpr double kUb = 0.101;

struct TopoArm {
  std::string name;
  Topology topo;
  double magnitude;       ///< calibrated to the silent-violation window
  std::uint64_t sim_seed;
  std::uint64_t offset_seed;
};

struct EstArm {
  std::string name;  ///< "naive" | "trimmed" | "quorum"
  RobustOptions robust;
};

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

std::vector<Duration> offsets(std::size_t n, double skew,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Duration> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(Duration{skew * rng.uniform01()});
  return out;
}

TrialConfig base_config(const TopoArm& t, std::size_t n) {
  TrialConfig config;
  config.horizon = 32.0;
  config.interval = 8.0;
  config.skew = 0.25;
  // Middle-quarter sampling leaves per-edge slack on honest links, so
  // sub-threshold lies are *possible* — the regime worth measuring.
  config.sample_lo = kLb + 0.375 * (kUb - kLb);
  config.sample_hi = kLb + 0.625 * (kUb - kLb);
  config.sim_seed = t.sim_seed;
  config.start_offsets = offsets(n, config.skew, t.offset_seed);
  return config;
}

int run(bool quick, const std::string& json_path) {
  print_header("E18", "byzantine: f x estimator x topology, plus recovery");

  // Magnitudes sit in the calibrated silent-violation band: large enough
  // to matter, small enough that coordinated equivocation can stay inside
  // the per-2-cycle slack on at least some seeds (docs/BYZ.md).
  static constexpr std::size_t kStrides[] = {1, 2, 3};
  std::vector<TopoArm> topologies;
  topologies.push_back({"complete 6", make_complete(6), 0.09, 13, 25});
  if (!quick)
    topologies.push_back(
        {"circulant 9", make_circulant(9, kStrides), 0.10, 11, 23});

  std::vector<EstArm> estimators;
  estimators.push_back({"naive", {}});
  {
    EstArm trimmed{"trimmed", {}};
    trimmed.robust.trim = true;
    trimmed.robust.trim_gate = 6.0;
    estimators.push_back(trimmed);
  }
  {
    EstArm quorum{"quorum", {}};
    quorum.robust.quorum = 3;
    quorum.robust.quorum_tolerance = 0.002;
    estimators.push_back(quorum);
  }

  const std::vector<std::size_t> liar_counts =
      quick ? std::vector<std::size_t>{0, 1}
            : std::vector<std::size_t>{0, 1, 2};

  Table table({"topology", "f", "estimator", "epochs", "det", "viol",
               "claimed", "realized", "qdrop", "sound"});
  BenchJson json("e18_byz");
  std::size_t silent_violations = 0;

  for (const TopoArm& t : topologies) {
    const SystemModel model = bounded_model(t.topo, kLb, kUb);
    const std::size_t n = model.processor_count();
    for (const std::size_t f : liar_counts) {
      for (const EstArm& est : estimators) {
        TrialConfig config = base_config(t, n);
        config.epoch.sync.robust = est.robust;
        config.plan.behavior =
            f == 0 ? Behavior::kHonest : Behavior::kEquivocate;
        config.plan.f = f;
        config.plan.magnitude = t.magnitude;
        config.plan.seed = 0xB12A;

        const auto t0 = SteadyClock::now();
        const TrialResult r = lab::run_trial(model, config);
        const double trial_seconds = seconds_since(t0);
        if (!r.ok) throw Error("E18 " + t.name + ": " + r.failure);

        // Honesty tax: with no liars every variant must be fully clean.
        if (f == 0 && (r.detected_epochs != 0 || r.violations != 0 ||
                       r.thm46_gap > 1e-9))
          throw Error("E18 " + t.name + " f=0 " + est.name +
                      ": honest run not clean");
        // Quorum soundness: with f < n/3 the quorum arm may declare
        // outages (loud) but must never publish a bound the honest agents
        // exceed (silent).
        if (est.name == "quorum" && f > 0 && 3 * f < n && !r.sound)
          throw Error("E18 " + t.name + " f=" + std::to_string(f) +
                      " quorum: silent violation under f < n/3");
        if (est.name != "quorum" && f > 0) silent_violations += r.violations;

        json.scenario(t.name + "/f=" + std::to_string(f) + "/" + est.name)
            .field("topology", t.name)
            .field("nodes", n)
            .field("f", f)
            .field("estimator", est.name)
            .field("behavior", f == 0 ? "none" : "equivocate")
            .field("magnitude", f == 0 ? 0.0 : t.magnitude)
            .field("epochs", r.epochs)
            .field("detected_epochs", r.detected_epochs)
            .field("violations", r.violations)
            .field("sound", r.sound ? "true" : "false")
            .field("claimed_honest_max", r.claimed_max)
            .field("realized_honest_max", r.realized_max)
            .field("thm46_gap", r.thm46_gap)
            .field("lied_stamps", r.lied_stamps)
            .field("quorum_dropped_max", r.quorum_dropped_max)
            .field("delivered", r.delivered)
            .field("trial_seconds", trial_seconds);

        table.add_row({t.name, std::to_string(f), est.name,
                       std::to_string(r.epochs),
                       std::to_string(r.detected_epochs),
                       std::to_string(r.violations),
                       Table::num(r.claimed_max, 6),
                       Table::num(r.realized_max, 6),
                       std::to_string(r.quorum_dropped_max),
                       r.sound ? "yes" : "NO"});
      }
    }
  }

  // The demonstration the robust estimators exist for: somewhere in the
  // sweep, an unprotected arm must have been silently violated.
  if (silent_violations == 0)
    throw Error("E18: no unprotected arm was silently violated — the "
                "must-degrade demonstration is missing");
  std::cout << "silent violations (naive/trimmed): " << silent_violations
            << "\n";

  // Recovery: the attack ends at t = 16 and the horizon runs to 48, so
  // sliding windows shed the poisoned observations; count the epochs.
  {
    const TopoArm& t = topologies.front();
    const SystemModel model = bounded_model(t.topo, kLb, kUb);
    const std::size_t n = model.processor_count();
    Table rec_table({"estimator", "carry", "epochs", "det", "viol",
                     "recovered", "rec_epochs", "carried"});
    const std::vector<std::string> arms =
        quick ? std::vector<std::string>{"naive"}
              : std::vector<std::string>{"naive", "quorum", "carry+churn"};
    for (const std::string& arm : arms) {
      TrialConfig config = base_config(t, n);
      config.horizon = 48.0;
      config.plan.behavior = Behavior::kEquivocate;
      config.plan.f = 1;
      config.plan.magnitude = t.magnitude;
      config.plan.seed = 0xB12A;
      config.plan.until = 16.0;
      if (arm == "quorum") {
        config.epoch.sync.robust.quorum = 3;
        config.epoch.sync.robust.quorum_tolerance = 0.002;
      }
      std::size_t carried_max = 0;
      if (arm == "carry+churn") {
        // Staleness carry only bites when an edge goes missing for a whole
        // estimation window, so this arm's churn holds links dark for 12 s
        // stretches (> the 8 s window): remembered m̃ls edges outlive
        // their window (possibly poisoned), recovery must stretch but stay
        // finite — carried edges age out at max_carry_epochs.
        config.epoch.staleness.carry_forward = true;
        config.epoch.staleness.widen_per_epoch = 0.002;
        config.epoch.staleness.max_carry_epochs = 2;
        config.churn.period = 16.0;
        config.churn.duty = 0.25;
        config.churn.links = 4;
      }

      const TrialResult r = lab::run_trial(model, config);
      if (!r.ok) throw Error("E18 recovery " + arm + ": " + r.failure);
      if (!r.recovery_measured)
        throw Error("E18 recovery " + arm + ": attack window did not close");
      if (!r.recovered)
        throw Error("E18 recovery " + arm +
                    ": estimator never shed the poisoned state");
      for (const TrialEpochRow& row : r.rows)
        carried_max = std::max(carried_max, row.carried_edges);
      if (arm == "carry+churn" && carried_max == 0)
        throw Error("E18 recovery carry+churn: churn never forced a "
                    "carried edge — the staleness arm measured nothing");

      json.scenario("recovery/" + arm)
          .field("topology", t.name)
          .field("estimator", arm)
          .field("until", 16.0)
          .field("horizon", 48.0)
          .field("epochs", r.epochs)
          .field("detected_epochs", r.detected_epochs)
          .field("violations", r.violations)
          .field("recovered", r.recovered ? "true" : "false")
          .field("recovery_epochs", r.recovery_epochs)
          .field("carried_edges_max", carried_max);

      rec_table.add_row(
          {arm, config.epoch.staleness.carry_forward ? "yes" : "no",
           std::to_string(r.epochs), std::to_string(r.detected_epochs),
           std::to_string(r.violations), r.recovered ? "yes" : "NO",
           std::to_string(r.recovery_epochs), std::to_string(carried_max)});
    }
    std::cout << "recovery after a bounded attack (until = 16, horizon = "
                 "48):\n";
    rec_table.print(std::cout);
  }

  // Churn composition: half-duty link churn darkens the census while an
  // equivocator lies; the quorum arm must stay silent-violation free and
  // the boundary censuses must actually report absent directions.
  {
    const TopoArm& t = topologies.front();
    const SystemModel model = bounded_model(t.topo, kLb, kUb);
    const std::size_t n = model.processor_count();
    TrialConfig config = base_config(t, n);
    config.plan.behavior = Behavior::kEquivocate;
    config.plan.f = 1;
    config.plan.magnitude = t.magnitude;
    config.plan.seed = 0xB12A;
    config.epoch.sync.robust.quorum = 3;
    config.epoch.sync.robust.quorum_tolerance = 0.002;
    config.churn.period = 8.0;
    config.churn.duty = 0.5;
    config.churn.links = 4;

    const TrialResult r = lab::run_trial(model, config);
    if (!r.ok) throw Error("E18 churn: " + r.failure);
    if (!r.sound) throw Error("E18 churn: silent violation under quorum");
    std::size_t absent_max = 0;
    for (const TrialEpochRow& row : r.rows)
      absent_max = std::max(absent_max, row.absent_directions);
    if (absent_max == 0)
      throw Error("E18 churn: no boundary census saw an absent direction");

    json.scenario("churn/quorum")
        .field("topology", t.name)
        .field("churn_period", config.churn.period)
        .field("churn_duty", config.churn.duty)
        .field("churn_links", config.churn.links)
        .field("epochs", r.epochs)
        .field("detected_epochs", r.detected_epochs)
        .field("violations", r.violations)
        .field("absent_directions_max", absent_max)
        .field("dropped", r.dropped);
    std::cout << "churn composition: absent directions (max census) = "
              << absent_max << ", dropped = " << r.dropped << "\n";
  }

  table.print(std::cout);
  return json.write(json_path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const cs::bench::BenchArgs args = cs::bench::parse_bench_args(
      argc, argv, "BENCH_byz.json", /*has_quick=*/true);
  return run(args.quick, args.out);
}
