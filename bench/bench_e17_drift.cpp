// E17 — drifting oscillators: realized precision vs the drift-adjusted
// bound, as drift magnitude x re-sync interval x topology.
//
// Claims exercised (docs/DRIFT.md):
//   * With scheduled re-synchronization every epoch of every arm is sound:
//     the ground-truth corrected spread stays within
//     Ã^max + 2ρ·(W + I) — enforced, not just reported.
//   * The bound degrades gracefully as the re-sync interval stretches (the
//     2ρ·I term), and tightens as it shrinks — the precision-vs-interval
//     curve per drift magnitude.
//   * With re-sync disabled a single sync held to the horizon visibly
//     violates its bound at realistic drift (the footnote-1 demonstration);
//     the run requires at least one such violation to appear.
//   * The detrending estimator keeps every fitted pairwise slope within
//     the physical 2ρ clamp, under both oscillator models.
//
// Usage: bench_e17_drift [--quick] [out.json]   (default ./BENCH_drift.json)
// --quick shrinks topologies and the horizon for CI smoke; the committed
// artifact is the full run.

#include <chrono>

#include "drift/scheduler.hpp"
#include "lab/trial.hpp"
#include "support.hpp"

namespace {

using namespace cs;
using namespace cs::bench;
using namespace cs::drift;
using cs::lab::TrialConfig;
using cs::lab::TrialResult;
using SteadyClock = std::chrono::steady_clock;

constexpr double kLb = 0.001;
constexpr double kUb = 0.025;

struct TopoArm {
  std::string name;
  Topology topo;
  std::uint64_t seed;
};

struct OscArm {
  std::string model;  ///< "const" or "walk"
  double ppm;
};

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

int run(bool quick, const std::string& json_path) {
  print_header("E17", "drift: precision vs re-sync interval, per magnitude");

  // The estimator's guard (ρ·W) must stay inside the slack the
  // middle-quarter sampling leaves (0.375·(ub − lb) = 9 ms): at the top
  // 500 ppm magnitude that caps the estimation window near 18 s, which
  // bounds both the longest re-sync interval and horizon/4.
  const double horizon = quick ? 40.0 : 48.0;
  // 0 = re-sync disabled: one sync at horizon/4 held to the end.
  const std::vector<double> intervals =
      quick ? std::vector<double>{0.0, 10.0, 5.0}
            : std::vector<double>{0.0, 16.0, 8.0, 4.0};

  std::vector<TopoArm> topologies;
  if (quick) {
    topologies.push_back({"ring 6", make_ring(6), 1701});
    topologies.push_back({"complete 4", make_complete(4), 1702});
  } else {
    topologies.push_back({"ring 8", make_ring(8), 1701});
    topologies.push_back({"complete 6", make_complete(6), 1702});
  }

  // Three constant magnitudes give the curve; the walk arm shows the
  // estimator handling a wandering rate at the middle magnitude.
  const std::vector<OscArm> oscillators = {
      {"const", 50.0}, {"const", 200.0}, {"const", 500.0}, {"walk", 200.0}};

  Table table({"topology", "model", "ppm", "resync", "epochs", "claimed",
               "bound", "realized", "sound", "max_slope"});
  BenchJson json("e17_drift");
  std::size_t noresync_violations = 0;

  for (const TopoArm& t : topologies) {
    const SystemModel model = bounded_model(t.topo, kLb, kUb);
    const std::size_t n = model.processor_count();
    for (const OscArm& osc : oscillators) {
      for (const double interval : intervals) {
        // The estimator's guard ρ·W must keep clear headroom inside the
        // sampling margin or the widened estimates go physically
        // inconsistent; arms past 3/4 of the margin are dropped loudly,
        // not run into a negative-cycle abort.
        const double window_eff = interval > 0.0 ? interval : horizon / 4.0;
        const double margin = 0.375 * (kUb - kLb);
        if (osc.ppm * 1e-6 * window_eff > 0.75 * margin) {
          std::cout << "skip " << t.name << " " << osc.model << " "
                    << osc.ppm << "ppm resync " << interval
                    << ": guard rho*W exceeds the sampling margin\n";
          continue;
        }
        TrialConfig config;
        config.oscillator.kind = osc.model == "walk"
                                     ? OscillatorSpec::Kind::kRandomWalk
                                     : OscillatorSpec::Kind::kConstant;
        config.oscillator.ppm = osc.ppm;
        if (osc.model == "walk") {
          config.oscillator.step_ppm = osc.ppm / 4.0;
          config.oscillator.interval = horizon / 32.0;
          config.oscillator.horizon = horizon;
        }
        config.interval = interval;
        config.horizon = horizon;
        config.skew = 0.25;
        config.sample_lo = kLb + 0.375 * (kUb - kLb);
        config.sample_hi = kLb + 0.625 * (kUb - kLb);
        config.sim_seed = t.seed;
        config.drift_seed = t.seed + 7;
        Rng rng(t.seed);
        config.start_offsets = random_start_offsets(n, config.skew, rng);

        const auto t0 = SteadyClock::now();
        const TrialResult r = lab::run_trial(model, config);
        const double trial_seconds = seconds_since(t0);
        if (!r.ok) throw Error("E17 " + t.name + ": " + r.failure);
        // A detected epoch (negative m̃ls cycle) means the guard went
        // physically inconsistent — a failure, never a skipped epoch.
        if (r.detected_epochs > 0)
          throw Error("E17 " + t.name + " " + osc.model + ": " +
                      std::to_string(r.detected_epochs) +
                      " epoch(s) detected as inconsistent");

        // Soundness is part of the benchmark: every re-sync arm must hold
        // its drift-adjusted bound; the no-re-sync arms are the
        // counter-demonstration and are only tallied.
        if (interval > 0.0 && !r.sound)
          throw Error("E17 " + t.name + " " + osc.model + " " +
                      std::to_string(osc.ppm) + "ppm resync " +
                      std::to_string(interval) +
                      ": bound violated under scheduled re-sync");
        if (interval == 0.0 && !r.sound) ++noresync_violations;
        if (r.max_abs_slope > 2.0 * osc.ppm * 1e-6 + 1e-12)
          throw Error("E17 " + t.name + ": fitted slope escaped the 2rho clamp");

        const std::string ppm_label =
            std::to_string(static_cast<int>(osc.ppm));
        const std::string resync_label =
            interval > 0.0 ? std::to_string(static_cast<int>(interval)) + " s"
                           : "none";
        json.scenario(t.name + "/" + osc.model + " " + ppm_label +
                      "ppm/resync " + resync_label)
            .field("topology", t.name)
            .field("nodes", n)
            .field("model", osc.model)
            .field("ppm", osc.ppm)
            .field("resync", interval)
            .field("horizon", horizon)
            .field("epochs", r.epochs)
            .field("window", r.window)
            .field("claimed_max", r.claimed_max)
            .field("bound_max", r.bound_max)
            .field("realized_max", r.realized_max)
            .field("sound", r.sound ? "true" : "false")
            .field("thm46_gap", r.thm46_gap)
            .field("directions_fitted", r.directions_fitted)
            .field("directions_raw", r.directions_raw)
            .field("max_abs_slope", r.max_abs_slope)
            .field("delivered", r.delivered)
            .field("trial_seconds", trial_seconds);

        table.add_row({t.name, osc.model, ppm_label, resync_label, std::to_string(r.epochs),
                       Table::num(r.claimed_max, 6), Table::num(r.bound_max, 6),
                       Table::num(r.realized_max, 6),
                       r.sound ? "yes" : "NO",
                       Table::num(r.max_abs_slope * 1e6, 1) + "ppm"});
      }
    }
  }

  // The demonstration the drift subsystem exists for: somewhere in the
  // sweep, disabling re-sync must have broken the bound.
  if (noresync_violations == 0)
    throw Error("E17: no no-re-sync arm violated its bound — the "
                "counter-demonstration is missing");
  std::cout << "no-re-sync violations: " << noresync_violations << "\n";

  table.print(std::cout);
  return json.write(json_path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const cs::bench::BenchArgs args = cs::bench::parse_bench_args(
      argc, argv, "BENCH_drift.json", /*has_quick=*/true);
  return run(args.quick, args.out);
}
