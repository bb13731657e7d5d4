// E12 — Synchronization under fault injection: precision vs message loss,
// and what staleness carry-forward buys back.
//
// Claim exercised: omission faults never break soundness — they only starve
// the estimators.  As the per-link drop probability rises, sliding-window
// epochs start seeing directions with zero observations and degrade to
// per-component guarantees; carry-forward with staleness widening keeps the
// instance bounded through short outages at the cost of a (reported,
// widened) precision.  Expected shape: the bounded-epoch fraction of the
// no-carry arm falls off with loss while the carry arm stays near 1, with a
// modest precision premium; coverage tracks (1 - loss) closely.
//
// Sweep plumbing: the (loss × arm × seed) grid is expanded like a lab
// campaign cell grid and fanned out over the cs_lab work-stealing pool.
// Each task's randomness is keyed by lab::derive_task_seed(master, index),
// so the aggregated rows are byte-identical for every thread count.
//
// Output: stdout table (one row per (loss, arm) cell, averaged over the
// seed range) plus BENCH_lab.json in the standard bench-JSON shape.

#include "core/epochs.hpp"
#include "lab/campaign.hpp"
#include "common/pool.hpp"
#include "proto/beacon.hpp"
#include "sim/fault_plan.hpp"
#include "support.hpp"

namespace {

using namespace cs;
using namespace cs::bench;

constexpr std::uint64_t kMasterSeed = 1201;
constexpr std::size_t kSeedsPerCell = 4;
const std::vector<double> kLosses{0.0, 0.2, 0.4, 0.6, 0.8};

struct ArmOutcome {
  double coverage{0.0};        ///< mean observed-direction fraction
  double bounded_fraction{0.0};
  double mean_precision{0.0};  ///< over bounded epochs
  std::size_t carried{0};
  std::size_t dropped{0};
};

ArmOutcome run_arm(const SystemModel& model, double loss, bool carry,
                   std::uint64_t seed) {
  FaultPlan plan;
  plan.default_link.drop_probability = loss;

  SimOptions opts;
  opts.start_offsets.assign(model.processor_count(), Duration{0.0});
  opts.seed = seed;
  opts.faults = &plan;

  // Sparse probing (a few beacons per window per direction): at high loss,
  // link directions genuinely starve within a window.
  BeaconParams params;
  params.warmup = Duration{0.1};
  params.period = Duration{0.15};
  params.count = 27;  // beacons through clock time ~4.0
  const SimResult sim = simulate(model, make_beacon(params), opts);
  const auto views = sim.execution.views();

  std::vector<ClockTime> boundaries;
  for (double t = 1.0; t <= 4.0; t += 0.5) boundaries.push_back(ClockTime{t});

  EpochOptions epoch_opts;
  epoch_opts.window = Duration{0.45};
  epoch_opts.staleness.carry_forward = carry;
  epoch_opts.staleness.widen_per_epoch = 0.005;
  epoch_opts.staleness.max_carry_epochs = 4;

  ArmOutcome out;
  out.dropped = sim.fault_dropped_messages;
  std::size_t bounded = 0;
  for (const EpochOutcome& ep :
       epochal_synchronize_incremental(model, views, boundaries,
                                       epoch_opts)) {
    out.coverage += ep.coverage.fraction();
    out.carried += ep.carried_edges;
    if (ep.sync.bounded()) {
      ++bounded;
      out.mean_precision += ep.sync.optimal_precision.finite();
    }
  }
  out.coverage /= static_cast<double>(boundaries.size());
  out.bounded_fraction =
      static_cast<double>(bounded) / static_cast<double>(boundaries.size());
  if (bounded > 0) out.mean_precision /= static_cast<double>(bounded);
  return out;
}

int run(const std::string& json_path) {
  print_header("E12", "degraded-mode synchronization under message loss");

  const SystemModel model = bounded_model(make_ring(8), 0.005, 0.02);

  // Cell grid in odometer order (loss-major, then arm, then seed), exactly
  // like lab::expand; results land in index-keyed slots.
  const std::size_t cells = kLosses.size() * 2;
  const std::size_t task_count = cells * kSeedsPerCell;
  std::vector<ArmOutcome> results(task_count);

  Metrics metrics;
  PoolOptions pool;
  pool.metrics = &metrics;
  run_indexed(
      task_count,
      [&](std::size_t i) {
        const std::size_t cell = i / kSeedsPerCell;
        const double loss = kLosses[cell / 2];
        const bool carry = (cell % 2) != 0;
        results[i] =
            run_arm(model, loss, carry, lab::derive_task_seed(kMasterSeed, i));
      },
      pool);

  Table table({"loss", "arm", "seeds", "dropped", "coverage",
               "bounded_epochs", "mean_precision", "carried_edges"});
  BenchJson json("lab");

  for (std::size_t cell = 0; cell < cells; ++cell) {
    const double loss = kLosses[cell / 2];
    const bool carry = (cell % 2) != 0;
    ArmOutcome mean;
    std::size_t with_bounded = 0;
    for (std::size_t s = 0; s < kSeedsPerCell; ++s) {
      const ArmOutcome& arm = results[cell * kSeedsPerCell + s];
      mean.coverage += arm.coverage;
      mean.bounded_fraction += arm.bounded_fraction;
      mean.dropped += arm.dropped;
      mean.carried += arm.carried;
      if (arm.bounded_fraction > 0.0) {
        mean.mean_precision += arm.mean_precision;
        ++with_bounded;
      }
    }
    mean.coverage /= static_cast<double>(kSeedsPerCell);
    mean.bounded_fraction /= static_cast<double>(kSeedsPerCell);
    if (with_bounded > 0)
      mean.mean_precision /= static_cast<double>(with_bounded);

    const std::string arm_name = carry ? "carry" : "no_carry";
    table.add_row({Table::num(loss, 2), arm_name,
                   std::to_string(kSeedsPerCell),
                   std::to_string(mean.dropped), Table::num(mean.coverage, 3),
                   Table::num(mean.bounded_fraction, 3),
                   Table::num(mean.mean_precision, 5),
                   std::to_string(mean.carried)});

    json.scenario("loss" + Table::num(loss, 1) + "_" + arm_name)
        .field("loss", loss)
        .field("arm", arm_name)
        .field("seeds", kSeedsPerCell)
        .field("dropped", mean.dropped)
        .field("coverage_mean", mean.coverage)
        .field("bounded_fraction_mean", mean.bounded_fraction)
        .field("mean_precision", mean.mean_precision)
        .field("carried_edges", mean.carried);
  }
  table.print(std::cout);
  std::cout << "pool: " << metrics.counter("lab.pool.threads")
            << " workers, " << metrics.counter("lab.pool.steals")
            << " steals\n";
  return json.write(json_path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return run(cs::bench::parse_bench_args(argc, argv, "BENCH_lab.json",
                                         /*has_quick=*/false)
                 .out);
}
