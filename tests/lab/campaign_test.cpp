// The campaign runner: seed derivation, per-task validation against the
// paper's claims, and scheduling-independent results.  The Campaign suite
// is a ThreadSanitizer target (see ci.yml).

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/error.hpp"
#include "lab/campaign.hpp"
#include "lab/stats.hpp"

namespace cs::lab {
namespace {

CampaignSpec tiny_campaign() {
  std::istringstream is(
      "chronosync-campaign v1\n"
      "name tiny\n"
      "seed 99\n"
      "seeds 2\n"
      "protocol pingpong 3\n"
      "skew 0.2\n"
      "delay-scale 0.05\n"
      "topology ring 5\n"
      "topology toroid 3x3\n"
      "mix bounds 0.002 0.008\n"
      "faults none\n"
      "faults drop 0.2\n");
  return load_campaign(is);
}

TEST(TaskSeed, DerivationIsAPureInjectiveLookingHash) {
  // Pure function of (seed, stream) …
  EXPECT_EQ(derive_task_seed(1, 0), derive_task_seed(1, 0));
  // … with no collisions across a healthy range of tasks and campaigns.
  std::set<std::uint64_t> seen;
  for (std::uint64_t campaign : {1ull, 2ull, 1807ull, 2026ull})
    for (std::uint64_t stream = 0; stream < 1000; ++stream)
      EXPECT_TRUE(seen.insert(derive_task_seed(campaign, stream)).second)
          << campaign << "/" << stream;
}

TEST(TaskSeed, NeighboringStreamsDecorrelate) {
  // Consecutive task indices must not produce near-identical seeds.
  const std::uint64_t a = derive_task_seed(7, 0);
  const std::uint64_t b = derive_task_seed(7, 1);
  int differing_bits = 0;
  for (std::uint64_t x = a ^ b; x != 0; x &= x - 1) ++differing_bits;
  EXPECT_GE(differing_bits, 16);
}

TEST(Campaign, FaultFreeTaskMeetsTheorem46WithinTolerance) {
  const CampaignSpec spec = tiny_campaign();
  const std::vector<TaskSpec> tasks = expand(spec);
  const TaskResult r = run_task(spec, tasks[0]);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.bounded);
  EXPECT_GT(r.claimed, 0.0);
  EXPECT_LE(r.thm46_gap, kThm46Tolerance);
  EXPECT_TRUE(r.sound);
  EXPECT_EQ(r.nodes, 5u);
  EXPECT_EQ(r.links, 5u);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_GT(r.events, 0u);
}

TEST(Campaign, FaultyTaskStaysSound) {
  const CampaignSpec spec = tiny_campaign();
  const std::vector<TaskSpec> tasks = expand(spec);
  // Task index 2: ring 5, drop 0.2, seed_index 0.
  ASSERT_EQ(tasks[2].fault_id, 1u);
  const TaskResult r = run_task(spec, tasks[2]);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_GT(r.dropped, 0u);
  EXPECT_TRUE(r.sound);
}

TEST(Campaign, TaskResultsAreReproducible) {
  const CampaignSpec spec = tiny_campaign();
  const std::vector<TaskSpec> tasks = expand(spec);
  const TaskResult a = run_task(spec, tasks[3]);
  const TaskResult b = run_task(spec, tasks[3]);
  EXPECT_EQ(a.claimed, b.claimed);
  EXPECT_EQ(a.guaranteed, b.guaranteed);
  EXPECT_EQ(a.realized, b.realized);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.dropped, b.dropped);
}

TEST(Campaign, ResultsIdenticalForAnyThreadCount) {
  // The determinism contract at the library layer: every deterministic
  // TaskResult field is bit-identical between a serial and a parallel run.
  const CampaignSpec spec = tiny_campaign();
  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 4;
  const CampaignResult a = run_campaign(spec, serial);
  const CampaignResult b = run_campaign(spec, parallel);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].ok, b.results[i].ok) << i;
    EXPECT_EQ(a.results[i].bounded, b.results[i].bounded) << i;
    EXPECT_EQ(a.results[i].claimed, b.results[i].claimed) << i;
    EXPECT_EQ(a.results[i].guaranteed, b.results[i].guaranteed) << i;
    EXPECT_EQ(a.results[i].realized, b.results[i].realized) << i;
    EXPECT_EQ(a.results[i].thm46_gap, b.results[i].thm46_gap) << i;
    EXPECT_EQ(a.results[i].events, b.results[i].events) << i;
    EXPECT_EQ(a.results[i].delivered, b.results[i].delivered) << i;
    EXPECT_EQ(a.results[i].dropped, b.results[i].dropped) << i;
  }
}

TEST(Campaign, MetricsCountTaskOutcomes) {
  const CampaignSpec spec = tiny_campaign();
  Metrics metrics;
  RunOptions options;
  options.threads = 2;
  options.metrics = &metrics;
  const CampaignResult result = run_campaign(spec, options);
  EXPECT_EQ(metrics.counter("lab.tasks_ok") + metrics.counter("lab.tasks_failed"),
            result.results.size());
  EXPECT_EQ(metrics.counter("lab.pool.tasks"), result.results.size());
}

TEST(Campaign, UnknownProtocolSurfacesAsTaskFailure) {
  CampaignSpec spec = tiny_campaign();
  spec.protocol.kind = "smoke-signals";
  const TaskResult r = run_task(spec, expand(spec)[0]);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("protocol"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Zones axis

CampaignSpec zoned_campaign() {
  std::istringstream is(
      "chronosync-campaign v1\n"
      "name zoned\n"
      "seed 77\n"
      "seeds 2\n"
      "protocol pingpong 3\n"
      "skew 0.2\n"
      "delay-scale 0.05\n"
      "topology dc 2 3 4\n"
      "mix bounds 0.002 0.008\n"
      "faults none\n"
      "zones none\n"
      "zones natural\n"
      "zones size 6\n");
  return load_campaign(is);
}

TEST(CampaignZones, ZonedArmsStaySoundAndMeetPerZoneTheorem46) {
  const CampaignSpec spec = zoned_campaign();
  for (const TaskSpec& task : expand(spec)) {
    const TaskResult r = run_task(spec, task);
    ASSERT_TRUE(r.ok) << r.failure;
    ASSERT_TRUE(r.bounded);
    EXPECT_TRUE(r.sound) << "zone arm " << task.zone_id;
    // thm46_gap is the per-zone + quotient equality residual on zoned
    // arms and the dense residual otherwise; both must sit at rounding
    // noise on this fault-free campaign.
    EXPECT_LE(r.thm46_gap, kThm46Tolerance);
    if (spec.zone_arm(task.zone_id).zoned()) {
      EXPECT_TRUE(r.zoned);
      EXPECT_GT(r.zone_count, 1u);
      EXPECT_GT(r.zone_max_size, 0u);
      EXPECT_LE(r.realized_intra, r.claimed + kThm46Tolerance);
      EXPECT_LE(r.realized_cross, r.claimed + kThm46Tolerance);
      // Zoned `claimed` is the composed (upper) bound: it must dominate
      // the realized spread but can exceed the per-zone optima.
      EXPECT_GE(r.claimed, r.zone_a_max_max - kThm46Tolerance);
    } else {
      EXPECT_FALSE(r.zoned);
      EXPECT_EQ(r.zone_count, 0u);
    }
  }
}

TEST(CampaignZones, DenseArmMatchesAZonelessRunBitForBit) {
  // Arm "zones none" must not perturb the task seed stream or the dense
  // pipeline: compare against the same campaign without the zones axis.
  CampaignSpec with = zoned_campaign();
  with.zones = {ZoneAxisSpec{}};  // only the dense arm
  CampaignSpec without = zoned_campaign();
  without.zones.clear();
  const std::vector<TaskSpec> wt = expand(with);
  const std::vector<TaskSpec> wo = expand(without);
  ASSERT_EQ(wt.size(), wo.size());
  for (std::size_t i = 0; i < wt.size(); ++i) {
    const TaskResult a = run_task(with, wt[i]);
    const TaskResult b = run_task(without, wo[i]);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.claimed, b.claimed) << i;
    EXPECT_EQ(a.realized, b.realized) << i;
    EXPECT_EQ(a.guaranteed, b.guaranteed) << i;
  }
}

TEST(CampaignZones, TaskThreadsDoNotChangeZonedResults) {
  const CampaignSpec spec = zoned_campaign();
  const std::vector<TaskSpec> tasks = expand(spec);
  for (const TaskSpec& task : tasks) {
    if (!spec.zone_arm(task.zone_id).zoned()) continue;
    const TaskResult a = run_task(spec, task, kThm46Tolerance, 1);
    const TaskResult b = run_task(spec, task, kThm46Tolerance, 4);
    EXPECT_EQ(a.claimed, b.claimed);
    EXPECT_EQ(a.realized, b.realized);
    EXPECT_EQ(a.realized_intra, b.realized_intra);
    EXPECT_EQ(a.realized_cross, b.realized_cross);
    EXPECT_EQ(a.zone_a_max_max, b.zone_a_max_max);
    break;  // one zoned cell suffices; the CLI test sweeps the campaign
  }
}

// ---------------------------------------------------------------------------
// Drift axis

CampaignSpec drifting_campaign() {
  std::istringstream is(
      "chronosync-campaign v1\n"
      "name drifting\n"
      "seed 17\n"
      "seeds 1\n"
      "protocol pingpong 3\n"
      "skew 0.25\n"
      "delay-scale 0.05\n"
      "topology ring 5\n"
      "mix bounds 0.001 0.025\n"
      "faults none\n"
      "drift const 200 resync 10\n"
      "drift walk 200 50 resync 10\n");
  return load_campaign(is);
}

TEST(CampaignDrift, DriftingArmsWithResyncStayWithinTheAdjustedBound) {
  const CampaignSpec spec = drifting_campaign();
  for (const TaskSpec& task : expand(spec)) {
    const TaskResult r = run_task(spec, task);
    ASSERT_TRUE(r.ok) << r.failure;
    ASSERT_TRUE(r.bounded);
    EXPECT_TRUE(r.drifting);
    EXPECT_GT(r.drift_epochs, 1u);
    EXPECT_DOUBLE_EQ(r.drift_rho, 200e-6);
    // Drift-adjusted soundness: realized vs claimed + 2rho(W + I), checked
    // at every epoch inside the trial; `sound` folds every epoch.
    EXPECT_TRUE(r.sound) << "drift arm " << task.drift_id;
    EXPECT_GE(r.drift_bound, r.claimed);
    // Thm 4.6 equality holds per epoch on the drift-adjusted instances.
    EXPECT_LE(r.thm46_gap, kThm46Tolerance);
    // The fitted rate differences stay within the physical maximum 2rho
    // (the estimator clamps there).
    EXPECT_LE(r.drift_slope, 2.0 * r.drift_rho + 1e-12);
  }
}

TEST(CampaignDrift, DisablingResyncViolatesTheBound) {
  // The demonstration at the heart of docs/DRIFT.md: the same oscillators
  // held for a long horizon without re-synchronization drift past the
  // bound the single sync promised.
  CampaignSpec spec = drifting_campaign();
  for (DriftAxisSpec& d : spec.drifts) {
    d.resync = 0.0;
    d.horizon = 80.0;
  }
  bool any_violation = false;
  for (const TaskSpec& task : expand(spec)) {
    const TaskResult r = run_task(spec, task);
    ASSERT_TRUE(r.ok) << r.failure;
    if (!r.sound) any_violation = true;
  }
  EXPECT_TRUE(any_violation)
      << "no-resync arms stayed inside the bound; the violation "
         "demonstration lost its teeth";
}

TEST(CampaignDrift, DriftAndByzComposeWithFaultsZonesAndEachOther) {
  // Every drift and byz arm runs through the one epoch trial, so the
  // pairings byz+zones, byz+drift, drift+faults and drift+zones are cells
  // like any other: each task completes, and the deterministic reports
  // byte-compare across thread counts.
  std::istringstream is(
      "chronosync-campaign v1\n"
      "name composed\n"
      "seed 23\n"
      "seeds 1\n"
      "skew 0.25\n"
      "topology complete 6\n"
      "mix bounds 0.001 0.101\n"
      "faults none\n"
      "faults drop 0.1\n"
      "zones none\n"
      "zones size 3\n"
      "drift none\n"
      "drift const 200 resync 8\n"
      "byz none\n"
      "byz equivocate f=1 mag=0.02 est=quorum\n"
      "byz equivocate f=1 mag=0.02 est=robust\n");
  const CampaignSpec spec = load_campaign(is);
  bool saw[4] = {false, false, false, false};
  for (const TaskSpec& task : expand(spec)) {
    const TaskResult r = run_task(spec, task);
    EXPECT_TRUE(r.ok) << "task " << task.index << ": " << r.failure;
    const bool faulty = spec.faults[task.fault_id].faulty();
    const bool zoned = spec.zone_arm(task.zone_id).zoned();
    const bool drifting = spec.drift_arm(task.drift_id).drifting();
    const bool byzantine = spec.byz_arm(task.byz_id).byzantine();
    EXPECT_EQ(r.zoned, zoned);
    EXPECT_EQ(r.drifting, drifting);
    EXPECT_EQ(r.byzantine, byzantine);
    // The drift estimator trims its detrended residuals when the arm
    // asks for it (est=robust); the trim must not cost an epoch.
    if (drifting && byzantine) {
      EXPECT_EQ(r.byz_detected, 0u);
    }
    saw[0] = saw[0] || (byzantine && zoned);
    saw[1] = saw[1] || (byzantine && drifting);
    saw[2] = saw[2] || (drifting && faulty);
    saw[3] = saw[3] || (drifting && zoned);
  }
  for (const bool pairing : saw) EXPECT_TRUE(pairing);

  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 4;
  const CampaignReport a = aggregate(run_campaign(spec, serial));
  const CampaignReport b = aggregate(run_campaign(spec, parallel));
  EXPECT_EQ(a.failures, 0u);
  std::ostringstream ja, jb, ca, cb;
  write_report_json(ja, a, /*include_timing=*/false);
  write_report_json(jb, b, /*include_timing=*/false);
  write_report_csv(ca, a);
  write_report_csv(cb, b);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_EQ(ca.str(), cb.str());
}

TEST(CampaignDrift, DetectedDriftEpochsFailTheCheck) {
  // A band far narrower than the drift guard ρ·W: the widened estimates
  // contradict the declared bounds, so every epoch is detected.  No liar
  // is involved, and --check must still reject the cell.
  std::istringstream is(
      "chronosync-campaign v1\n"
      "name narrow\n"
      "seed 5\n"
      "seeds 1\n"
      "skew 0.25\n"
      "topology complete 4\n"
      "mix bounds 0.001 0.0011\n"
      "faults none\n"
      "drift const 200 resync 8\n");
  const CampaignSpec spec = load_campaign(is);
  const CampaignReport report = aggregate(run_campaign(spec, RunOptions{}));
  ASSERT_EQ(report.failures, 0u);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_FALSE(report.cells[0].byzantine);
  EXPECT_GT(report.cells[0].byz_detected, 0u);
  EXPECT_FALSE(report_ok(report));
}

TEST(CampaignDrift, DriftReportsAreByteIdenticalForAnyThreadCount) {
  // The full-report determinism contract for drift campaigns (the analogue
  // of the cs_lab CLI --threads 1 vs 4 cmp in CI): deterministic JSON and
  // CSV renderings byte-compare across thread counts.
  const CampaignSpec spec = preset_campaign("drift");
  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 4;
  const CampaignReport a = aggregate(run_campaign(spec, serial));
  const CampaignReport b = aggregate(run_campaign(spec, parallel));

  std::ostringstream ja, jb, ca, cb;
  write_report_json(ja, a, /*include_timing=*/false);
  write_report_json(jb, b, /*include_timing=*/false);
  write_report_csv(ca, a);
  write_report_csv(cb, b);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_EQ(ca.str(), cb.str());
}

}  // namespace
}  // namespace cs::lab
