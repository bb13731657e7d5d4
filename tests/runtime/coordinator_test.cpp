// The §7 coordinator protocol — probe, report to a leader, compute, flood
// the corrections — as a single-epoch SyncAgent run under the plain
// discrete-event simulator (no AgentHost, no transport).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "core/precision.hpp"
#include "core/synchronizer.hpp"
#include "runtime/agent.hpp"
#include "sim/fault_plan.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

struct CoordinatorRun {
  CoordinatorRun(std::size_t n, const SyncAgentParams& params)
      : results(n, params) {}

  const LiveEpoch& epoch() const { return results.epochs().front(); }

  LiveResults results;
  SimResult sim;
};

/// One epoch of SyncAgent under simulate(); every processor starts within
/// `skew` of the first, and probing starts once all of them are up.
/// `faults`, when given, must outlive the call.
CoordinatorRun run_coordinator(const SystemModel& model, std::uint64_t seed,
                               double skew, SyncAgentParams params = {},
                               const FaultPlan* faults = nullptr) {
  Rng rng(seed);
  SimOptions opts;
  opts.start_offsets =
      random_start_offsets(model.processor_count(), skew, rng);
  opts.seed = seed;
  opts.faults = faults;
  params.warmup = Duration{skew + 0.1};
  CoordinatorRun run(model.processor_count(), params);
  run.sim = simulate(model, make_sync_agents(&model, params, &run.results),
                     opts);
  return run;
}

TEST(Coordinator, EveryProcessorLearnsItsCorrection) {
  for (const char* topo : {"line", "ring", "star", "complete"}) {
    Rng rng(1);
    SystemModel model =
        test::bounded_model(make_named(topo, 5, rng), 0.01, 0.05);
    const CoordinatorRun run = run_coordinator(model, 3, 0.2);
    EXPECT_TRUE(run.results.all_complete()) << topo;
    EXPECT_EQ(run.epoch().corrections.size(), 5u) << topo;
  }
}

TEST(Coordinator, LeaderIsGaugeZero) {
  SystemModel model = test::bounded_model(make_ring(5), 0.01, 0.05);
  const CoordinatorRun run = run_coordinator(model, 4, 0.2);
  ASSERT_TRUE(run.results.all_complete());
  EXPECT_DOUBLE_EQ(run.epoch().corrections[0], 0.0);
}

TEST(Coordinator, RealizedPrecisionWithinClaim) {
  // The leader's claimed precision is ρ̄ w.r.t. probe-phase information;
  // the actual execution is one member of that equivalence class.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SystemModel model = test::bounded_model(make_ring(6), 0.01, 0.05);
    const CoordinatorRun run = run_coordinator(model, seed, 0.3);
    ASSERT_TRUE(run.results.all_complete());
    EXPECT_LE(realized_precision(run.sim.execution.start_times(),
                                 run.epoch().corrections),
              *run.epoch().claimed_precision + 1e-9);
  }
}

TEST(Coordinator, OfflinePipelineOnFullViewsIsAtLeastAsTight) {
  // The report/correction traffic extends the views, so re-running the
  // offline pipeline afterwards can only improve the bound (§7's remark).
  SystemModel model = test::bounded_model(make_line(5), 0.01, 0.05);
  const CoordinatorRun run = run_coordinator(model, 9, 0.2);
  ASSERT_TRUE(run.results.all_complete());
  const auto views = run.sim.execution.views();
  const SyncOutcome offline = synchronize(model, views);
  EXPECT_LE(offline.optimal_precision.finite(),
            *run.epoch().claimed_precision + 1e-9);
}

TEST(Coordinator, NonDefaultLeader) {
  SystemModel model = test::bounded_model(make_line(4), 0.01, 0.05);
  SyncAgentParams params;
  params.leader = 3;
  const CoordinatorRun run = run_coordinator(model, 11, 0.2, params);
  ASSERT_TRUE(run.results.all_complete());
  EXPECT_DOUBLE_EQ(run.epoch().corrections[3], 0.0);
}

TEST(Coordinator, SingleProcessorDegenerate) {
  SystemModel model{make_line(1)};
  const CoordinatorRun run = run_coordinator(model, 12, 0.0);
  ASSERT_TRUE(run.results.all_complete());
  EXPECT_DOUBLE_EQ(run.epoch().corrections[0], 0.0);
  EXPECT_DOUBLE_EQ(*run.epoch().claimed_precision, 0.0);
}

TEST(Coordinator, ParameterValidation) {
  SystemModel model = test::bounded_model(make_line(2), 0.01, 0.05);
  SyncAgentParams params;
  LiveResults results(2, params);
  params.report_at = Duration{0.1};  // before probes finish
  EXPECT_THROW(make_sync_agents(&model, params, &results), Error);

  SyncAgentParams bad_leader;
  bad_leader.leader = 9;
  EXPECT_THROW(make_sync_agents(&model, bad_leader, &results), Error);
  EXPECT_THROW(make_sync_agents(nullptr, SyncAgentParams{}, &results),
               Error);
}

TEST(Coordinator, BiasModelEndToEnd) {
  SystemModel model = test::bias_model(make_ring(5), 0.02);
  const CoordinatorRun run = run_coordinator(model, 13, 0.2);
  ASSERT_TRUE(run.results.all_complete());
  EXPECT_TRUE(std::isfinite(*run.epoch().claimed_precision));
}

// --- grace: the leader's watchdog ----------------------------------------

TEST(CoordinatorWatchdog, FaultFreeRunWithGraceCompletesNormally) {
  // With no faults the grace timer fires after the compute already
  // happened: the watchdog must be a no-op, not a second compute.
  SystemModel model = test::bounded_model(make_ring(5), 0.01, 0.05);
  SyncAgentParams params;
  params.grace = Duration{1.0};
  const CoordinatorRun run = run_coordinator(model, 7, 0.2, params);
  ASSERT_TRUE(run.results.all_complete());
  EXPECT_FALSE(run.epoch().degraded);
  EXPECT_EQ(run.epoch().reports_absorbed, 5u);
}

TEST(CoordinatorWatchdog, ComputesDegradedFromPartialReportsUnderLoss) {
  // Lost reports would leave the leader waiting forever; with a grace
  // deadline it computes from whatever arrived and flags the outcome.
  // Deterministic omission: the 2-3 link is down for the whole run, so
  // processor 3's report can never reach the leader.
  SystemModel model = test::bounded_model(make_line(4), 0.01, 0.05);
  FaultPlan faults;
  faults.link(2, 3).down.push_back(TimeWindow{});
  SyncAgentParams params;
  params.grace = Duration{1.0};
  const CoordinatorRun run = run_coordinator(model, 5, 0.2, params, &faults);

  const LiveEpoch& ep = run.epoch();
  ASSERT_TRUE(ep.computed());
  EXPECT_TRUE(ep.degraded);
  EXPECT_LT(ep.reports_absorbed, 4u);
  EXPECT_GE(ep.reports_absorbed, 1u);
  // The leader always learns its own correction from the partial compute.
  ASSERT_FALSE(ep.corrections.empty());
  EXPECT_DOUBLE_EQ(ep.corrections[0], 0.0);
  EXPECT_FALSE(run.results.all_complete());  // processor 3 never hears back
}

TEST(CoordinatorWatchdog, SeveredLeaderStaysPendingButTerminates) {
  // Cut both of the leader's links on a ring of 4: no report other than
  // its own reaches it, and no probe traffic either.  The watchdog still
  // computes degraded per-component corrections rather than hanging.
  SystemModel model = test::bounded_model(make_ring(4), 0.01, 0.05);
  FaultPlan faults;
  faults.link(0, 1).down.push_back(TimeWindow{});
  faults.link(0, 3).down.push_back(TimeWindow{});
  SyncAgentParams params;
  params.grace = Duration{0.5};
  const CoordinatorRun run = run_coordinator(model, 6, 0.2, params, &faults);

  const LiveEpoch& ep = run.epoch();
  ASSERT_TRUE(ep.computed());
  EXPECT_TRUE(ep.degraded);
  EXPECT_EQ(ep.reports_absorbed, 1u);  // only the leader's own
  // An isolated leader has no delay estimates at all: its singleton
  // component has precision 0 and its correction is the gauge zero.
  ASSERT_FALSE(ep.corrections.empty());
  EXPECT_DOUBLE_EQ(ep.corrections[0], 0.0);
}

TEST(CoordinatorWatchdog, GraceValidation) {
  // A negative or NaN grace would fail the `grace > 0` arming test and
  // silently disable the watchdog; both are rejected up front.
  SystemModel model = test::bounded_model(make_line(2), 0.01, 0.05);
  SyncAgentParams params;
  LiveResults results(2, params);
  params.grace = Duration{-0.5};
  EXPECT_THROW(make_sync_agents(&model, params, &results), Error);
  params.grace = Duration{std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(make_sync_agents(&model, params, &results), Error);
  params.grace = Duration{0.0};
  EXPECT_NO_THROW(make_sync_agents(&model, params, &results));
}

}  // namespace
}  // namespace cs
