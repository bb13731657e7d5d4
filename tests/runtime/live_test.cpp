// End-to-end live-runtime tests: the §7 agent protocol over every
// transport.  The acceptance contract (ISSUE 4 / docs/RUNTIME.md):
//
//   * deterministic loopback — converged corrections equal the offline
//     pipeline over the recorded views bit-for-bit, every epoch;
//   * every transport — realized precision (ground-truth corrected-clock
//     spread) within the claimed bound, Thm 4.6 live;
//   * faults + grace watchdog — degraded epochs still compute, the run
//     never silently hangs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "runtime/daemon.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

void expect_realized_within_bound(const LiveReport& report) {
  for (const LiveEpochReport& ep : report.epochs) {
    ASSERT_TRUE(ep.claimed_precision.has_value()) << "epoch " << ep.epoch;
    ASSERT_TRUE(ep.realized_precision.has_value()) << "epoch " << ep.epoch;
    // Thm 4.6: on admissible runs the realized spread of corrected clocks
    // is bounded by the claimed (optimal) precision.
    EXPECT_LE(*ep.realized_precision, *ep.claimed_precision)
        << "epoch " << ep.epoch;
  }
}

TEST(LiveLoopback, EightAgentsMatchOfflineBitForBit) {
  SystemModel model = test::bounded_model(make_complete(8), 0.001, 0.05);
  LiveConfig config;
  config.seed = 42;
  config.agent.epochs = 3;

  const LiveReport report = run_live(model, config);
  EXPECT_EQ(report.transport, "loopback");
  EXPECT_EQ(report.agents, 8u);
  ASSERT_TRUE(report.converged);
  ASSERT_TRUE(report.checked);
  EXPECT_TRUE(report.all_match);
  ASSERT_EQ(report.epochs.size(), 3u);
  for (const LiveEpochReport& ep : report.epochs) {
    EXPECT_FALSE(ep.degraded);
    EXPECT_EQ(ep.reports_absorbed, 8u);
    EXPECT_EQ(ep.acks, 8u);
    EXPECT_TRUE(ep.matches_offline);
    // Bit-for-bit, not approximately: same views, same pipeline.
    EXPECT_EQ(ep.corrections, ep.offline_corrections);
    EXPECT_EQ(ep.claimed_precision, ep.offline_precision);
  }
  expect_realized_within_bound(report);
  EXPECT_GT(report.metrics.counter("runtime.dispatched"), 0u);
  EXPECT_GT(report.metrics.counter("runtime.delivered"), 0u);
}

TEST(LiveLoopback, LaterEpochsOnlyTightenThePrecision) {
  // Cumulative traffic ⇒ the m̃ls graph only gains edges ⇒ the optimal
  // precision is non-increasing across epochs (§7's observation).
  SystemModel model = test::bounded_model(make_complete(6), 0.0, 0.1);
  LiveConfig config;
  config.seed = 5;
  config.agent.epochs = 3;

  const LiveReport report = run_live(model, config);
  ASSERT_TRUE(report.converged);
  for (std::size_t k = 1; k < report.epochs.size(); ++k)
    EXPECT_LE(*report.epochs[k].claimed_precision,
              *report.epochs[k - 1].claimed_precision);
}

TEST(LiveLoopback, SparseTopologyConvergesToo) {
  SystemModel model = test::bounded_model(make_ring(8), 0.002, 0.03);
  LiveConfig config;
  config.seed = 17;
  const LiveReport report = run_live(model, config);
  ASSERT_TRUE(report.converged);
  EXPECT_TRUE(report.all_match);
  expect_realized_within_bound(report);
}

TEST(LiveLoopback, GraceWatchdogComputesDegradedEpochsUnderDrop) {
  SystemModel model = test::bounded_model(make_complete(6), 0.001, 0.05);
  LiveConfig config;
  config.seed = 23;
  config.drop_probability = 0.4;  // heavy injected loss
  config.agent.epochs = 2;
  config.agent.grace = Duration{0.5};

  const LiveReport report = run_live(model, config);
  // Under 40% loss convergence (full dissemination) is not guaranteed —
  // but the watchdog guarantees every epoch still *computes* instead of
  // the leader hanging forever on missing reports.
  ASSERT_EQ(report.epochs.size(), 2u);
  for (const LiveEpochReport& ep : report.epochs) {
    EXPECT_TRUE(ep.claimed_precision.has_value()) << "epoch " << ep.epoch;
    EXPECT_GE(ep.reports_absorbed, 1u);
    EXPECT_EQ(ep.degraded, ep.reports_absorbed < report.agents);
  }
  EXPECT_GT(report.metrics.counter("runtime.dropped"), 0u);
}

TEST(LiveLoopback, NoGraceAndTotalLossMeansNoConvergenceNotAHang) {
  // Historic hazard: with reports lost and no watchdog the leader waits
  // forever.  In virtual time the heap simply drains — run_live must
  // return (not converged) rather than spin.
  SystemModel model = test::bounded_model(make_complete(4), 0.001, 0.05);
  LiveConfig config;
  config.seed = 3;
  // Highest injectable loss rate ([0, 1) enforced): with this seed nothing
  // the protocol needs survives the wire.
  config.drop_probability = 0.999;
  const LiveReport report = run_live(model, config);
  EXPECT_FALSE(report.converged);
  EXPECT_FALSE(report.epochs[0].claimed_precision.has_value());
}

TEST(LiveThreaded, EightAgentsConvergeOnWallClock) {
  SystemModel model = test::bounded_model(make_complete(8), 0.0, 1.0);
  LiveConfig config;
  config.seed = 11;
  config.transport = LiveTransportKind::kLoopbackThreaded;
  config.delay_scale = 0.005;
  config.agent.warmup = Duration{0.05};
  config.agent.spacing = Duration{0.02};
  config.agent.report_at = Duration{0.3};
  config.agent.period = Duration{0.3};
  config.deadline = Duration{20.0};

  const LiveReport report = run_live(model, config);
  EXPECT_EQ(report.transport, "loopback-threaded");
  ASSERT_TRUE(report.converged) << "timed_out=" << report.timed_out;
  // The offline check runs over the views of the *actual* wall-clock run,
  // so the bit-for-bit contract holds on threaded transports too.
  EXPECT_TRUE(report.all_match);
  expect_realized_within_bound(report);
  // Mailbox dwell was measured for every cross-thread delivery.
  EXPECT_GT(
      report.metrics.series_snapshot("runtime.ingest_latency_seconds").count,
      0u);
}

TEST(LiveThreaded, TooNarrowBoundsAreDetectedLiveAndOffline) {
  // An honest run whose declared band is far too narrow: every round trip
  // over real threads takes longer than the 2 µs the bounds allow, so
  // every epoch's m̃ls graph has a negative cycle.  The live leader
  // publishes a detection outage, the offline driver records a detected
  // epoch over the same views, and the two compare equal.
  SystemModel model = test::bounded_model(make_complete(4), 0.0, 1e-6);
  LiveConfig config;
  config.seed = 5;
  config.transport = LiveTransportKind::kLoopbackThreaded;
  config.agent.epochs = 2;
  config.agent.warmup = Duration{0.05};
  config.agent.spacing = Duration{0.02};
  config.agent.report_at = Duration{0.3};
  config.agent.period = Duration{0.3};
  config.deadline = Duration{20.0};

  const LiveReport report = run_live(model, config);
  ASSERT_TRUE(report.converged) << "timed_out=" << report.timed_out;
  ASSERT_EQ(report.epochs.size(), 2u);
  EXPECT_EQ(report.detected_epochs, 2u);
  ASSERT_TRUE(report.checked);
  EXPECT_TRUE(report.all_match);
  for (const LiveEpochReport& ep : report.epochs) {
    EXPECT_TRUE(ep.detected) << "epoch " << ep.epoch;
    EXPECT_TRUE(ep.matches_offline) << "epoch " << ep.epoch;
    // Offline detection: no corrections and an unbounded precision.
    ASSERT_TRUE(ep.offline_precision.has_value());
    EXPECT_TRUE(std::isinf(*ep.offline_precision));
    EXPECT_TRUE(ep.offline_corrections.empty());
  }
}

TEST(LiveUdp, EightAgentsOverRealSocketsStayWithinTheBound) {
  // Real localhost datagrams: delays are genuinely positive and tiny, so
  // an admissible model needs lower bound 0.  Thm 4.6 then applies to the
  // real run: realized precision within the claimed bound.
  SystemModel model = test::bounded_model(make_complete(8), 0.0, 1.0);
  LiveConfig config;
  config.seed = 29;
  config.transport = LiveTransportKind::kUdp;
  config.agent.warmup = Duration{0.05};
  config.agent.spacing = Duration{0.02};
  config.agent.report_at = Duration{0.3};
  config.agent.period = Duration{0.3};
  config.deadline = Duration{20.0};

  const LiveReport report = run_live(model, config);
  EXPECT_EQ(report.transport, "udp");
  ASSERT_TRUE(report.converged) << "timed_out=" << report.timed_out;
  expect_realized_within_bound(report);
}

TEST(LiveResync, DriftBudgetClampsThePeriodAndKeepsCoverage) {
  // rho 100 ppm, slack 0.1 ms -> max re-sync interval 0.5 s.  The default
  // 1 s x 1-epoch schedule violates it, so run_live must clamp the period
  // and stretch the epoch count to preserve the covered span.
  SystemModel model = test::bounded_model(make_complete(6), 0.001, 0.05);
  LiveConfig config;
  config.seed = 31;
  config.drift.rho = 100e-6;
  config.drift.slack = 0.0001;

  const LiveReport report = run_live(model, config);
  ASSERT_TRUE(report.converged);
  EXPECT_TRUE(report.resync_clamped);
  EXPECT_DOUBLE_EQ(report.resync_period.sec, 0.5);
  EXPECT_GE(report.resync_epochs, 2u);
  EXPECT_EQ(report.epochs.size(), report.resync_epochs);
  // Every epoch publishes the drift-adjusted bound = claimed + slack.
  for (const LiveEpochReport& ep : report.epochs) {
    ASSERT_TRUE(ep.claimed_precision.has_value()) << "epoch " << ep.epoch;
    ASSERT_TRUE(ep.drift_bound.has_value()) << "epoch " << ep.epoch;
    EXPECT_DOUBLE_EQ(*ep.drift_bound,
                     *ep.claimed_precision + config.drift.slack);
  }
  expect_realized_within_bound(report);
  EXPECT_EQ(report.metrics.counter("runtime.drift.clamped"), 1u);
  EXPECT_GT(report.metrics.series_snapshot("runtime.drift.epoch_bound").count,
            0u);
}

TEST(LiveResync, CompliantScheduleRunsUnmodified) {
  SystemModel model = test::bounded_model(make_complete(4), 0.001, 0.05);
  LiveConfig config;
  config.seed = 37;
  config.agent.epochs = 2;
  config.drift.rho = 100e-6;
  config.drift.slack = 0.01;  // max interval 50 s >> the 5 s default period

  const LiveReport report = run_live(model, config);
  ASSERT_TRUE(report.converged);
  EXPECT_FALSE(report.resync_clamped);
  EXPECT_EQ(report.resync_epochs, 2u);
  EXPECT_EQ(report.metrics.counter("runtime.drift.clamped"), 0u);
  for (const LiveEpochReport& ep : report.epochs)
    EXPECT_TRUE(ep.drift_bound.has_value());
}

TEST(LiveResync, InactiveBudgetLeavesReportsDriftFree) {
  SystemModel model = test::bounded_model(make_complete(4), 0.001, 0.05);
  LiveConfig config;
  config.seed = 41;
  config.agent.epochs = 2;
  const LiveReport report = run_live(model, config);
  ASSERT_TRUE(report.converged);
  EXPECT_FALSE(report.resync_clamped);
  for (const LiveEpochReport& ep : report.epochs)
    EXPECT_FALSE(ep.drift_bound.has_value());
}

TEST(LiveConfigValidation, RejectsBadSchedules) {
  SystemModel model = test::bounded_model(make_complete(3), 0.001, 0.05);
  LiveConfig config;
  config.agent.report_at = Duration{0.1};  // before the probe phase ends
  EXPECT_THROW(run_live(model, config), Error);

  LiveConfig leader;
  leader.agent.leader = 7;  // out of range for n = 3
  EXPECT_THROW(run_live(model, leader), Error);
}

}  // namespace
}  // namespace cs
