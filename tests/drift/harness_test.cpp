// The epoch trial on drifting clocks (lab/trial.hpp): the end-to-end unit
// the lab drift axis and bench_e17_drift both sit on.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "lab/trial.hpp"
#include "sim/simulator.hpp"
#include "support/builders.hpp"

namespace cs::drift {
namespace {

using lab::TrialConfig;
using lab::TrialEpochRow;
using lab::TrialResult;
using lab::run_trial;

// Ring of 4, declared band [1 ms, 25 ms]; actual delays from the middle
// quarter (the E9b discipline the trial documents).
TrialConfig small_trial(double ppm, double resync, double horizon) {
  TrialConfig config;
  config.oscillator.kind = OscillatorSpec::Kind::kConstant;
  config.oscillator.ppm = ppm;
  config.interval = resync;
  config.horizon = horizon;
  config.skew = 0.25;
  config.sample_lo = 0.001 + 0.375 * 0.024;
  config.sample_hi = 0.001 + 0.625 * 0.024;
  config.sim_seed = 11;
  config.drift_seed = 12;
  Rng rng(11);
  config.start_offsets = random_start_offsets(4, config.skew, rng);
  return config;
}

TEST(DriftHarness, ResyncTrialIsSoundEpochByEpoch) {
  const SystemModel model = test::bounded_model(make_ring(4), 0.001, 0.025);
  const TrialConfig config = small_trial(200.0, 10.0, 40.0);
  const TrialResult r = run_trial(model, config);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.sound);
  EXPECT_EQ(r.epochs, 3u);  // boundaries at 10, 20, 30; the last holds to 40
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(r.window, 10.0);
  for (const TrialEpochRow& row : r.rows) {
    EXPECT_TRUE(row.sound) << "epoch at " << row.boundary;
    EXPECT_LE(row.realized, row.bound + config.tolerance);
    // The drift-adjusted bound always sits above the claimed precision.
    EXPECT_GE(row.bound, row.claimed);
  }
  // Thm 4.6 cross-check held on every epoch.
  EXPECT_LE(r.thm46_gap, 1e-9);
  // The estimator actually fit rates (it had >= min_count traffic).
  EXPECT_GT(r.directions_fitted, 0u);
  // Fitted pairwise slopes respect the 2ρ clamp.
  EXPECT_LE(r.max_abs_slope, 2.0 * 200e-6 + 1e-12);
  EXPECT_GT(r.delivered, 0u);
}

TEST(DriftHarness, TrialsAreDeterministic) {
  const SystemModel model = test::bounded_model(make_ring(4), 0.001, 0.025);
  const TrialConfig config = small_trial(150.0, 10.0, 30.0);
  const TrialResult a = run_trial(model, config);
  const TrialResult b = run_trial(model, config);
  ASSERT_TRUE(a.ok) << a.failure;
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_DOUBLE_EQ(a.claimed_max, b.claimed_max);
  EXPECT_DOUBLE_EQ(a.realized_max, b.realized_max);
  EXPECT_DOUBLE_EQ(a.bound_max, b.bound_max);
  EXPECT_EQ(a.events, b.events);
}

TEST(DriftHarness, DisabledResyncHoldsASingleEpochToTheHorizon) {
  const SystemModel model = test::bounded_model(make_ring(4), 0.001, 0.025);
  TrialConfig config = small_trial(200.0, 0.0, 80.0);
  // A draw whose rate spread is wide enough that 60 s of unchecked drift
  // visibly outgrows the 20 s window's slack (most draws do; this one by
  // a ~1.5x margin, so the expectation is not knife-edge).
  config.sim_seed = 9;
  config.drift_seed = 10;
  Rng rng(9);
  config.start_offsets = random_start_offsets(4, config.skew, rng);
  const TrialResult r = run_trial(model, config);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.epochs, 1u);
  // One sync at H/4 held for 60 s of 200 ppm drift: the spread outgrows
  // the bound — the violation the no-resync lab preset demonstrates.
  EXPECT_FALSE(r.sound);
}

TEST(DriftHarness, BadConfigurationsFailWithoutThrowing) {
  const SystemModel model = test::bounded_model(make_ring(4), 0.001, 0.025);
  TrialConfig config = small_trial(100.0, 10.0, 40.0);
  config.start_offsets.clear();  // required input missing
  const TrialResult missing = run_trial(model, config);
  EXPECT_FALSE(missing.ok);
  EXPECT_FALSE(missing.failure.empty());

  TrialConfig zero = small_trial(100.0, 10.0, 0.0);  // no horizon
  const TrialResult r = run_trial(model, zero);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.failure.empty());
}

TEST(DriftHarness, WindowWithoutTrafficFailsLoudly) {
  // Probes every 1.25 s, a 50 ms window: no boundary's window holds a
  // single observation.  Nothing in the trial (no liars, faults, churn or
  // zones) may cut the graph, so the unbounded epoch is a failure, not a
  // skipped score.
  const SystemModel model = test::bounded_model(make_ring(4), 0.001, 0.025);
  TrialConfig config = small_trial(200.0, 10.0, 40.0);
  config.epoch.window = Duration{0.05};
  const TrialResult r = run_trial(model, config);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("unbounded"), std::string::npos) << r.failure;
}

}  // namespace
}  // namespace cs::drift
