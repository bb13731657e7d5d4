// Detrending rate estimator (delaymodel/rate_estimator.hpp): OLS recovery,
// windowing, clamping, re-anchoring and the raw fallback.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "delaymodel/link_stats.hpp"
#include "delaymodel/rate_estimator.hpp"

namespace cs::drift {
namespace {

// d̃(t) = intercept + slope * t, exactly linear — OLS must recover it.
std::vector<TimedObs> linear_obs(double intercept, double slope,
                                 std::size_t count, double spacing) {
  std::vector<TimedObs> obs;
  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) * spacing;
    obs.push_back({t, intercept + slope * t});
  }
  return obs;
}

TEST(RateEstimator, FitRecoversASyntheticSlopeExactly) {
  const auto obs = linear_obs(0.015, 2e-4, 20, 0.5);
  const RateFit fit = fit_rate(obs);
  ASSERT_TRUE(fit.usable());
  EXPECT_EQ(fit.count, 20u);
  EXPECT_NEAR(fit.slope, 2e-4, 1e-12);
  EXPECT_NEAR(fit.intercept, 0.015, 1e-12);
  // Noise-free data leaves no residual spread.
  EXPECT_NEAR(fit.residual_min, 0.0, 1e-12);
  EXPECT_NEAR(fit.residual_max, 0.0, 1e-12);
}

TEST(RateEstimator, ResidualExtremesBracketTheOutliers) {
  auto obs = linear_obs(0.010, 1e-4, 10, 1.0);
  obs.push_back({4.5, 0.010 + 1e-4 * 4.5 + 0.002});  // high outlier
  obs.push_back({5.5, 0.010 + 1e-4 * 5.5 - 0.001});  // low outlier
  const RateFit fit = fit_rate(obs);
  EXPECT_GT(fit.residual_max, 0.0015);
  EXPECT_LT(fit.residual_min, -0.0005);
}

TEST(RateEstimator, DegenerateInputsFallBackGracefully) {
  // Fewer than two points: slope 0, intercept = mean.
  const std::vector<TimedObs> one = {{3.0, 0.02}};
  const RateFit f1 = fit_rate(one);
  EXPECT_FALSE(f1.usable());
  EXPECT_DOUBLE_EQ(f1.slope, 0.0);
  EXPECT_DOUBLE_EQ(f1.intercept, 0.02);
  // Zero send-time spread: same degenerate shape, both points kept.
  const std::vector<TimedObs> stacked = {{3.0, 0.02}, {3.0, 0.04}};
  const RateFit f2 = fit_rate(stacked);
  EXPECT_EQ(f2.count, 2u);
  EXPECT_DOUBLE_EQ(f2.slope, 0.0);
  EXPECT_DOUBLE_EQ(f2.intercept, 0.03);
  EXPECT_EQ(fit_rate({}).count, 0u);
}

TEST(RateEstimator, ReanchorsTheExtremesAtTheBoundary) {
  // Pure linear growth: raw extremes over [0, 9.5] span ~1.9 ms, but the
  // detrended estimate "as of T = 10" collapses to the predicted value.
  const auto obs = linear_obs(0.015, 2e-4, 20, 0.5);
  DriftWindowOptions options;
  options.boundary = 10.0;
  const DirectedStats stats = drift_adjusted_stats(obs, options);
  ASSERT_EQ(stats.count, 20u);
  const double at_boundary = 0.015 + 2e-4 * 10.0;
  EXPECT_NEAR(stats.dmin.value(), at_boundary, 1e-9);
  EXPECT_NEAR(stats.dmax.value(), at_boundary, 1e-9);
  // Naive raw extremes over the same window would have spanned ~1.9 ms.
  EXPECT_LT(stats.dmax.value() - stats.dmin.value(), 1e-6);
}

TEST(RateEstimator, GuardWidensBothExtremes) {
  const auto obs = linear_obs(0.015, 0.0, 10, 1.0);
  DriftWindowOptions options;
  options.boundary = 10.0;
  options.guard = 0.001;
  const DirectedStats stats = drift_adjusted_stats(obs, options);
  EXPECT_NEAR(stats.dmin.value(), 0.014, 1e-12);
  EXPECT_NEAR(stats.dmax.value(), 0.016, 1e-12);
}

TEST(RateEstimator, SlopeClampKeepsExtrapolationPhysical) {
  // Actual slope 5e-4 but the declared budget admits only 2e-4: the
  // re-anchored value must use the clamped slope.
  const auto obs = linear_obs(0.010, 5e-4, 10, 1.0);
  DriftWindowOptions clamped;
  clamped.boundary = 20.0;
  clamped.max_slope = 2e-4;
  const DirectedStats s = drift_adjusted_stats(obs, clamped);
  DriftWindowOptions free = clamped;
  free.max_slope = 0.0;  // unclamped
  const DirectedStats f = drift_adjusted_stats(obs, free);
  EXPECT_LT(s.dmax.value(), f.dmax.value());
  // The clamp leaves unexplained trend in the residuals, so the clamped
  // estimate is *wider*, never tighter, than the true spread.
  EXPECT_GT(s.dmax.value() - s.dmin.value(),
            f.dmax.value() - f.dmin.value());
}

TEST(RateEstimator, WindowAndBoundaryFilterObservations) {
  const auto obs = linear_obs(0.015, 0.0, 20, 1.0);  // sends at 0..19
  DriftWindowOptions options;
  options.boundary = 10.0;  // sends at 10..19 are invisible
  options.window = 5.0;     // and only [5, 10) stays
  const DirectedStats stats = drift_adjusted_stats(obs, options);
  EXPECT_EQ(stats.count, 5u);
  // Everything filtered out -> empty stats, i.e. edge absence downstream.
  options.window = 0.001;
  const DirectedStats empty = drift_adjusted_stats(obs, options);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_TRUE(empty.dmin.is_pos_inf());
  EXPECT_TRUE(empty.dmax.is_neg_inf());
}

TEST(RateEstimator, BelowMinCountFallsBackToRawExtremes) {
  const std::vector<TimedObs> obs = {{1.0, 0.012}, {2.0, 0.018}};
  DriftWindowOptions options;
  options.boundary = 10.0;
  options.min_count = 3;  // too few to trust a fit
  const DirectedStats stats = drift_adjusted_stats(obs, options);
  EXPECT_EQ(stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.dmin.value(), 0.012);
  EXPECT_DOUBLE_EQ(stats.dmax.value(), 0.018);
}

}  // namespace
}  // namespace cs::drift
