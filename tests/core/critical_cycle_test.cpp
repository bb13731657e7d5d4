// The Thm 4.4 witness SHIFTS returns: the policy cycle attaining Ã^max.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "core/shifts.hpp"
#include "core/synchronizer.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

/// Mean m̃s-weight of a returned cycle.
double cycle_mean_of(const DistanceMatrix& ms,
                     const std::vector<NodeId>& cycle) {
  double total = 0.0;
  for (std::size_t i = 0; i < cycle.size(); ++i)
    total += ms.at(cycle[i], cycle[(i + 1) % cycle.size()]);
  return total / static_cast<double>(cycle.size());
}

TEST(CriticalCycle, TwoNode) {
  DistanceMatrix ms(2);
  ms.at(0, 1) = 0.3;
  ms.at(1, 0) = 0.5;
  const auto cycle = compute_shifts(ms).critical_cycle;
  ASSERT_EQ(cycle.size(), 2u);
  EXPECT_NEAR(cycle_mean_of(ms, cycle), 0.4, 1e-12);
}

TEST(CriticalCycle, PicksTheBindingCycle) {
  // Two 2-cycles: {0,1} with mean 1.0 and {2,3} with mean 3.0; the
  // critical cycle must be the latter.
  DistanceMatrix ms(4);
  ms.at(0, 1) = 1.0;
  ms.at(1, 0) = 1.0;
  ms.at(2, 3) = 3.0;
  ms.at(3, 2) = 3.0;
  // Cross entries small so they never bind.
  for (NodeId p : {0u, 1u})
    for (NodeId q : {2u, 3u}) {
      ms.at(p, q) = -5.0;
      ms.at(q, p) = -5.0;
    }
  const auto cycle = compute_shifts(ms).critical_cycle;
  ASSERT_FALSE(cycle.empty());
  const std::set<NodeId> members(cycle.begin(), cycle.end());
  EXPECT_TRUE(members == std::set<NodeId>({2, 3}));
  EXPECT_NEAR(cycle_mean_of(ms, cycle), 3.0, 1e-12);
}

TEST(CriticalCycle, WitnessSumsToTheBitsOfAMax) {
  // A 7-node ring of inexact weights dominates every other cycle.  Summed
  // in the order the witness lists it, its mean must carry the very bits
  // SHIFTS reports (floating-point addition is not associative, so another
  // order or starting node may not).
  const std::size_t n = 7;
  DistanceMatrix ms(n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      if (p != q) ms.at(p, q) = -1.0;
  for (std::size_t p = 0; p < n; ++p)
    ms.at(p, (p + 1) % n) = 0.1 + static_cast<double>((p + 2) % n) / 3.0;
  const ShiftsResult r = compute_shifts(ms);
  ASSERT_EQ(r.critical_cycle.size(), n);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cycle_mean_of(ms, r.critical_cycle)),
            std::bit_cast<std::uint64_t>(r.a_max.finite()));
}

TEST(CriticalCycle, SingleProcessorEmpty) {
  EXPECT_TRUE(compute_shifts(DistanceMatrix(1)).critical_cycle.empty());
}

class CriticalCycleProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CriticalCycleProperty, WitnessAttainsOptimalPrecision) {
  // On real pipeline outputs, the witness cycle's mean must equal A^max.
  Rng topo_rng(99);
  SystemModel model =
      test::bounded_model(make_connected_gnp(7, 0.4, topo_rng), 0.01, 0.05);
  const SimResult sim = test::run_ping_pong(model, GetParam(), 0.3);
  const auto views = sim.execution.views();
  const SyncOutcome out = synchronize(model, views);
  ASSERT_TRUE(out.bounded());
  const auto& cycle = out.critical_cycle;
  ASSERT_GE(cycle.size(), 2u);
  // All cycle nodes distinct.
  const std::set<NodeId> members(cycle.begin(), cycle.end());
  EXPECT_EQ(members.size(), cycle.size());
  EXPECT_NEAR(cycle_mean_of(out.ms_estimates, cycle),
              out.optimal_precision.finite(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CriticalCycleProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace cs
