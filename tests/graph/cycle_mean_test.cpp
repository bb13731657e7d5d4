#include "graph/cycle_mean.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/global_estimates.hpp"
#include "core/local_estimates.hpp"
#include "graph/arena.hpp"
#include "lab/topo.hpp"
#include "support/builders.hpp"
#include "support/cycle_mean_oracle.hpp"

namespace cs {
namespace {

TEST(CycleMean, AcyclicHasNone) {
  Digraph g(3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, -3.0);
  EXPECT_FALSE(max_cycle_mean_karp(g).has_value());
  EXPECT_FALSE(max_cycle_mean_bsearch(g).has_value());
  EXPECT_FALSE(max_cycle_mean_brute(g).has_value());
}

TEST(CycleMean, SelfLoop) {
  Digraph g(2);
  g.add_edge(0, 0, 4.0);
  g.add_edge(0, 1, 100.0);
  const auto m = max_cycle_mean_karp(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, 4.0);
}

TEST(CycleMean, TwoCycle) {
  Digraph g(2);
  g.add_edge(0, 1, 3.0);
  g.add_edge(1, 0, 5.0);
  const auto m = max_cycle_mean_karp(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, 4.0);
}

TEST(CycleMean, PicksBestOfTwoCycles) {
  // Cycle A: 0-1 mean 2; cycle B: 2-3 mean 6.
  Digraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 3.0);
  g.add_edge(2, 3, 5.0);
  g.add_edge(3, 2, 7.0);
  g.add_edge(1, 2, -100.0);
  const auto m = max_cycle_mean_karp(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, 6.0);
}

TEST(CycleMean, LongCycleBeatsShort) {
  // Triangle with mean 10 vs 2-cycle with mean 9.
  Digraph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 10.0);
  g.add_edge(2, 0, 10.0);
  g.add_edge(0, 2, 8.0);  // with 2->0: mean 9
  const auto m = max_cycle_mean_karp(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, 10.0);
}

TEST(CycleMean, NegativeWeights) {
  Digraph g(2);
  g.add_edge(0, 1, -3.0);
  g.add_edge(1, 0, -5.0);
  const auto m = max_cycle_mean_karp(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, -4.0);
}

TEST(CycleMean, MinIsNegatedMaxOfNegation) {
  Digraph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 0, 4.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 1, 1.0);
  const auto mn = min_cycle_mean_karp(g);
  ASSERT_TRUE(mn.has_value());
  EXPECT_DOUBLE_EQ(*mn, 1.0);
}

class CycleMeanRandom : public ::testing::TestWithParam<std::uint64_t> {};

/// Complete digraph on k nodes with weights uniform in [lo, hi], as the
/// row-major matrix the dense kernels take (diagonal unused).
struct CompleteGraph {
  CompleteGraph(Rng& rng, std::size_t k, double lo, double hi)
      : CompleteGraph(k, [&] { return rng.uniform(lo, hi); }) {}

  /// Off-diagonal weights from draw(), row by row.
  template <class Draw>
  CompleteGraph(std::size_t k, Draw draw) : k(k), w(k * k, 0.0) {
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t q = 0; q < k; ++q)
        if (p != q) w[p * k + q] = draw();
  }

  /// The same weights as a Digraph, arcs inserted row by row.
  Digraph graph() const {
    Digraph g(k);
    for (NodeId p = 0; p < k; ++p)
      for (NodeId q = 0; q < k; ++q)
        if (p != q) g.add_edge(p, q, w[p * k + q]);
    return g;
  }

  std::size_t k;
  std::vector<double> w;
};

/// Cold-start dense Howard; a backstop exit fails the calling test.
double howard_dense(const CompleteGraph& c) {
  EpochArena arena;
  std::vector<NodeId> policy(c.k);
  const HowardDenseResult r = max_cycle_mean_howard_dense(
      c.w.data(), c.k, {}, policy, arena, nullptr);
  EXPECT_TRUE(r.converged);
  return r.mean;
}

TEST_P(CycleMeanRandom, KarpMatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(6);
    Digraph g(n);
    const std::size_t edges = 1 + rng.uniform_int(2 * n);
    for (std::size_t e = 0; e < edges; ++e)
      g.add_edge(static_cast<NodeId>(rng.uniform_int(n)),
                 static_cast<NodeId>(rng.uniform_int(n)),
                 rng.uniform(-10.0, 10.0));
    const auto brute = max_cycle_mean_brute(g);
    const auto karp = max_cycle_mean_karp(g);
    ASSERT_EQ(brute.has_value(), karp.has_value());
    if (brute) {
      EXPECT_NEAR(*brute, *karp, 1e-9);
    }
  }
}

TEST_P(CycleMeanRandom, BsearchMatchesKarp) {
  Rng rng(GetParam() ^ 0xabcdef);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(8);
    Digraph g(n);
    // Guarantee at least one cycle via a ring, then add noise edges.
    for (NodeId v = 0; v < n; ++v)
      g.add_edge(v, static_cast<NodeId>((v + 1) % n), rng.uniform(-5.0, 5.0));
    for (std::size_t e = 0; e < n; ++e)
      g.add_edge(static_cast<NodeId>(rng.uniform_int(n)),
                 static_cast<NodeId>(rng.uniform_int(n)),
                 rng.uniform(-5.0, 5.0));
    const auto karp = max_cycle_mean_karp(g);
    const auto bs = max_cycle_mean_bsearch(g, 1e-10);
    ASSERT_TRUE(karp.has_value());
    ASSERT_TRUE(bs.has_value());
    EXPECT_NEAR(*karp, *bs, 1e-7);
  }
}

// The dense kernels run on complete graphs only — SHIFTS hands them one
// finiteness component's m̃s matrix at a time.

TEST_P(CycleMeanRandom, HowardMatchesBruteForce) {
  Rng rng(GetParam() ^ 0x5eed);
  for (int trial = 0; trial < 10; ++trial) {
    // Brute force enumerates every simple cycle: ~1e6 of them at k = 9.
    const std::size_t k = 2 + rng.uniform_int(8);
    const CompleteGraph c(rng, k, -10.0, 10.0);
    const auto brute = max_cycle_mean_brute(c.graph());
    ASSERT_TRUE(brute.has_value());
    EXPECT_NEAR(*brute, howard_dense(c), 1e-9) << "k = " << k;
  }
}

TEST_P(CycleMeanRandom, HowardMatchesKarpOnDenseGraphs) {
  // Howard and Karp are different float computations: they agree to
  // rounding, not bit for bit (DESIGN.md's tolerance contract).
  Rng rng(GetParam() * 77 + 5);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t k = 2 + rng.uniform_int(63);
    const CompleteGraph c(rng, k, -5.0, 5.0);
    const auto karp = max_cycle_mean_karp(c.graph());
    ASSERT_TRUE(karp.has_value());
    EXPECT_NEAR(*karp, howard_dense(c), 1e-9) << "k = " << k;
  }
}

/// The dense kernel against the Digraph oracle, compared as bit patterns:
/// EXPECT_EQ on doubles would let +0.0 and -0.0 pass as equal.
void expect_karp_dense_bits(const CompleteGraph& c, EpochArena& arena) {
  const auto karp = max_cycle_mean_karp(c.graph());
  ASSERT_TRUE(karp.has_value());
  arena.reset();
  const double dense = max_cycle_mean_karp_dense(c.w.data(), c.k, arena);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(*karp),
            std::bit_cast<std::uint64_t>(dense))
      << "k = " << c.k << ": graph " << *karp << " vs dense " << dense;
}

TEST(CycleMean, KarpDenseEqualsGraphKarpBitForBit) {
  // The walk table is a min-fold visiting each column's candidates in the
  // same order as the edge-list DP, so the dense kernel must reproduce the
  // Digraph kernel exactly on every size SHIFTS can hand it.
  Rng rng(20261017);
  EpochArena arena;
  for (std::size_t k = 2; k <= 64; ++k)
    expect_karp_dense_bits(CompleteGraph(rng, k, -1.0, 1.0), arena);
  // Sizes around the kernel's four-row blocking: every residue mod 4, a
  // block boundary crossed by one, two and three rows, and the 302-agent
  // fabric of the repository benchmark.
  for (const std::size_t k : {2, 3, 5, 65, 66, 67, 130, 131, 302}) {
    expect_karp_dense_bits(CompleteGraph(rng, k, -1.0, 1.0), arena);
    // Small integers: many walks tie exactly.
    expect_karp_dense_bits(
        CompleteGraph(k,
                      [&] { return static_cast<double>(rng.uniform_int(5)) -
                                   2.0; }),
        arena);
    // Zeros of both signs: every cycle mean is zero, and its sign (Karp
    // returns the negated minimum, -0.0) only a bit-pattern comparison
    // checks.
    expect_karp_dense_bits(
        CompleteGraph(k, [&] { return rng.uniform_int(2) ? 0.0 : -0.0; }),
        arena);
  }
}

TEST(CycleMean, FabricKarpDenseBitEqualToGraphKarp) {
  // The two Karp oracles on the m̃s matrix of a real 302-agent datacenter
  // fabric (dc 2 12 24, the repository benchmark's shape): the dense kernel
  // must carry the very bits of the Digraph kernel on the same complete
  // graph.
  SystemModel model =
      test::bounded_model(lab::make_datacenter(2, 12, 24), 0.002, 0.008);
  const SimResult sim = test::run_ping_pong(model, 1, 0.2);
  const DistanceMatrix ms = global_shift_estimates(
      local_shift_estimates(model, sim.execution.views()));
  ASSERT_EQ(ms.size(), 302u);
  const std::size_t k = ms.size();
  CompleteGraph c(k, [] { return 0.0; });
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t q = 0; q < k; ++q)
      if (p != q) c.w[p * k + q] = ms.at(p, q);
  EpochArena arena;
  expect_karp_dense_bits(c, arena);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleMeanRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CycleMean, DisconnectedComponentsBothConsidered) {
  Digraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 1.0);
  g.add_edge(2, 3, 9.0);
  g.add_edge(3, 2, 9.0);
  const auto m = max_cycle_mean_karp(g);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, 9.0);
}

}  // namespace
}  // namespace cs
