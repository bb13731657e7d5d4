#include "graph/incremental_apsp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <unordered_map>

#include "common/rng.hpp"
#include "graph/johnson.hpp"

namespace cs {
namespace {

void expect_matrices_match(const DistanceMatrix& got,
                           const DistanceMatrix& want, double tol = 1e-12) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    for (std::size_t j = 0; j < got.size(); ++j) {
      const double a = got.at(i, j);
      const double b = want.at(i, j);
      if (a == kInfDist || b == kInfDist) {
        EXPECT_EQ(a, b) << "(" << i << "," << j << ")";
      } else {
        EXPECT_NEAR(a, b, tol) << "(" << i << "," << j << ")";
      }
    }
}

Digraph diamond() {
  Digraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 4.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(1, 3, 6.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 0, 2.0);
  return g;
}

TEST(IncrementalApsp, ColdUpdateEqualsRebuild) {
  const Digraph g = diamond();
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(g));
  EXPECT_FALSE(inc.last_step().incremental);  // cold start = rebuild
  expect_matrices_match(inc.distances(), *johnson(g));
}

TEST(IncrementalApsp, EdgeDecreaseIsIncrementalAndExact) {
  Digraph g = diamond();
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(g));

  g.set_weight(1, 0.5);  // 0->2 cheaper
  ASSERT_TRUE(inc.update(g));
  EXPECT_TRUE(inc.last_step().incremental);
  EXPECT_EQ(inc.last_step().decreased_edges, 1u);
  EXPECT_EQ(inc.last_step().increased_edges, 0u);
  expect_matrices_match(inc.distances(), *johnson(g));
}

TEST(IncrementalApsp, EdgeIncreaseRecomputesOnlyAffectedRows) {
  Digraph g = diamond();
  // Threshold of 1.0: never fall back, exercise the restricted recompute.
  IncrementalApsp inc(IncrementalApspOptions{/*max_dirty_fraction=*/1.0});
  ASSERT_TRUE(inc.update(g));

  g.set_weight(0, 9.0);  // 0->1 was on shortest paths out of 0 and 3
  ASSERT_TRUE(inc.update(g));
  EXPECT_TRUE(inc.last_step().incremental);
  EXPECT_EQ(inc.last_step().increased_edges, 1u);
  EXPECT_GT(inc.last_step().dirty_rows, 0u);
  expect_matrices_match(inc.distances(), *johnson(g));
}

TEST(IncrementalApsp, EdgeRemovalSplitsReachability) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 0, 1.0);
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.distances().at(2, 1), 2.0);

  Digraph cut(3);  // drop 2->0: node 2 can no longer reach anyone
  cut.add_edge(0, 1, 1.0);
  cut.add_edge(1, 2, 1.0);
  ASSERT_TRUE(inc.update(cut));
  expect_matrices_match(inc.distances(), *johnson(cut));
  EXPECT_EQ(inc.distances().at(2, 0), kInfDist);
  EXPECT_EQ(inc.distances().at(2, 1), kInfDist);
  EXPECT_EQ(inc.distances().at(2, 2), 0.0);
}

TEST(IncrementalApsp, EdgeInsertionConnectsComponents) {
  Digraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 2, 1.0);
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.distances().at(0, 3), kInfDist);

  g.add_edge(1, 2, 0.5);
  ASSERT_TRUE(inc.update(g));
  EXPECT_TRUE(inc.last_step().incremental);
  expect_matrices_match(inc.distances(), *johnson(g));
  EXPECT_NEAR(inc.distances().at(0, 3), 2.5, 1e-12);
}

TEST(IncrementalApsp, NegativeWeightsSupported) {
  Digraph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, -1.0);
  g.add_edge(2, 0, 0.5);
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(g));
  expect_matrices_match(inc.distances(), *johnson(g));

  g.set_weight(0, 0.6);  // decrease; cycle weight stays 0.6-1.0+0.5 = 0.1
  ASSERT_TRUE(inc.update(g));
  expect_matrices_match(inc.distances(), *johnson(g));
}

TEST(IncrementalApsp, DecreaseCreatingNegativeCycleIsRejected) {
  Digraph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 1.0);
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(g));

  g.set_weight(0, -2.0);  // cycle weight -1
  EXPECT_FALSE(inc.update(g));
  EXPECT_FALSE(inc.valid());

  // Recovery: a consistent graph rebuilds cleanly.
  g.set_weight(0, 1.0);
  ASSERT_TRUE(inc.update(g));
  EXPECT_TRUE(inc.valid());
  expect_matrices_match(inc.distances(), *johnson(g));
}

TEST(IncrementalApsp, NodeCountChangeFallsBackToRebuild) {
  IncrementalApsp inc;
  ASSERT_TRUE(inc.update(diamond()));
  Digraph bigger(5);
  bigger.add_edge(0, 4, 1.0);
  ASSERT_TRUE(inc.update(bigger));
  EXPECT_FALSE(inc.last_step().incremental);
  expect_matrices_match(inc.distances(), *johnson(bigger));
}

TEST(IncrementalApsp, LargeDeltaFallsBackToRebuild) {
  Rng rng(11);
  const std::size_t n = 12;
  Digraph g(n);
  for (NodeId v = 0; v < n; ++v)
    g.add_edge(v, static_cast<NodeId>((v + 1) % n), rng.uniform(0.1, 1.0));
  IncrementalApsp inc(IncrementalApspOptions{/*max_dirty_fraction=*/0.25});
  ASSERT_TRUE(inc.update(g));

  // Increase every ring edge: all rows dirty, way past the threshold.
  Digraph heavier(n);
  for (const Edge& e : g.edges())
    heavier.add_edge(e.from, e.to, e.weight + 1.0);
  Metrics metrics;
  inc.set_metrics(&metrics);
  ASSERT_TRUE(inc.update(heavier));
  EXPECT_FALSE(inc.last_step().incremental);
  EXPECT_EQ(metrics.counter("apsp.dirty_fallbacks"), 1u);
  expect_matrices_match(inc.distances(), *johnson(heavier));
}

TEST(IncrementalApsp, MetricsCountersTrackUpdateKinds) {
  Metrics metrics;
  IncrementalApsp inc(IncrementalApspOptions{}, &metrics);
  Digraph g = diamond();
  ASSERT_TRUE(inc.update(g));              // rebuild
  g.set_weight(2, 0.25);                   // decrease -> incremental
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(metrics.counter("apsp.full_rebuilds"), 1u);
  EXPECT_EQ(metrics.counter("apsp.incremental_updates"), 1u);
}

using Path = IncrementalApsp::StepStats::Path;

/// Counter-accounting audit: exactly one Path per call, pinned per
/// perturbation type, with the counters ticking in lockstep.  This is the
/// regression net for the "from_scratch_runs: 50 / incremental_hit_rate: 0"
/// question in BENCH_pipeline.json's from-scratch arms: those arms never
/// call update() at all (they run global_shift_estimates, which ticks
/// "apsp.from_scratch_runs"), so an IncrementalApsp driven through update()
/// must never tick that counter — asserted below.
TEST(IncrementalApspPath, EveryBranchReportsItsPath) {
  Metrics metrics;
  IncrementalApsp inc(IncrementalApspOptions{}, &metrics);
  EXPECT_EQ(inc.last_step().path, Path::kNone);

  // Cold start.
  Digraph g = diamond();
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.last_step().path, Path::kColdBuild);
  EXPECT_EQ(metrics.counter("apsp.full_rebuilds"), 1u);

  // Identical graph: empty delta.
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.last_step().path, Path::kNoChange);
  EXPECT_EQ(metrics.counter("apsp.incremental_updates"), 1u);

  // Single decrease: in-place delta.
  g.set_weight(2, 0.25);
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.last_step().path, Path::kIncremental);
  EXPECT_EQ(metrics.counter("apsp.incremental_updates"), 2u);

  // Node count change.
  Digraph bigger(5);
  bigger.add_edge(0, 4, 1.0);
  ASSERT_TRUE(inc.update(bigger));
  EXPECT_EQ(inc.last_step().path, Path::kResizeBuild);
  EXPECT_EQ(metrics.counter("apsp.full_rebuilds"), 2u);

  // Direct rebuild.
  ASSERT_TRUE(inc.rebuild(bigger));
  EXPECT_EQ(inc.last_step().path, Path::kExplicitRebuild);
  EXPECT_EQ(metrics.counter("apsp.full_rebuilds"), 3u);

  // Driving the delta path never ticks the from-scratch pipeline counter:
  // that one belongs to global_shift_estimates (see BENCH_pipeline.json).
  EXPECT_EQ(metrics.counter("apsp.from_scratch_runs"), 0u);
}

TEST(IncrementalApspPath, DirtyFallbackReportsItsPathAndBothCounters) {
  Metrics metrics;
  Rng rng(17);
  const std::size_t n = 12;
  Digraph g(n);
  for (NodeId v = 0; v < n; ++v)
    g.add_edge(v, static_cast<NodeId>((v + 1) % n), rng.uniform(0.1, 1.0));
  IncrementalApsp inc(IncrementalApspOptions{/*max_dirty_fraction=*/0.25},
                      &metrics);
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.last_step().path, Path::kColdBuild);

  Digraph heavier(n);
  for (const Edge& e : g.edges())
    heavier.add_edge(e.from, e.to, e.weight + 1.0);
  ASSERT_TRUE(inc.update(heavier));
  EXPECT_EQ(inc.last_step().path, Path::kDirtyFallback);
  EXPECT_EQ(metrics.counter("apsp.dirty_fallbacks"), 1u);
  EXPECT_EQ(metrics.counter("apsp.full_rebuilds"), 2u);  // cold + fallback
  EXPECT_EQ(metrics.counter("apsp.incremental_updates"), 0u);
}

TEST(IncrementalApspPath, IncreaseWithinThresholdStaysIncremental) {
  IncrementalApsp inc(IncrementalApspOptions{/*max_dirty_fraction=*/1.0});
  Digraph g = diamond();
  ASSERT_TRUE(inc.update(g));
  g.set_weight(0, 9.0);
  ASSERT_TRUE(inc.update(g));
  EXPECT_EQ(inc.last_step().path, Path::kIncremental);
  EXPECT_GT(inc.last_step().dirty_rows, 0u);
}

/// Oracle for the weight-decrease sweep: Phase B as it was written before
/// the vectorised rewrite — one scalar pass per decreased edge, row d.to
/// included, +inf heads and tails skipped by branch, conditional stores.
/// Decreases are taken in update()'s order: the iteration order of the
/// condensed edge map, which is rebuilt here exactly as update() builds it
/// (reserve, then try_emplace in edge order keeping the minimum).  Returns
/// false where update() must report a negative cycle.
bool scalar_decrease_oracle(DistanceMatrix& dist, const Digraph& before,
                            const Digraph& after) {
  using EdgeMap = std::unordered_map<std::uint64_t, double>;
  const auto condense = [](const Digraph& g) {
    EdgeMap m;
    m.reserve(g.edge_count());
    for (const Edge& e : g.edges()) {
      const std::uint64_t key = (std::uint64_t{e.from} << 32) | e.to;
      auto [it, inserted] = m.try_emplace(key, e.weight);
      if (!inserted) it->second = std::min(it->second, e.weight);
    }
    return m;
  };
  const EdgeMap old_w = condense(before);
  const EdgeMap next = condense(after);
  const std::size_t n = dist.size();
  for (const auto& [key, w_new] : next) {
    const auto it = old_w.find(key);
    if (it != old_w.end() && !(w_new < it->second)) continue;
    const auto from = static_cast<std::size_t>(key >> 32);
    const auto to = static_cast<std::size_t>(key & 0xffffffffu);
    const double back = dist.at(to, from);
    if (back != kInfDist && w_new + back < 0.0) return false;
    for (std::size_t i = 0; i < n; ++i) {
      const double head = dist.at(i, from);
      if (head == kInfDist) continue;
      const double via = head + w_new;
      for (std::size_t j = 0; j < n; ++j) {
        const double tail = dist.at(to, j);
        if (tail == kInfDist) continue;
        if (via + tail < dist.at(i, j)) dist.at(i, j) = via + tail;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    if (dist.at(i, i) < 0.0) return false;
  return true;
}

/// The vectorised decrease sweep is bit-identical to the scalar loop it
/// replaced, entry by entry (std::bit_cast, so ±0.0 and every last bit
/// count), on graphs with unreachable pairs, negative and ±0.0 weights,
/// odd and even n, hundreds of decreases (new edges included) per step,
/// and steps that close a negative cycle.
TEST(IncrementalApsp, DecreaseSweepBitEqualToScalarOracle) {
  std::size_t compared_steps = 0, negative_cycle_steps = 0;
  std::size_t max_decreases = 0;
  for (std::uint64_t seed = 0; seed < 36; ++seed) {
    Rng rng(0xdec0 + seed);
    static constexpr std::size_t kSizes[] = {1, 2, 3, 7, 16, 33, 64, 97};
    const std::size_t n = kSizes[seed % std::size(kSizes)];
    // Even seeds: small-integer weights, so many candidate paths tie exactly
    // and the strict `<` decides; odd seeds: arbitrary doubles.
    const bool ties = seed % 2 == 0;
    const auto draw = [&](double lo, double hi) {
      return ties ? std::floor(rng.uniform(lo, hi)) : rng.uniform(lo, hi);
    };
    // Feasible potentials keep every cycle non-negative while single edges
    // go negative: w(a,b) = slack + p(b) - p(a) with slack >= 0.
    std::vector<double> p(n);
    for (double& x : p) x = draw(-3.0, 3.0);
    // The last node receives no edge from the others and node 0 sends none
    // (for n > 2): +inf columns and rows survive every step.
    const auto allowed = [&](std::size_t a, std::size_t b) {
      return n <= 2 || (a != 0 && b != n - 1);
    };
    const auto weight = [&](std::size_t a, std::size_t b, double slack) {
      const double w = slack + p[b] - p[a];
      return (w == 0.0 && rng.uniform_int(2) == 0) ? -0.0 : w;
    };
    Digraph g(n);
    for (std::size_t e = 0; e < 3 * n; ++e) {
      const std::size_t a = rng.uniform_int(n), b = rng.uniform_int(n);
      if (allowed(a, b))
        g.add_edge(static_cast<NodeId>(a), static_cast<NodeId>(b),
                   weight(a, b, draw(0.0, 4.0)));
    }
    IncrementalApsp inc(IncrementalApspOptions{/*max_dirty_fraction=*/1.0});
    ASSERT_TRUE(inc.update(g));

    for (int step = 0; step < 4; ++step) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " n " << n
                                      << " step " << step);
      Digraph next = g;
      // Tighten most edges (never loosen: decreases only, so Phase A stays
      // idle and the oracle sees exactly update()'s starting matrix) ...
      for (EdgeId e = 0; e < next.edge_count(); ++e)
        if (rng.uniform_int(4) != 0) {
          const Edge& edge = next.edge(e);
          const double tighter = edge.weight - draw(0.0, 2.0) - 0.5;
          next.set_weight(e, std::max(tighter, p[edge.to] - p[edge.from]));
        }
      // ... add fresh edges (decreases from +inf), parallel ones included ...
      for (std::size_t e = 0; e < 2 * n; ++e) {
        const std::size_t a = rng.uniform_int(n), b = rng.uniform_int(n);
        if (allowed(a, b))
          next.add_edge(static_cast<NodeId>(a), static_cast<NodeId>(b),
                        weight(a, b, draw(0.0, 2.0)));
      }
      // ... and on the last step of every third seed, one edge far below
      // its potential bound, which closes a negative cycle if it lies on
      // any cycle at all.
      if (step == 3 && seed % 3 == 0 && next.edge_count() > 0) {
        const auto e =
            static_cast<EdgeId>(rng.uniform_int(next.edge_count()));
        const Edge& edge = next.edge(e);
        next.set_weight(e, p[edge.to] - p[edge.from] - 5.0);
      }

      DistanceMatrix oracle = inc.distances();
      const bool want = scalar_decrease_oracle(oracle, g, next);
      const bool got = inc.update(next);
      ASSERT_EQ(got, want);
      EXPECT_EQ(inc.last_step().increased_edges, 0u);
      max_decreases = std::max(max_decreases, inc.last_step().decreased_edges);
      if (!got) {
        ++negative_cycle_steps;
        break;
      }
      ASSERT_TRUE(inc.last_step().incremental);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(inc.distances().at(i, j)),
                    std::bit_cast<std::uint64_t>(oracle.at(i, j)))
              << "(" << i << "," << j << ") " << inc.distances().at(i, j)
              << " vs " << oracle.at(i, j);
      ++compared_steps;
      g = std::move(next);
    }
  }
  EXPECT_GT(compared_steps, 100u);
  EXPECT_GT(negative_cycle_steps, 3u);
  EXPECT_GT(max_decreases, 300u);
}

/// Randomized equivalence sweep: random sparse digraphs under random
/// single-edge perturbations (reweight both ways, remove, insert) must track
/// the from-scratch closure exactly.
TEST(IncrementalApspProperty, RandomPerturbationSequencesMatchJohnson) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(1000 + seed);
    const std::size_t n = 4 + rng.uniform_int(12);
    // Base: a ring (guaranteed cycle) plus random chords.
    std::vector<Edge> edges;
    for (NodeId v = 0; v < n; ++v)
      edges.push_back(
          {v, static_cast<NodeId>((v + 1) % n), rng.uniform(0.1, 1.0)});
    const std::size_t chords = rng.uniform_int(2 * n);
    for (std::size_t c = 0; c < chords; ++c) {
      const NodeId a = static_cast<NodeId>(rng.uniform_int(n));
      const NodeId b = static_cast<NodeId>(rng.uniform_int(n));
      if (a != b) edges.push_back({a, b, rng.uniform(0.1, 1.0)});
    }

    auto build = [&] {
      Digraph g(n);
      for (const Edge& e : edges) g.add_edge(e.from, e.to, e.weight);
      return g;
    };

    // Odd seeds force the restricted recompute path even for huge deltas;
    // even seeds exercise the default fallback policy.
    IncrementalApsp inc(
        IncrementalApspOptions{seed % 2 == 1 ? 1.0 : 0.25});
    ASSERT_TRUE(inc.update(build()));

    for (int epoch = 0; epoch < 12; ++epoch) {
      switch (rng.uniform_int(4)) {
        case 0: {  // tighten one edge (the realistic epoch delta)
          Edge& e = edges[rng.uniform_int(edges.size())];
          e.weight *= rng.uniform(0.3, 1.0);
          break;
        }
        case 1: {  // loosen one edge
          Edge& e = edges[rng.uniform_int(edges.size())];
          e.weight *= rng.uniform(1.0, 3.0);
          break;
        }
        case 2: {  // flip a link to unbounded (remove)
          if (edges.size() > 1)
            edges.erase(edges.begin() +
                        static_cast<std::ptrdiff_t>(
                            rng.uniform_int(edges.size())));
          break;
        }
        default: {  // new finite link
          const NodeId a = static_cast<NodeId>(rng.uniform_int(n));
          const NodeId b = static_cast<NodeId>(rng.uniform_int(n));
          if (a != b) edges.push_back({a, b, rng.uniform(0.1, 1.0)});
          break;
        }
      }
      const Digraph g = build();
      ASSERT_TRUE(inc.update(g)) << "seed " << seed << " epoch " << epoch;
      const auto oracle = johnson(g);
      ASSERT_TRUE(oracle.has_value());
      expect_matrices_match(inc.distances(), *oracle, 1e-11);
    }
  }
}

}  // namespace
}  // namespace cs
