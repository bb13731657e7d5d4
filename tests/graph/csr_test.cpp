// dijkstra_csr — the Dijkstra kernel the closure paths (johnson_into,
// IncrementalApsp) run over flat reweighted arrays — must agree EXACTLY,
// not to tolerance, with the pointer-based dijkstra() on every golden model
// topology and a sweep of random ER/BA instances.  Exact equality is what
// lets the flat hot path sit underneath the golden-trace replay tests
// without re-pinning them.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/arena.hpp"
#include "graph/dijkstra.hpp"
#include "graph/johnson.hpp"
#include "io/views_io.hpp"

#ifndef CS_TEST_DATA_DIR
#error "CS_TEST_DATA_DIR must point at tests/data"
#endif

namespace cs {
namespace {

constexpr const char* kGoldenModels[] = {
    "ring_5", "line_4",      "grid_3x3",    "torus_3x3", "toroid_3x3x3",
    "hypercube_3", "er_8_03", "ba_8_2",      "dc_2_2_2",
};

SystemModel load_golden(const std::string& name) {
  const std::string path =
      std::string(CS_TEST_DATA_DIR) + "/lab/" + name + ".model";
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  return load_model(is);
}

/// Directed graph over a golden topology with deterministic weights drawn
/// from [0, 1] (Dijkstra-safe).
Digraph weighted_from_topology(const Topology& topo, Rng& rng) {
  Digraph g(topo.node_count);
  const auto draw = [&] { return rng.uniform(0.0, 1.0); };
  for (auto [a, b] : topo.links) {
    g.add_edge(a, b, draw());
    g.add_edge(b, a, draw());
  }
  return g;
}

Digraph random_er(Rng& rng, std::size_t n, double p) {
  Digraph g(n);
  const auto draw = [&] { return rng.uniform(0.0, 1.0); };
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = 0; v < n; ++v)
      if (u != v && rng.uniform01() < p) g.add_edge(u, v, draw());
  return g;
}

Digraph random_ba(Rng& rng, std::size_t n) {
  Digraph g(n);
  const auto draw = [&] { return rng.uniform(0.0, 1.0); };
  for (NodeId v = 1; v < n; ++v) {
    const std::size_t attach = v < 2 ? 1 : 2;
    for (std::size_t k = 0; k < attach; ++k) {
      const NodeId u = static_cast<NodeId>(rng.uniform_int(v));
      g.add_edge(u, v, draw());
      g.add_edge(v, u, draw());
    }
  }
  return g;
}

/// Flat CSR arrays over `g`'s adjacency, rows in Digraph insertion order.
struct CsrArrays {
  explicit CsrArrays(const Digraph& g) {
    row_ptr.push_back(0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      for (EdgeId id : g.out_edges(v)) {
        head.push_back(g.edge(id).to);
        weight.push_back(g.edge(id).weight);
      }
      row_ptr.push_back(static_cast<std::uint32_t>(head.size()));
    }
  }
  CsrView view() const { return {row_ptr, head, weight}; }

  std::vector<std::uint32_t> row_ptr;
  std::vector<NodeId> head;
  std::vector<double> weight;
};

/// Dijkstra agreement for one non-negative graph.
void expect_dijkstra_matches(const Digraph& g, const std::string& what) {
  const CsrArrays csr(g);
  const CsrView view = csr.view();
  ASSERT_EQ(view.node_count(), g.node_count()) << what;
  ASSERT_EQ(view.arc_count(), g.edge_count()) << what;
  const std::size_t n = g.node_count();
  std::vector<double> dist(n);
  std::vector<std::pair<double, NodeId>> heap;
  for (NodeId s = 0; s < n; ++s) {
    const ShortestPaths ref = dijkstra(g, s);
    dijkstra_csr(view, s, dist, heap);
    EXPECT_EQ(ref.dist, dist) << what << " source " << s;
  }
}

TEST(CsrEquivalence, GoldenModelTopologies) {
  Rng rng(20260808);
  for (const char* name : kGoldenModels) {
    const SystemModel model = load_golden(name);
    expect_dijkstra_matches(
        weighted_from_topology(model.topology(), rng), name);
  }
}

TEST(CsrEquivalence, RandomErdosRenyiInstances) {
  Rng rng(7);
  for (int t = 0; t < 50; ++t) {
    const std::size_t n = 3 + rng.uniform_int(22);
    const double p = 0.08 + 0.4 * rng.uniform01();
    const std::string what = "er#" + std::to_string(t);
    expect_dijkstra_matches(random_er(rng, n, p), what);
  }
}

TEST(CsrEquivalence, RandomPreferentialAttachmentInstances) {
  Rng rng(11);
  for (int t = 0; t < 50; ++t) {
    const std::size_t n = 3 + rng.uniform_int(30);
    const std::string what = "ba#" + std::to_string(t);
    expect_dijkstra_matches(random_ba(rng, n), what);
  }
}

TEST(CsrEquivalence, EmptyAndSingletonGraphs) {
  expect_dijkstra_matches(Digraph(0), "empty");
  expect_dijkstra_matches(Digraph(1), "singleton");
  Digraph self_loop(1);
  self_loop.add_edge(0, 0, 0.5);
  expect_dijkstra_matches(self_loop, "self-loop");
}

TEST(EpochArenaTest, ResetRetainsCapacityAcrossEpochs) {
  Rng rng(3);
  const Digraph g = random_er(rng, 24, 0.3);
  EpochArena arena;

  DistanceMatrix first;
  ASSERT_TRUE(johnson_into(g, first, arena));
  const std::size_t reserved = arena.bytes_reserved();
  EXPECT_GT(reserved, 0u);
  for (int epoch = 0; epoch < 10; ++epoch) {
    arena.reset();
    DistanceMatrix again;
    ASSERT_TRUE(johnson_into(g, again, arena));
    for (std::size_t i = 0; i < g.node_count(); ++i)
      for (std::size_t j = 0; j < g.node_count(); ++j)
        EXPECT_EQ(again.at(i, j), first.at(i, j));
    // Same allocation pattern after reset() => no new chunks, ever.
    EXPECT_EQ(arena.bytes_reserved(), reserved);
  }
}

TEST(EpochArenaTest, AllocFillAndAlignment) {
  EpochArena arena;
  const std::span<double> a = arena.alloc_fill<double>(7, 1.5);
  const std::span<std::uint32_t> b = arena.alloc_fill<std::uint32_t>(3, 9);
  const std::span<double> c = arena.alloc<double>(1000000);  // forces growth
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % alignof(double), 0u);
  for (double x : a) EXPECT_EQ(x, 1.5);
  for (std::uint32_t x : b) EXPECT_EQ(x, 9u);
  // Earlier allocations stay intact after growth into a new chunk.
  EXPECT_EQ(a[0], 1.5);
  EXPECT_EQ(b[2], 9u);
}

}  // namespace
}  // namespace cs
