// Structural invariants of the procedural topology generators: node and
// edge counts, connectivity, degree regularity on tori, and distribution
// sanity on the randomized families.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "lab/topo.hpp"

namespace cs::lab {
namespace {

std::vector<std::size_t> degrees(const Topology& t) {
  std::vector<std::size_t> deg(t.node_count, 0);
  for (const auto& [a, b] : t.links) {
    ++deg.at(a);
    ++deg.at(b);
  }
  return deg;
}

bool no_duplicate_links(const Topology& t) {
  auto sorted = t.links;
  for (auto& [a, b] : sorted)
    if (a > b) std::swap(a, b);
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

TEST(Toroid, OddAryMToroidIsRegularDegree2m) {
  // k_i >= 3 everywhere: every node has exactly two neighbors per
  // dimension, so |E| = m * n.
  const std::size_t dims[] = {3, 5, 7};
  const Topology t = make_toroid(dims);
  EXPECT_EQ(t.node_count, 105u);
  EXPECT_EQ(t.link_count(), 3u * 105u);
  EXPECT_TRUE(t.connected());
  EXPECT_TRUE(no_duplicate_links(t));
  for (const std::size_t d : degrees(t)) EXPECT_EQ(d, 6u);
}

TEST(Toroid, SideOfTwoCollapsesWraparound) {
  // k = 2: the +1 and -1 neighbors coincide, so the dimension contributes
  // one link per node pair, not two.
  const std::size_t dims[] = {2, 2};
  const Topology t = make_toroid(dims);
  EXPECT_EQ(t.node_count, 4u);
  EXPECT_EQ(t.link_count(), 4u);  // a 4-cycle, not a multigraph
  EXPECT_TRUE(t.connected());
  for (const std::size_t d : degrees(t)) EXPECT_EQ(d, 2u);
}

TEST(Toroid, SideOfOneIsDegenerate) {
  // k = 1 dimensions add no links; toroid 1x5 is a 5-ring.
  const std::size_t dims[] = {1, 5};
  const Topology t = make_toroid(dims);
  EXPECT_EQ(t.node_count, 5u);
  EXPECT_EQ(t.link_count(), 5u);
  EXPECT_TRUE(t.connected());
  for (const std::size_t d : degrees(t)) EXPECT_EQ(d, 2u);
}

TEST(Toroid, TorusMatchesTwoDimensionalToroid) {
  const Topology torus = make_torus(3, 5);
  const std::size_t dims[] = {3, 5};
  const Topology toroid = make_toroid(dims);
  EXPECT_EQ(torus.node_count, toroid.node_count);
  EXPECT_EQ(torus.links, toroid.links);
  EXPECT_EQ(torus.link_count(), 2u * 15u);
}

TEST(Hypercube, DimensionDRegularWithD2PowDm1Edges) {
  const Topology t = make_hypercube(4);
  EXPECT_EQ(t.node_count, 16u);
  EXPECT_EQ(t.link_count(), 4u * 8u);  // d * 2^(d-1)
  EXPECT_TRUE(t.connected());
  EXPECT_TRUE(no_duplicate_links(t));
  for (const std::size_t d : degrees(t)) EXPECT_EQ(d, 4u);
}

TEST(Hypercube, DimensionZeroIsASingleNode) {
  const Topology t = make_hypercube(0);
  EXPECT_EQ(t.node_count, 1u);
  EXPECT_EQ(t.link_count(), 0u);
}

TEST(ErdosRenyi, ConnectedWithExactNodeCount) {
  Rng rng(7);
  const Topology t = make_erdos_renyi(24, 0.15, rng);
  EXPECT_EQ(t.node_count, 24u);
  EXPECT_TRUE(t.connected());
  EXPECT_TRUE(no_duplicate_links(t));
  EXPECT_GE(t.link_count(), 23u);  // at least a spanning tree
}

TEST(ErdosRenyi, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  EXPECT_EQ(make_erdos_renyi(20, 0.2, a).links,
            make_erdos_renyi(20, 0.2, b).links);
}

TEST(BarabasiAlbert, EdgeCountAndMinimumDegree) {
  Rng rng(5);
  const std::size_t n = 60, m = 2;
  const Topology t = make_barabasi_albert(n, m, rng);
  EXPECT_EQ(t.node_count, n);
  // Complete core of m+1 nodes, then m links per arrival.
  EXPECT_EQ(t.link_count(), m * (m + 1) / 2 + (n - (m + 1)) * m);
  EXPECT_TRUE(t.connected());
  EXPECT_TRUE(no_duplicate_links(t));
  for (const std::size_t d : degrees(t)) EXPECT_GE(d, m);
}

TEST(BarabasiAlbert, PreferentialAttachmentGrowsAHeavyTail) {
  // Power-law sanity: the hubs of a BA graph vastly out-degree the median
  // node — far beyond anything a same-size ER graph produces.
  Rng rng(11);
  const Topology t = make_barabasi_albert(200, 2, rng);
  std::vector<std::size_t> deg = degrees(t);
  std::sort(deg.begin(), deg.end());
  const std::size_t median = deg[deg.size() / 2];
  const std::size_t max = deg.back();
  EXPECT_LE(median, 3u);       // most nodes keep roughly their m links
  EXPECT_GE(max, 4u * median); // hubs dominate
}

TEST(Circulant, StrideChordsMakeASixRegularRing) {
  // The lab's circulant family is the ring plus stride-2 and stride-3
  // chords; for n > 6 no stride wraps onto another, so the graph is
  // 6-regular with exactly 3n links (the byz presets' 9-node instance).
  Rng rng(1);
  const Topology t = make_topology(parse_topo_spec("circulant 9"), rng);
  EXPECT_EQ(t.node_count, 9u);
  EXPECT_EQ(t.links.size(), 27u);
  EXPECT_TRUE(no_duplicate_links(t));
  for (std::size_t d : degrees(t)) EXPECT_EQ(d, 6u);
}

TEST(Datacenter, SpineTorHostFabric) {
  const Topology t = make_datacenter(2, 3, 4);
  EXPECT_EQ(t.node_count, 2u + 3u + 12u);
  EXPECT_EQ(t.link_count(), 2u * 3u + 12u);  // bipartite core + host uplinks
  EXPECT_TRUE(t.connected());
  EXPECT_TRUE(no_duplicate_links(t));
  const std::vector<std::size_t> deg = degrees(t);
  for (std::size_t s = 0; s < 2; ++s) EXPECT_EQ(deg[s], 3u);      // spines
  for (std::size_t r = 0; r < 3; ++r) EXPECT_EQ(deg[2 + r], 6u);  // ToRs
  for (std::size_t h = 0; h < 12; ++h) EXPECT_EQ(deg[5 + h], 1u); // hosts
}

TEST(TopoSpec, ParseDescribeRoundTrip) {
  for (const char* text :
       {"ring 6", "line 4", "grid 3x4", "torus 3x5", "toroid 3x5x7",
        "hypercube 3", "er 10 0.2", "ba 12 2", "dc 2 3 4"}) {
    const TopoSpec spec = parse_topo_spec(text);
    EXPECT_EQ(spec.describe(), text);
    Rng rng(1);
    EXPECT_EQ(make_topology(spec, rng).node_count, spec.node_count());
  }
}

TEST(TopoSpec, OddAryToroidPredicate) {
  EXPECT_TRUE(parse_topo_spec("toroid 3x5x7").odd_ary_toroid());
  EXPECT_TRUE(parse_topo_spec("torus 5x5").odd_ary_toroid());
  EXPECT_TRUE(parse_topo_spec("ring 9").odd_ary_toroid());
  EXPECT_FALSE(parse_topo_spec("toroid 3x4").odd_ary_toroid());
  EXPECT_FALSE(parse_topo_spec("toroid 1x5").odd_ary_toroid());
  EXPECT_FALSE(parse_topo_spec("ring 6").odd_ary_toroid());
  EXPECT_FALSE(parse_topo_spec("hypercube 3").odd_ary_toroid());
}

TEST(TopoSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_topo_spec(""), Error);
  EXPECT_THROW(parse_topo_spec("blob 4"), Error);
  EXPECT_THROW(parse_topo_spec("ring"), Error);
  EXPECT_THROW(parse_topo_spec("ring six"), Error);
  EXPECT_THROW(parse_topo_spec("grid 3x4x5"), Error);
  EXPECT_THROW(parse_topo_spec("toroid 3y5"), Error);
  EXPECT_THROW(parse_topo_spec("er 10"), Error);
  EXPECT_THROW(parse_topo_spec("er 10 huh"), Error);
  EXPECT_THROW(parse_topo_spec("dc 2 3"), Error);
  // Negative counts must not wrap to ~2^64; probabilities must be finite
  // and the whole token.
  EXPECT_THROW(parse_topo_spec("ring -3"), Error);
  EXPECT_THROW(parse_topo_spec("toroid 3x-3"), Error);
  EXPECT_THROW(parse_topo_spec("dc 2 -1 3"), Error);
  EXPECT_THROW(parse_topo_spec("ring +3"), Error);
  EXPECT_THROW(parse_topo_spec("er 10 0.3abc"), Error);
  EXPECT_THROW(parse_topo_spec("er 10 nan"), Error);
  EXPECT_THROW(parse_topo_spec("er 10 inf"), Error);
}

TEST(TopoSpec, RejectsInvalidParameters) {
  Rng rng(1);
  EXPECT_THROW(make_topology(parse_topo_spec("er 10 1.5"), rng), Error);
  EXPECT_THROW(make_topology(parse_topo_spec("toroid 0x3"), rng), Error);
  EXPECT_THROW(make_topology(parse_topo_spec("ba 10 0"), rng), Error);
}

TEST(TopoSpec, FamilyListCoversTheGrammar) {
  Rng rng(3);
  for (const std::string& family : topo_families()) {
    std::string text = family + " 4";
    if (family == "grid" || family == "torus") text = family + " 2x2";
    if (family == "toroid") text = "toroid 3x3";
    if (family == "hypercube") text = "hypercube 2";
    if (family == "er") text = "er 6 0.5";
    if (family == "ba") text = "ba 6 2";
    if (family == "dc") text = "dc 2 2 2";
    const TopoSpec spec = parse_topo_spec(text);
    const Topology t = make_topology(spec, rng);
    EXPECT_EQ(t.node_count, spec.node_count()) << text;
    EXPECT_TRUE(t.connected()) << text;
  }
}

}  // namespace
}  // namespace cs::lab
