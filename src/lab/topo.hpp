// Procedural topology families for experiment campaigns.
//
// graph/topology.hpp covers the hand-picked shapes the original experiment
// binaries sweep; campaigns need *parameterized families* that scale along
// named axes.  This header adds the structured families named by the
// related work — odd-ary m-toroids (Frank & Welch, arXiv:1807.05139),
// hypercubes, preferential-attachment and Erdős–Rényi random graphs, and
// hierarchical clustered ("datacenter") fabrics — plus a small spec grammar
// (`parse_topo_spec`) so campaign files and the cs_lab CLI can name any
// instance as a single token string like "toroid 5x5x5" or "ba 64 2".
//
// Determinism contract: deterministic families ignore the Rng entirely;
// random families (er, ba, tree, wan) consume *only* the Rng handed in, so
// an instance is a pure function of (spec, seed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/topology.hpp"

namespace cs::lab {

/// m-dimensional torus with side lengths `dims` (node count = product).
/// Each node links to its +1 neighbor modulo the side length in every
/// dimension; a dimension of side 1 contributes no links, side 2 contributes
/// a single (deduplicated) link per pair.  All sides odd >= 3 makes it the
/// odd-ary m-toroid of Frank & Welch.
Topology make_toroid(std::span<const std::size_t> dims);

/// 2-D convenience wrapper: a width x height torus.
Topology make_torus(std::size_t width, std::size_t height);

/// dim-dimensional hypercube: 2^dim nodes, links between ids differing in
/// exactly one bit.  dim 0 is a single node.
Topology make_hypercube(std::size_t dim);

/// Barabási–Albert preferential attachment: a complete core of
/// min(m + 1, n) nodes, then each new node attaches to `m` distinct
/// existing nodes chosen proportionally to degree.  Requires m >= 1.
Topology make_barabasi_albert(std::size_t n, std::size_t m, Rng& rng);

/// G(n, p) conditioned on connectivity (alias of make_connected_gnp, named
/// for campaign specs).
Topology make_erdos_renyi(std::size_t n, double p, Rng& rng);

/// Hierarchical clustered ("datacenter") fabric: `spines` spine nodes,
/// `racks` top-of-rack nodes each linked to every spine, and `hosts` leaf
/// nodes per rack each linked to its ToR.  Node order: spines, ToRs, hosts
/// (rack-major).  Requires spines >= 1, racks >= 1, hosts >= 0.
Topology make_datacenter(std::size_t spines, std::size_t racks,
                         std::size_t hosts);

// ---- Spec grammar --------------------------------------------------------

/// A parsed one-line topology description.  Grammar (family first, then
/// positional parameters):
///
///   line N | ring N | star N | complete N | circulant N | tree N | wan N
///       (circulant: ring of N nodes with stride-{1,2,3} chords — the
///        6-connected shape the quorum estimator's path diversity needs)
///   grid WxH            2-D open grid
///   torus WxH           2-D torus
///   toroid K1xK2x...    m-dimensional torus
///   hypercube D         2^D nodes
///   er N P              Erdős–Rényi G(N, P) conditioned on connectivity
///   ba N M              Barabási–Albert, M attachments per node
///   dc S R H            datacenter: S spines, R racks, H hosts per rack
///
/// `describe()` round-trips back to the canonical spec string.
struct TopoSpec {
  std::string family;
  std::vector<std::size_t> dims;  ///< sizes: N, WxH, K1x...; D; S R H; N M
  double p{0.0};                  ///< er only

  /// Canonical spec string ("toroid 3x3x3").
  std::string describe() const;

  /// Node count of the instance this spec generates (identical across
  /// seeds — all families have deterministic node counts).
  std::size_t node_count() const;

  /// True iff the generated link set depends on the Rng.
  bool randomized() const;

  /// True iff this is an odd-ary m-toroid (family "toroid"/"torus"/"ring"
  /// with every side odd and >= 3).
  bool odd_ary_toroid() const;
};

/// Parses "family params..." (see TopoSpec).  Throws cs::Error naming the
/// offending token on malformed input.
TopoSpec parse_topo_spec(const std::string& text);

/// Instantiates a spec.  Random families draw only from `rng`.
Topology make_topology(const TopoSpec& spec, Rng& rng);

/// All family names understood by parse_topo_spec, for help text and tests.
std::vector<std::string> topo_families();

/// Whole-token number parsers shared by the lab grammars; nullopt unless
/// the entire token parses.  A count is digits only (std::stoull would
/// wrap "-3" to ~2^64); a real must be finite (nan and inf slip past
/// every range check, comparisons with NaN being false).
std::optional<std::uint64_t> parse_count(const std::string& token);
std::optional<double> parse_finite(const std::string& token);

}  // namespace cs::lab
