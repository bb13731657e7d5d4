// Dijkstra single-source shortest paths (non-negative weights).  Building
// block of Johnson's APSP; also used directly on reweighted graphs.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "graph/bellman_ford.hpp"
#include "graph/digraph.hpp"

namespace cs {

/// Precondition: all edge weights >= 0 (asserted in debug builds).
ShortestPaths dijkstra(const Digraph& g, NodeId source);

/// Non-owning flat adjacency: row_ptr has n+1 entries; arc k of node v is
/// head[row_ptr[v] + k] with weight weight[row_ptr[v] + k].  The closure
/// kernels (johnson_into, IncrementalApsp) build one per epoch over
/// reweighted arrays in their EpochArena.
struct CsrView {
  std::span<const std::uint32_t> row_ptr;
  std::span<const NodeId> head;
  std::span<const double> weight;

  std::size_t node_count() const {
    return row_ptr.empty() ? 0 : row_ptr.size() - 1;
  }
  std::size_t arc_count() const { return head.size(); }
};

/// Dijkstra distances (non-negative weights) into `dist` (size n, filled
/// with kInfDist/0).  `heap` is reusable scratch.  Exactly equal to
/// dijkstra()'s distances: each settled value is the exact float min over
/// its candidate predecessor sums, independent of tie order.
void dijkstra_csr(const CsrView& g, NodeId source, std::span<double> dist,
                  std::vector<std::pair<double, NodeId>>& heap);

}  // namespace cs
