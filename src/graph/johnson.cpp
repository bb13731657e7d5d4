#include "graph/johnson.hpp"

#include <vector>

#include "graph/arena.hpp"
#include "graph/dijkstra.hpp"

namespace cs {

bool johnson_into(const Digraph& g, DistanceMatrix& out, EpochArena& arena) {
  const std::size_t n = g.node_count();
  const std::size_t m = g.edge_count();
  const auto edges = g.edges();
  out.reset(n);
  if (n == 0) return true;

  // Potentials: Bellman–Ford from a super-source with zero-weight edges to
  // every node.  Its first sweep just sets every distance to 0, so start
  // from the all-zero vector and sweep the real edges in id order — the
  // same relaxation sequence the explicit augmented graph produced.
  std::span<double> h = arena.alloc_fill<double>(n, 0.0);
  const auto sweep = [&]() {
    bool changed = false;
    for (const Edge& e : edges) {
      const double cand = h[e.from] + e.weight;
      if (cand < h[e.to]) {
        h[e.to] = cand;
        changed = true;
      }
    }
    return changed;
  };
  bool changed = true;
  for (std::size_t round = 0; round + 1 < n && changed; ++round)
    changed = sweep();
  if (changed && sweep()) return false;  // negative cycle

  // Reweighted CSR adjacency: w'(u,v) = w(u,v) + h(u) - h(v) >= 0.
  std::span<std::uint32_t> row_ptr = arena.alloc_fill<std::uint32_t>(n + 1, 0);
  std::span<NodeId> head = arena.alloc<NodeId>(m);
  std::span<double> rw = arena.alloc<double>(m);
  for (const Edge& e : edges) ++row_ptr[e.from + 1];
  for (std::size_t v = 0; v < n; ++v) row_ptr[v + 1] += row_ptr[v];
  {
    std::span<std::uint32_t> cursor = arena.alloc<std::uint32_t>(n);
    for (std::size_t v = 0; v < n; ++v) cursor[v] = row_ptr[v];
    for (const Edge& e : edges) {
      double w = e.weight + h[e.from] - h[e.to];
      // Clamp tiny negative float residue so Dijkstra's precondition holds.
      if (w < 0.0 && w > -1e-9) w = 0.0;
      const std::uint32_t at = cursor[e.from]++;
      head[at] = e.to;
      rw[at] = w;
    }
  }
  const CsrView view{row_ptr, head, rw};

  std::span<double> dist = arena.alloc<double>(n);
  std::vector<std::pair<double, NodeId>> heap;
  heap.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    dijkstra_csr(view, u, dist, heap);
    for (NodeId v = 0; v < n; ++v) {
      if (dist[v] == kInfDist) {
        out.at(u, v) = (u == v) ? 0.0 : kInfDist;
      } else {
        out.at(u, v) = dist[v] - h[u] + h[v];
      }
    }
  }
  return true;
}

std::optional<DistanceMatrix> johnson(const Digraph& g) {
  DistanceMatrix m;
  EpochArena arena;
  if (!johnson_into(g, m, arena)) return std::nullopt;
  return m;
}

}  // namespace cs
