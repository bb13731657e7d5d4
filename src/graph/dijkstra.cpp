#include "graph/dijkstra.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

namespace cs {

ShortestPaths dijkstra(const Digraph& g, NodeId source) {
  assert(source < g.node_count());
  const std::size_t n = g.node_count();
  ShortestPaths sp;
  sp.dist.assign(n, kInfDist);
  sp.pred.assign(n, std::nullopt);
  sp.dist[source] = 0.0;

  using Item = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0.0, source);

  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > sp.dist[v]) continue;  // stale entry
    for (EdgeId id : g.out_edges(v)) {
      const Edge& e = g.edge(id);
      assert(e.weight >= 0.0);
      const double cand = d + e.weight;
      if (cand < sp.dist[e.to]) {
        sp.dist[e.to] = cand;
        sp.pred[e.to] = id;
        heap.emplace(cand, e.to);
      }
    }
  }
  return sp;
}

void dijkstra_csr(const CsrView& g, NodeId source, std::span<double> dist,
                  std::vector<std::pair<double, NodeId>>& heap) {
  assert(dist.size() == g.node_count());
  for (double& d : dist) d = kInfDist;
  dist[source] = 0.0;
  heap.clear();
  heap.emplace_back(0.0, source);

  // Lazy-deletion binary heap; min on (distance, node) like the
  // priority_queue the Digraph dijkstra uses.  Distances are tie-order
  // independent either way (exact min over settled predecessor sums).
  const auto cmp = [](const std::pair<double, NodeId>& a,
                      const std::pair<double, NodeId>& b) { return a > b; };
  while (!heap.empty()) {
    const auto [d, v] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), cmp);
    heap.pop_back();
    if (d > dist[v]) continue;  // stale entry
    for (std::uint32_t a = g.row_ptr[v]; a < g.row_ptr[v + 1]; ++a) {
      assert(g.weight[a] >= 0.0);
      const double cand = d + g.weight[a];
      const NodeId to = g.head[a];
      if (cand < dist[to]) {
        dist[to] = cand;
        heap.emplace_back(cand, to);
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
  }
}

}  // namespace cs
