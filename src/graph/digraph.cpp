#include "graph/digraph.hpp"

#include <cassert>
#include <cmath>

namespace cs {

Digraph::Digraph(std::size_t node_count) : nodes_(node_count) {}

NodeId Digraph::add_node() {
  index_valid_ = false;
  return static_cast<NodeId>(nodes_++);
}

EdgeId Digraph::add_edge(NodeId from, NodeId to, double weight) {
  assert(from < node_count() && to < node_count());
  assert(std::isfinite(weight));
  edges_.push_back(Edge{from, to, weight});
  index_valid_ = false;
  return static_cast<EdgeId>(edges_.size() - 1);
}

void Digraph::build_index() const {
  // Stable counting sort by source: ascending edge id within each node is
  // exactly insertion order, the order the per-node vectors used to hold.
  out_ptr_.assign(nodes_ + 1, 0);
  for (const Edge& e : edges_) ++out_ptr_[e.from + 1];
  for (std::size_t v = 0; v < nodes_; ++v) out_ptr_[v + 1] += out_ptr_[v];
  out_ids_.resize(edges_.size());
  std::vector<std::uint32_t> cursor(out_ptr_.begin(), out_ptr_.end() - 1);
  for (EdgeId id = 0; id < edges_.size(); ++id)
    out_ids_[cursor[edges_[id].from]++] = id;
  index_valid_ = true;
}

}  // namespace cs
