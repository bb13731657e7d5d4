#include "graph/incremental_apsp.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/dijkstra.hpp"
#include "graph/johnson.hpp"

namespace cs {
namespace {

inline std::uint64_t edge_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}
inline NodeId key_from(std::uint64_t k) {
  return static_cast<NodeId>(k >> 32);
}
inline NodeId key_to(std::uint64_t k) {
  return static_cast<NodeId>(k & 0xffffffffu);
}

/// Conservative tie tolerance for "was this edge on a shortest path":
/// marking a row dirty that was not is only wasted work, missing one is a
/// wrong answer, so lean on the side of dirtiness against float noise.
inline double tie_tol(double reference) {
  return 1e-9 * (1.0 + std::fabs(reference));
}

}  // namespace

IncrementalApsp::EdgeMap IncrementalApsp::condense(const Digraph& g) {
  EdgeMap m;
  m.reserve(g.edge_count());
  for (const Edge& e : g.edges()) {
    auto [it, inserted] = m.try_emplace(edge_key(e.from, e.to), e.weight);
    if (!inserted) it->second = std::min(it->second, e.weight);
  }
  return m;
}

void IncrementalApsp::refresh_potentials() {
  // h(v) = min_i D(i, v) is a valid Johnson potential for the current
  // graph: D(i,v) <= D(i,u) + w(u,v) for every edge (u,v) and source i, and
  // the minimum is finite because D(v,v) = 0.  Folded row-major so the scan
  // walks the matrix in storage order; per column the fold still meets
  // sources in ascending order, so the result is bit-identical to the
  // column-major version.
  potential_.assign(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t v = 0; v < n_; ++v)
      potential_[v] = std::min(potential_[v], dist_.at(i, v));
}

bool IncrementalApsp::rebuild(const Digraph& g) {
  metrics_increment(metrics_, "apsp.full_rebuilds");
  last_step_ = StepStats{};
  last_step_.path = StepStats::Path::kExplicitRebuild;
  valid_ = false;
  arena_.reset();
  if (!johnson_into(g, dist_, arena_)) return false;
  n_ = g.node_count();
  weights_ = condense(g);
  refresh_potentials();
  valid_ = true;
  return true;
}

bool IncrementalApsp::update(const Digraph& g) {
  if (!valid_ || g.node_count() != n_) {
    const StepStats::Path path = !valid_ ? StepStats::Path::kColdBuild
                                         : StepStats::Path::kResizeBuild;
    const bool ok = rebuild(g);
    last_step_.path = path;
    return ok;
  }

  EdgeMap next = condense(g);

  // Delta vs the accepted graph.  A vanished edge is an increase to +inf;
  // a fresh edge is a decrease from +inf.
  struct Delta {
    NodeId from, to;
    double old_w, new_w;
  };
  std::vector<Delta> increases, decreases;
  for (const auto& [key, w_new] : next) {
    const auto it = weights_.find(key);
    const double w_old = (it == weights_.end()) ? kInfDist : it->second;
    if (w_new < w_old)
      decreases.push_back({key_from(key), key_to(key), w_old, w_new});
    else if (w_new > w_old)
      increases.push_back({key_from(key), key_to(key), w_old, w_new});
  }
  for (const auto& [key, w_old] : weights_)
    if (!next.count(key))
      increases.push_back({key_from(key), key_to(key), w_old, kInfDist});

  last_step_ = StepStats{};
  last_step_.decreased_edges = decreases.size();
  last_step_.increased_edges = increases.size();

  if (increases.empty() && decreases.empty()) {
    last_step_.path = StepStats::Path::kNoChange;
    last_step_.incremental = true;
    metrics_increment(metrics_, "apsp.incremental_updates");
    return true;
  }

  // ---- Phase A: weight increases (restricted row recompute) ----
  // A row i is dirty iff some old shortest path out of i ran through an
  // increased edge at its old weight: exists j with
  //   D(i,u) + w_old + D(v,j) == D(i,j)   (to tolerance).
  std::vector<std::uint8_t> dirty(n_, 0);
  std::size_t dirty_count = 0;
  for (const Delta& d : increases) {
    if (d.old_w == kInfDist) continue;
    for (std::size_t i = 0; i < n_; ++i) {
      if (dirty[i]) continue;
      const double via_u = dist_.at(i, d.from);
      if (via_u == kInfDist) continue;
      const double head = via_u + d.old_w;
      for (std::size_t j = 0; j < n_; ++j) {
        const double tail = dist_.at(d.to, j);
        if (tail == kInfDist) continue;
        if (head + tail <= dist_.at(i, j) + tie_tol(dist_.at(i, j))) {
          dirty[i] = 1;
          ++dirty_count;
          break;
        }
      }
    }
  }
  last_step_.dirty_rows = dirty_count;
  metrics_observe(metrics_, "apsp.dirty_rows",
                  static_cast<double>(dirty_count));

  if (static_cast<double>(dirty_count) >
      options_.max_dirty_fraction * static_cast<double>(n_)) {
    metrics_increment(metrics_, "apsp.dirty_fallbacks");
    const bool ok = rebuild(g);
    last_step_.path = StepStats::Path::kDirtyFallback;
    return ok;
  }

  if (dirty_count > 0) {
    // Graph with increases applied but decreases NOT yet applied, reweighted
    // by the previous potentials.  Those potentials stay valid because every
    // weight here is >= its value in the accepted graph.  Built as CSR
    // adjacency straight in the step arena: Dijkstra's distances do not
    // depend on arc order, so the map's iteration order is immaterial.
    arena_.reset();
    std::span<std::uint32_t> row_ptr =
        arena_.alloc_fill<std::uint32_t>(n_ + 1, 0);
    std::size_t live = 0;
    for (const auto& [key, w_new] : next) {
      const auto it = weights_.find(key);
      const double w_old = (it == weights_.end()) ? kInfDist : it->second;
      if (std::max(w_new, w_old) != kInfDist) {  // defer decreases to phase B
        ++row_ptr[key_from(key) + 1];
        ++live;
      }
    }
    // Removed edges are increases to +inf and simply stay absent here.
    for (std::size_t v = 0; v < n_; ++v) row_ptr[v + 1] += row_ptr[v];
    std::span<NodeId> head = arena_.alloc<NodeId>(live);
    std::span<double> rw = arena_.alloc<double>(live);
    {
      std::span<std::uint32_t> cursor = arena_.alloc<std::uint32_t>(n_);
      for (std::size_t v = 0; v < n_; ++v) cursor[v] = row_ptr[v];
      for (const auto& [key, w_new] : next) {
        const auto it = weights_.find(key);
        const double w_old = (it == weights_.end()) ? kInfDist : it->second;
        const double w = std::max(w_new, w_old);
        if (w == kInfDist) continue;
        const NodeId from = key_from(key);
        double r = w + potential_[from] - potential_[key_to(key)];
        if (r < 0.0 && r > -1e-9) r = 0.0;  // float residue, as in johnson()
        const std::uint32_t at = cursor[from]++;
        head[at] = key_to(key);
        rw[at] = r;
      }
    }
    const CsrView view{row_ptr, head, rw};

    std::span<double> sp_dist = arena_.alloc<double>(n_);
    std::vector<std::pair<double, NodeId>> heap;
    heap.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      if (!dirty[i]) continue;
      dijkstra_csr(view, static_cast<NodeId>(i), sp_dist, heap);
      for (std::size_t j = 0; j < n_; ++j) {
        if (sp_dist[j] == kInfDist)
          dist_.at(i, j) = (i == j) ? 0.0 : kInfDist;
        else
          dist_.at(i, j) = sp_dist[j] - potential_[i] + potential_[j];
      }
    }
  }

  // ---- Phase B: weight decreases (exact min-plus updates) ----
  // Applied sequentially: after each edge the matrix is the exact closure of
  // the graph including it, so later decreases compose correctly.
  for (const Delta& d : decreases) {
    // A new negative cycle must run through the cheaper edge: weight
    // w' + D(v, u).
    const double back = dist_.at(d.to, d.from);
    if (back != kInfDist && d.new_w + back < 0.0) {
      valid_ = false;
      metrics_increment(metrics_, "apsp.negative_cycles");
      return false;
    }
    // Row d.to is skipped: past the check above, via = D(to,from) + w' >= 0
    // there, and a non-negative via can never strictly lower D(to,j), so
    // the row that supplies every tail is never written while it is read.
    // A +inf tail needs no branch: via + inf = +inf never wins the strict
    // `<`.  The branch-free select keeps that strict `<` (ties keep the old
    // entry, exactly like the conditional store it replaces) and compiles
    // to addpd/minpd.
    const double* __restrict tail_row = &dist_.at(d.to, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      if (i == d.to) continue;
      const double head = dist_.at(i, d.from);
      if (head == kInfDist) continue;
      const double via = head + d.new_w;
      double* __restrict row = &dist_.at(i, 0);
      for (std::size_t j = 0; j < n_; ++j) {
        const double c = via + tail_row[j];
        row[j] = c < row[j] ? c : row[j];
      }
    }
  }

  // Defensive parity with floyd_warshall(): a negative diagonal entry is a
  // negative cycle no matter how it slipped in.
  for (std::size_t i = 0; i < n_; ++i)
    if (dist_.at(i, i) < 0.0) {
      valid_ = false;
      metrics_increment(metrics_, "apsp.negative_cycles");
      return false;
    }

  weights_ = std::move(next);
  refresh_potentials();
  last_step_.path = StepStats::Path::kIncremental;
  last_step_.incremental = true;
  metrics_increment(metrics_, "apsp.incremental_updates");
  return true;
}

}  // namespace cs
