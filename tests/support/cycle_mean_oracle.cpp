#include "support/cycle_mean_oracle.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "graph/arena.hpp"
#include "graph/bellman_ford.hpp"
#include "graph/scc.hpp"

namespace cs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Karp's minimum cycle mean on one strongly connected subgraph, given by
/// the member nodes (with at least one edge inside).  Uses local indices.
std::optional<double> karp_min_on_scc(const Digraph& g,
                                      const std::vector<NodeId>& members,
                                      const std::vector<std::size_t>& comp,
                                      std::size_t comp_id) {
  const std::size_t n = members.size();
  std::vector<std::size_t> local(g.node_count(),
                                 std::numeric_limits<std::size_t>::max());
  for (std::size_t i = 0; i < n; ++i) local[members[i]] = i;

  // Edges internal to the SCC, in local indices.
  struct LEdge {
    std::size_t from, to;
    double w;
  };
  std::vector<LEdge> edges;
  for (const Edge& e : g.edges())
    if (comp[e.from] == comp_id && comp[e.to] == comp_id)
      edges.push_back({local[e.from], local[e.to], e.weight});
  if (edges.empty()) return std::nullopt;  // singleton without self-loop

  // D[k][v] = min weight of a walk with exactly k edges from the source
  // (node 0 of the SCC) to v; strong connectivity makes the choice of
  // source irrelevant to the final min-max.
  std::vector<std::vector<double>> d(n + 1, std::vector<double>(n, kInf));
  d[0][0] = 0.0;
  for (std::size_t k = 1; k <= n; ++k)
    for (const LEdge& e : edges)
      if (d[k - 1][e.from] != kInf)
        d[k][e.to] = std::min(d[k][e.to], d[k - 1][e.from] + e.w);

  double best = kInf;
  for (std::size_t v = 0; v < n; ++v) {
    if (d[n][v] == kInf) continue;
    double worst = -kInf;
    for (std::size_t k = 0; k < n; ++k) {
      if (d[k][v] == kInf) continue;
      worst = std::max(worst, (d[n][v] - d[k][v]) /
                                  static_cast<double>(n - k));
    }
    if (worst != -kInf) best = std::min(best, worst);
  }
  if (best == kInf) return std::nullopt;
  return best;
}

/// One column range of the blocked Karp walk table: cur[j] folds the
/// candidates b_q - w_q[j] of four source rows, q ascending, keeping the
/// first strict minimum.  `restrict` tells the compiler that cur (a
/// walk-table row) and the w_q rows (the weight matrix) never alias, so
/// it vectorizes the j loop.
inline void fold_four_rows(double* __restrict cur,
                           const double* __restrict w0,
                           const double* __restrict w1,
                           const double* __restrict w2,
                           const double* __restrict w3, double b0, double b1,
                           double b2, double b3, std::size_t lo,
                           std::size_t hi) {
  for (std::size_t j = lo; j < hi; ++j) {
    double c = cur[j];
    double x = b0 - w0[j];
    c = x < c ? x : c;
    x = b1 - w1[j];
    c = x < c ? x : c;
    x = b2 - w2[j];
    c = x < c ? x : c;
    x = b3 - w3[j];
    c = x < c ? x : c;
    cur[j] = c;
  }
}

bool graph_has_cycle(const Digraph& g) {
  const SccResult scc = strongly_connected_components(g);
  std::vector<std::size_t> sizes(scc.component_count, 0);
  for (NodeId v = 0; v < g.node_count(); ++v) ++sizes[scc.component[v]];
  for (const Edge& e : g.edges()) {
    if (e.from == e.to) return true;  // self-loop
    if (scc.component[e.from] == scc.component[e.to] &&
        sizes[scc.component[e.from]] > 1)
      return true;
  }
  return false;
}

}  // namespace

std::optional<double> min_cycle_mean_karp(const Digraph& g) {
  const SccResult scc = strongly_connected_components(g);
  const auto groups = scc.members();
  std::optional<double> best;
  for (std::size_t c = 0; c < groups.size(); ++c) {
    const auto r = karp_min_on_scc(g, groups[c], scc.component, c);
    if (r && (!best || *r < *best)) best = r;
  }
  return best;
}

std::optional<double> max_cycle_mean_karp(const Digraph& g) {
  Digraph neg(g.node_count());
  for (const Edge& e : g.edges()) neg.add_edge(e.from, e.to, -e.weight);
  const auto r = min_cycle_mean_karp(neg);
  if (!r) return std::nullopt;
  return -*r;
}

std::optional<double> max_cycle_mean_karp(const DistanceMatrix& ms) {
  const std::size_t n = ms.size();
  Digraph g(n);
  for (NodeId p = 0; p < n; ++p)
    for (NodeId q = 0; q < n; ++q)
      if (p != q && ms.at(p, q) != kInfDist) g.add_edge(p, q, ms.at(p, q));
  return max_cycle_mean_karp(g);
}

std::optional<double> max_cycle_mean_bsearch(const Digraph& g,
                                             double tolerance) {
  assert(tolerance > 0.0);
  if (!graph_has_cycle(g)) return std::nullopt;

  double lo = kInf, hi = -kInf;
  for (const Edge& e : g.edges()) {
    lo = std::min(lo, e.weight);
    hi = std::max(hi, e.weight);
  }
  // Invariant: max mean in [lo, hi].  A cycle of mean > mu exists iff the
  // graph with weights (mu - w) has a negative cycle.
  auto exceeds = [&](double mu) {
    Digraph shifted(g.node_count());
    for (const Edge& e : g.edges())
      shifted.add_edge(e.from, e.to, mu - e.weight);
    return has_negative_cycle(shifted);
  };
  while (hi - lo > tolerance) {
    const double mid = lo + (hi - lo) / 2.0;
    if (exceeds(mid))
      lo = mid;
    else
      hi = mid;
  }
  return lo + (hi - lo) / 2.0;
}

double max_cycle_mean_karp_dense(const double* w, std::size_t k,
                                 EpochArena& arena) {
  assert(k >= 2);
  // Same walk table as karp_min_on_scc over the NEGATED complete graph
  // (max mean = -min mean of -w), flattened: d[step*k + v] = min weight of
  // a walk with exactly `step` arcs from node 0 to v.
  //
  // Register-blocked: each pass takes four source rows i..i+3 and, per
  // column j, folds their four candidates into one load and one store of
  // cur[j].  The result is bit-identical to the one-row-at-a-time
  // edge-list DP because
  //   * every cur[j] sees the same candidates in the same ascending-i
  //     order under the same strict `<`, so the first of equal minima
  //     wins in both;
  //   * IEEE 754 defines b - w as b + (-w), signed zeros included;
  //   * an unreached row (b = +inf) is not skipped but cannot win:
  //     inf - finite = +inf and inf - inf = NaN both fail `x < c`.
  // The diagonal block splits the j range so w[j*k + j] is never read.
  std::span<double> d = arena.alloc_fill<double>((k + 1) * k, kInf);
  d[0] = 0.0;
  constexpr std::size_t kRows = 4;
  for (std::size_t step = 1; step <= k; ++step) {
    const double* prev = d.data() + (step - 1) * k;
    double* cur = d.data() + step * k;
    std::size_t i = 0;
    for (; i + kRows <= k; i += kRows) {
      const double b[kRows] = {prev[i], prev[i + 1], prev[i + 2],
                               prev[i + 3]};
      const double* w0 = w + i * k;
      const auto fold = [&](std::size_t lo, std::size_t hi) {
        fold_four_rows(cur, w0, w0 + k, w0 + 2 * k, w0 + 3 * k, b[0], b[1],
                       b[2], b[3], lo, hi);
      };
      fold(0, i);
      for (std::size_t dj = 0; dj < kRows; ++dj) {
        const std::size_t j = i + dj;
        double c = cur[j];
        for (std::size_t q = 0; q < kRows; ++q) {
          if (q == dj) continue;
          const double x = b[q] - w0[q * k + j];
          c = x < c ? x : c;
        }
        cur[j] = c;
      }
      fold(i + kRows, k);
    }
    for (; i < k; ++i) {
      const double base = prev[i];
      if (base == kInf) continue;
      const double* wi = w + i * k;
      for (std::size_t j = 0; j < k; ++j) {
        if (j == i) continue;
        const double cand = base + (-wi[j]);
        if (cand < cur[j]) cur[j] = cand;
      }
    }
  }

  double best = kInf;
  const std::span<double> last = d.subspan(k * k, k);
  for (std::size_t v = 0; v < k; ++v) {
    if (last[v] == kInf) continue;
    double worst = -kInf;
    for (std::size_t step = 0; step < k; ++step) {
      const double dv = d[step * k + v];
      if (dv == kInf) continue;
      worst = std::max(worst, (last[v] - dv) / static_cast<double>(k - step));
    }
    if (worst != -kInf) best = std::min(best, worst);
  }
  // A complete graph on k >= 2 nodes is strongly connected and cyclic.
  assert(best != kInf);
  return -best;
}

std::optional<double> max_cycle_mean_brute(const Digraph& g) {
  const std::size_t n = g.node_count();
  assert(n <= 16 && "brute-force oracle is exponential");
  std::optional<double> best;

  // DFS for simple cycles whose minimum node is the start node (each simple
  // cycle is enumerated exactly once).
  std::vector<bool> on_path(n, false);
  struct Frame {
    NodeId v;
    std::size_t pos;
    double weight;
    std::size_t len;
  };
  for (NodeId start = 0; start < n; ++start) {
    std::vector<Frame> stack;
    stack.push_back({start, 0, 0.0, 0});
    on_path[start] = true;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto out = g.out_edges(f.v);
      if (f.pos < out.size()) {
        const Edge& e = g.edge(out[f.pos++]);
        if (e.to == start) {
          const double mean =
              (f.weight + e.weight) / static_cast<double>(f.len + 1);
          if (!best || mean > *best) best = mean;
        } else if (e.to > start && !on_path[e.to]) {
          on_path[e.to] = true;
          stack.push_back({e.to, 0, f.weight + e.weight, f.len + 1});
        }
      } else {
        on_path[f.v] = false;
        stack.pop_back();
      }
    }
  }
  return best;
}

}  // namespace cs
