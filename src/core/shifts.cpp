#include "core/shifts.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/pool.hpp"
#include "graph/arena.hpp"

namespace cs {
namespace {

/// Builds the digraph of finite m̃s entries (off-diagonal).
Digraph finite_ms_graph(const DistanceMatrix& ms) {
  const std::size_t n = ms.size();
  Digraph g(n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q)
      if (p != q && ms.at(p, q) != kInfDist)
        g.add_edge(static_cast<NodeId>(p), static_cast<NodeId>(q),
                   ms.at(p, q));
  return g;
}

/// Corrections within one component: Bellman–Ford distances from the
/// component root under weights (a_max - m̃s), relaxed with a tolerance of
/// tolerance_scale * max(1, |a_max|) per step — the same epsilon semantics
/// as bellman_ford(g, s, epsilon), run directly on the matrix so the hot
/// epoch path skips materializing the complete component digraph.  The
/// max-mean cycle has weight exactly 0 mathematically, so any surviving
/// negative cycle beyond that tolerance proves the m̃s matrix inconsistent.
void component_corrections(const DistanceMatrix& ms,
                           const std::vector<NodeId>& members, NodeId root,
                           double a_max, double tolerance_scale,
                           std::vector<double>& corrections,
                           EpochArena& arena) {
  const std::size_t k = members.size();
  if (k == 1) {
    corrections[members[0]] = 0.0;
    return;
  }
  const double epsilon = tolerance_scale * std::max(1.0, std::fabs(a_max));
  std::span<double> dist = arena.alloc_fill<double>(k, kInfDist);
  for (std::size_t i = 0; i < k; ++i)
    if (members[i] == root) dist[i] = 0.0;

  // Up to k sweeps with early exit: k-1 relaxation sweeps settle all
  // distances absent negative cycles, so a k-th sweep that still improves
  // beyond epsilon is the detection sweep firing.
  bool changed = true;
  for (std::size_t sweep = 0; sweep < k && changed; ++sweep) {
    changed = false;
    for (std::size_t i = 0; i < k; ++i) {
      const double di = dist[i];
      if (!(di < kInfDist)) continue;
      for (std::size_t j = 0; j < k; ++j) {
        if (i == j) continue;
        const double cand = di + a_max - ms.at(members[i], members[j]);
        if (cand < dist[j] - epsilon) {
          dist[j] = cand;
          changed = true;
        }
      }
    }
  }
  if (changed)
    throw Error(
        "SHIFTS: negative cycle under w = a_max - m̃s beyond the float "
        "tolerance; m̃s matrix is inconsistent");
  for (std::size_t i = 0; i < k; ++i) {
    // Every member is reachable from the root in one hop of the complete
    // component graph, so a non-finite distance means the matrix carried a
    // non-finite entry (e.g. NaN from a broken estimator) — refuse to emit
    // garbage corrections.
    if (!(dist[i] < kInfDist) || std::isnan(dist[i]))
      throw Error(
          "SHIFTS: non-finite correction distance inside a finiteness "
          "component; m̃s matrix carries non-finite entries");
    corrections[members[i]] = dist[i];
  }
}

/// Local index of `want` within the ascending member list of component `c`,
/// or kNoPolicyEdge when `want` lives elsewhere — the warm-policy mapping
/// the per-component local[] array used to provide.
NodeId warm_local_index(const std::vector<NodeId>& members,
                        const SccResult& components, std::size_t c,
                        NodeId want, std::size_t n) {
  if (want == kNoPolicyEdge || want >= n) return kNoPolicyEdge;
  if (components.component[want] != c) return kNoPolicyEdge;
  const auto it = std::lower_bound(members.begin(), members.end(), want);
  return static_cast<NodeId>(it - members.begin());
}

/// Solves one finiteness component: Howard's max cycle mean over the
/// compacted k x k m̃s block (and, on a bounded instance, the policy cycle
/// attaining it), then matrix Bellman–Ford corrections.  Writes only this
/// component's slices of `res` (disjoint across components), so components
/// may be solved concurrently with byte-identical output.
void solve_component(const DistanceMatrix& ms, const ShiftsOptions& options,
                     const std::vector<NodeId>& members, std::size_t c,
                     ShiftsResult& res, EpochArena& arena) {
  const std::size_t n = ms.size();
  const std::size_t k = members.size();
  double a_max_c = 0.0;
  if (k > 1) {
    // Max mean cycle within the component.  The m̃s entries between
    // component members are all finite (strong connectivity of the finite
    // graph + the matrix being a shortest-path closure); compact them into
    // a dense block so the kernel runs off flat rows.
    std::span<double> w = arena.alloc<double>(k * k);
    for (std::size_t i = 0; i < k; ++i) {
      double* wi = w.data() + i * k;
      for (std::size_t j = 0; j < k; ++j) {
        if (i == j) {
          wi[j] = 0.0;
          continue;
        }
        const double ms_ij = ms.at(members[i], members[j]);
        if (ms_ij == kInfDist)
          throw Error(
              "compute_shifts: m̃s matrix is not a shortest-path "
              "closure (finite component with infinite entry)");
        wi[j] = ms_ij;
      }
    }
    // Warm policy mapped into the component's local indices; entries
    // pointing outside this component fall back to greedy.
    std::span<NodeId> warm_local;
    if (options.warm_policy != nullptr && options.warm_policy->size() == n) {
      warm_local = arena.alloc<NodeId>(k);
      for (std::size_t i = 0; i < k; ++i)
        warm_local[i] = warm_local_index(
            members, res.components, c, (*options.warm_policy)[members[i]],
            n);
    }
    std::span<NodeId> policy_local = arena.alloc<NodeId>(k);
    const HowardDenseResult hr = max_cycle_mean_howard_dense(
        w.data(), k, warm_local, policy_local, arena, options.metrics);
    // Counted in the metrics above; the mean may undershoot and poison
    // the corrections, so it never passes.
    if (!hr.converged)
      throw Error(
          "compute_shifts: Howard iteration exited on its backstop "
          "without converging");
    a_max_c = hr.mean;
    for (std::size_t i = 0; i < k; ++i)
      res.policy[members[i]] = members[policy_local[i]];
    if (res.components.component_count == 1) {
      NodeId v = hr.critical;
      do {
        res.critical_cycle.push_back(members[v]);
        v = policy_local[v];
      } while (v != hr.critical);
    }
  }
  res.component_a_max[c] = a_max_c;

  // Per-component root: the global root if it lives here, else the
  // smallest member (gauge choice only).
  const NodeId comp_root =
      (res.components.component[options.root] == c) ? options.root
                                                    : members.front();
  component_corrections(ms, members, comp_root, a_max_c,
                        options.tolerance_scale, res.corrections, arena);
}

}  // namespace

ShiftsResult compute_shifts(const DistanceMatrix& ms,
                            const ShiftsOptions& options) {
  const std::size_t n = ms.size();
  if (n == 0) throw Error("compute_shifts: empty instance");
  if (options.root >= n) throw Error("compute_shifts: root out of range");
  // NaN entries poison every downstream comparison silently (relaxations
  // and cycle-mean maxima all evaluate false), so reject them up front;
  // the same pass finds whether every pair is bounded.
  bool all_finite = true;
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) {
      const double v = ms.at(p, q);
      if (std::isnan(v))
        throw Error("compute_shifts: m̃s matrix carries NaN entries");
      if (v == kInfDist && p != q) all_finite = false;
    }
  Metrics* metrics = options.metrics;
  auto timer = Metrics::scoped(metrics, "stage.shifts_seconds");

  ShiftsResult res;
  res.corrections.assign(n, 0.0);
  if (all_finite) {
    // Bounded instance: one finiteness component holding every processor.
    // Skipping the graph build + Tarjan here keeps the per-epoch hot path
    // of the incremental pipeline O(n^2) outside the cycle mean itself.
    res.components.component.assign(n, 0);
    res.components.component_count = 1;
  } else {
    res.components = strongly_connected_components(finite_ms_graph(ms));
  }
  const auto groups = res.components.members();
  res.component_a_max.assign(groups.size(), 0.0);
  res.policy.assign(n, kNoPolicyEdge);

  const bool bounded = groups.size() == 1;

  if (options.threads != 1 && groups.size() > 1) {
    // Components are independent: disjoint result slices, private arenas,
    // a thread-safe metrics sink — byte-identical for any worker count.
    PoolOptions pool;
    pool.threads = options.threads;
    run_indexed(
        groups.size(),
        [&](std::size_t c) {
          EpochArena worker_arena;
          solve_component(ms, options, groups[c], c, res, worker_arena);
        },
        pool);
  } else {
    EpochArena local;
    EpochArena& arena = options.arena != nullptr ? *options.arena : local;
    if (options.arena != nullptr) options.arena->reset();
    for (std::size_t c = 0; c < groups.size(); ++c)
      solve_component(ms, options, groups[c], c, res, arena);
  }

  if (bounded) {
    res.a_max = ExtReal{res.component_a_max[0]};
  } else {
    res.a_max = ExtReal::infinity();
  }
  metrics_increment(metrics, "shifts.runs");
  return res;
}

}  // namespace cs
