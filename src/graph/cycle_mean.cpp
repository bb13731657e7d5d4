#include "graph/cycle_mean.hpp"

#include <cassert>
#include <limits>
#include <vector>

#include "graph/arena.hpp"

namespace cs {

HowardDenseResult max_cycle_mean_howard_dense(const double* w, std::size_t k,
                                              std::span<const NodeId> warm,
                                              std::span<NodeId> policy,
                                              EpochArena& arena,
                                              Metrics* metrics) {
  assert(k >= 2 && policy.size() == k);
  assert(warm.empty() || warm.size() == k);
  constexpr double kTol = 1e-12;
  if (!warm.empty())
    metrics_increment(metrics, "cycle_mean.howard_warm_starts");

  // Initial policy: the warm seed where it names a valid successor in this
  // component, else the per-node heaviest out-arc scanned j-ascending —
  // the first strict maximum wins.
  for (std::size_t v = 0; v < k; ++v) {
    if (!warm.empty() && warm[v] < k && warm[v] != v) {
      policy[v] = warm[v];
      continue;
    }
    std::size_t best = (v == 0) ? 1 : 0;
    const double* wv = w + v * k;
    for (std::size_t j = 0; j < k; ++j) {
      if (j == v) continue;
      if (wv[j] > wv[best]) best = j;
    }
    policy[v] = static_cast<NodeId>(best);
  }

  std::span<double> eta = arena.alloc_fill<double>(k, 0.0);
  std::span<double> value = arena.alloc_fill<double>(k, 0.0);
  std::span<std::uint8_t> state = arena.alloc<std::uint8_t>(k);
  std::vector<std::size_t> path;
  path.reserve(k);

  const auto arc_w = [&](std::size_t x) { return w[x * k + policy[x]]; };

  HowardDenseResult result;
  const std::size_t max_iters = 20 * k + 100;
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    ++result.iterations;
    // ---- Value determination over the functional policy graph ----
    // Every eta is some policy cycle's mean, so the largest cycle mean
    // found here is max eta; its head names the witness cycle.
    result.mean = -std::numeric_limits<double>::infinity();
    for (std::size_t v = 0; v < k; ++v) state[v] = 0;
    for (std::size_t start = 0; start < k; ++start) {
      if (state[start] != 0) continue;
      path.clear();
      std::size_t u = start;
      while (state[u] == 0) {
        state[u] = 1;
        path.push_back(u);
        u = policy[u];
      }
      // The walk either closed a new cycle at u (state 1), whose head u
      // gets value 0 and the cycle's mean, or ran into solved nodes
      // (state 2).  Either way every other path node then inherits its
      // successor's eta, back to front.
      std::size_t head = path.size();
      if (state[u] == 1) {
        while (path[head - 1] != u) --head;
        --head;  // path[head] == u
        double total = 0.0;
        for (std::size_t i = head; i < path.size(); ++i)
          total += arc_w(path[i]);
        const double mean = total / static_cast<double>(path.size() - head);
        if (mean > result.mean) {
          result.mean = mean;
          result.critical = static_cast<NodeId>(u);
        }
        value[u] = 0.0;
        eta[u] = mean;
        state[u] = 2;
      }
      for (std::size_t i = path.size(); i-- > 0;) {
        if (i == head) continue;
        const std::size_t x = path[i];
        eta[x] = eta[policy[x]];
        value[x] = arc_w(x) - eta[x] + value[policy[x]];
        state[x] = 2;
      }
    }

    // ---- Policy improvement (two-stage, multi-chain) ----
    bool improved = false;
    for (std::size_t v = 0; v < k; ++v) {
      const double* wv = w + v * k;
      std::size_t best = policy[v];
      double best_eta = eta[best];
      for (std::size_t j = 0; j < k; ++j) {
        if (j == v) continue;
        if (eta[j] > best_eta + kTol) {
          best = j;
          best_eta = eta[j];
        }
      }
      if (best != policy[v]) {
        policy[v] = static_cast<NodeId>(best);
        improved = true;
        continue;
      }
      double best_val = arc_w(v) - eta[v] + value[policy[v]];
      for (std::size_t j = 0; j < k; ++j) {
        if (j == v) continue;
        if (eta[j] < eta[v] - kTol) continue;
        const double cand = wv[j] - eta[v] + value[j];
        if (cand > best_val + kTol) {
          best_val = cand;
          policy[v] = static_cast<NodeId>(j);
          improved = true;
        }
      }
    }
    if (!improved) {
      result.converged = true;
      break;
    }
  }

  if (!result.converged)
    metrics_increment(metrics, "cycle_mean.howard_backstop_exits");
  metrics_observe(metrics, "cycle_mean.howard_iterations",
                  static_cast<double>(result.iterations));
  return result;
}

}  // namespace cs
