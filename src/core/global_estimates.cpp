#include "core/global_estimates.hpp"

#include <utility>

#include "common/error.hpp"
#include "graph/johnson.hpp"

namespace cs {

Digraph slack_relaxed_mls(const Digraph& mls_graph) {
  // Measured delays carry ~1 ulp of float noise, so executions that sit
  // exactly on their bounds can produce m̃ls cycles of weight ~-1e-16 where
  // the theory guarantees >= 0.  A picosecond of per-edge slack keeps the
  // matrix a valid (conservative) over-approximation — negligible against
  // any physical delay scale — while real assumption violations still
  // produce decisively negative cycles and are rejected by APSP.
  Digraph relaxed(mls_graph.node_count());
  for (const Edge& e : mls_graph.edges())
    relaxed.add_edge(e.from, e.to, e.weight + kMlsSlack);
  return relaxed;
}

DistanceMatrix global_shift_estimates(const Digraph& mls_graph,
                                      ApspAlgorithm algorithm,
                                      Metrics* metrics) {
  auto timer = Metrics::scoped(metrics, "stage.global_estimates_seconds");
  const Digraph relaxed = slack_relaxed_mls(mls_graph);

  std::optional<DistanceMatrix> m;
  switch (algorithm) {
    case ApspAlgorithm::kJohnson:
      m = johnson(relaxed);
      break;
    case ApspAlgorithm::kFloydWarshall:
      m = floyd_warshall(relaxed);
      break;
  }
  if (!m)
    throw InvalidAssumption(
        "negative m̃ls cycle: the observed execution contradicts the "
        "declared delay assumptions");
  metrics_increment(metrics, "apsp.from_scratch_runs");
  return std::move(*m);
}

}  // namespace cs
