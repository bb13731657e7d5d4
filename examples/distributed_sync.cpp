// In-band distributed synchronization with the §7 coordinator protocol.
//
// Unlike the other examples (which extract views and compute corrections
// "offline"), here the processors do everything themselves with messages:
// probe their neighbors, flood their delay statistics to a leader, and
// receive their corrections back — no outside observer involved.  The
// protocol is SyncAgent (runtime/agent.hpp) run for one epoch under the
// plain discrete-event simulator.
//
// Build & run:  ./build/examples/distributed_sync

#include <cstdio>

#include "core/precision.hpp"
#include "core/synchronizer.hpp"
#include "runtime/agent.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace cs;

  SystemModel model(make_ring(8));
  for (auto [a, b] : model.topology().links)
    model.set_constraint(make_bounds(a, b, 0.002, 0.008));

  Rng rng(11);
  SimOptions opts;
  opts.start_offsets = random_start_offsets(8, /*max_skew=*/0.4, rng);
  opts.seed = 11;

  SyncAgentParams params;
  params.warmup = Duration{0.5};
  params.rounds = 5;
  params.report_at = Duration{1.5};
  params.leader = 0;

  LiveResults results(model.processor_count(), params);
  const SimResult sim =
      simulate(model, make_sync_agents(&model, params, &results), opts);

  if (!results.all_complete()) {
    std::printf("protocol did not complete!\n");
    return 1;
  }
  const LiveEpoch& epoch = results.epochs().front();

  std::printf("ring of 8, coordinator protocol, leader = p0\n");
  std::printf("messages delivered: %zu (probes + reports + corrections)\n\n",
              sim.delivered_messages);

  const auto starts = sim.execution.start_times();
  const std::vector<double>& x = epoch.corrections;
  for (std::size_t p = 0; p < 8; ++p)
    std::printf("  p%zu: start %+7.4f  learned correction %+8.5f\n", p,
                starts[p].sec, x[p]);

  // §7: the claim is optimal only w.r.t. the probe traffic; the pipeline
  // rerun offline over the full views (reports and corrections included)
  // can only be at least as tight.
  const SyncOutcome offline = synchronize(model, sim.execution.views());

  std::printf("\nleader's claimed precision : %8.3f ms\n",
              *epoch.claimed_precision * 1e3);
  std::printf("realized precision         : %8.3f ms\n",
              realized_precision(starts, x) * 1e3);
  std::printf("offline, full views        : %8.3f ms\n",
              offline.optimal_precision.finite() * 1e3);
  std::printf("uncorrected spread         : %8.3f ms\n",
              realized_precision(starts, std::vector<double>(8, 0.0)) * 1e3);
  return 0;
}
