// Maximum mean cycle of a complete weighted digraph: SHIFTS' one solver.
//
// The optimal achievable precision on an instance is exactly
//
//   Ã^max = max over cycles θ of ( Σ m̃s-weights on θ / |θ| )     (§4.4)
//
// A finiteness component's m̃s entries form a COMPLETE weighted graph, so
// the kernel runs straight off a row-major k x k weight matrix (diagonal
// ignored) with all scratch in an EpochArena.  It is Howard's policy
// iteration: besides the mean it leaves a policy whose cycle attains it
// (the Thm 4.4 witness) and which seeds the next epoch's solve.  The
// paper's Karp characterization stays as a test oracle
// (tests/support/cycle_mean_oracle.hpp); the two agree up to float
// rounding (last-bit differences are routine), within DESIGN.md's
// tolerance contract.
#pragma once

#include <span>

#include "common/metrics.hpp"
#include "graph/digraph.hpp"

namespace cs {

class EpochArena;

/// Sentinel successor: no warm seed for this node, or (in
/// ShiftsResult::policy) a processor alone in its component.
inline constexpr NodeId kNoPolicyEdge = static_cast<NodeId>(-1);

struct HowardDenseResult {
  double mean{0.0};
  /// A node on the policy cycle whose mean is `mean`: following `policy`
  /// from it walks the witness cycle, and summing its arcs in that order
  /// reproduces `mean` bit for bit.  Meaningful only when converged.
  NodeId critical{0};
  std::size_t iterations{0};
  bool converged{false};
};

/// Howard's policy iteration (max-plus spectral algorithm, the fastest
/// known cycle-mean algorithm in practice) on the complete graph on k >= 2
/// nodes with arc weights w[i*k + j].  `warm` is empty or k entries of seed
/// successors (kNoPolicyEdge = greedy init for that node) — between
/// consecutive epochs the optimal policy rarely moves, so a warm start from
/// the previous epoch converges in one or two rounds.  `policy` receives
/// the final successor per node (k entries).  `converged` is false iff the
/// iteration exhausted its backstop (the mean may then be below the true
/// maximum).  Counters: "cycle_mean.howard_iterations",
/// "cycle_mean.howard_warm_starts", "cycle_mean.howard_backstop_exits".
HowardDenseResult max_cycle_mean_howard_dense(const double* w, std::size_t k,
                                              std::span<const NodeId> warm,
                                              std::span<NodeId> policy,
                                              EpochArena& arena,
                                              Metrics* metrics);

}  // namespace cs
