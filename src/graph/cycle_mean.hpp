// Maximum (and minimum) mean cycle of a weighted digraph.
//
// This is the computational heart of SHIFTS: the optimal achievable
// precision on an instance is exactly
//
//   Ã^max = max over cycles θ of ( Σ m̃s-weights on θ / |θ| )     (§4.4)
//
// The paper prescribes Karp's O(nm) characterization [Karp, Disc. Math. 23
// (1978)].  SHIFTS runs the dense Karp or Howard kernels below on each
// complete finiteness component.  Graph Karp, a binary-search
// (Lawler-style) alternative and an exhaustive enumerator stay as the
// reference oracles for tests and the E8 ablation.
#pragma once

#include <optional>
#include <vector>

#include "common/metrics.hpp"
#include "graph/digraph.hpp"

namespace cs {

/// Maximum cycle mean over all directed cycles; std::nullopt if acyclic.
/// Decomposes by SCC internally, so the graph need not be strongly
/// connected.  Exact up to float rounding.
std::optional<double> max_cycle_mean_karp(const Digraph& g);

/// Minimum cycle mean, by negation.
std::optional<double> min_cycle_mean_karp(const Digraph& g);

/// Binary search on mu using positive-cycle detection: mu* is the largest mu
/// such that weights (w - mu) still admit a non-negative cycle.  Converges
/// to `tolerance`; ablation comparator for Karp (bench E8).
std::optional<double> max_cycle_mean_bsearch(const Digraph& g,
                                             double tolerance = 1e-9);

/// Exhaustive enumeration of simple cycles (test oracle; exponential, keep
/// node_count small).
std::optional<double> max_cycle_mean_brute(const Digraph& g);

class EpochArena;

// ---------------------------------------------------------------------------
// Dense kernels for SHIFTS (core/shifts.cpp).
//
// A finiteness component's m̃s entries form a COMPLETE weighted graph, so
// materializing a Digraph per epoch only to tear it apart again inside the
// cycle-mean routines is pure allocation churn.  These kernels run straight
// off a row-major k x k weight matrix (diagonal ignored) with all scratch in
// an EpochArena.  Dense Karp reproduces graph Karp on the complete graph
// BIT FOR BIT: its walk table is a min-fold that visits each column's
// candidates in the same ascending-source order with the same strict `<`.
// The fold is register-blocked, four source rows per pass, so each
// walk-table entry is loaded and stored once per four rows and the column
// loop vectorizes; it needs no scratch beyond the (k+1) x k table.
// docs/PERF.md §1 gives the bit-identity argument.  Howard is a different
// algorithm:
// its mean agrees with Karp's only up to float rounding (last-bit
// differences are routine), within DESIGN.md's tolerance contract.
// ---------------------------------------------------------------------------

/// Karp's maximum cycle mean of the complete graph on k >= 2 nodes with
/// arc weights w[i*k + j] (i != j).  Equals
/// max_cycle_mean_karp(complete graph) exactly.
double max_cycle_mean_karp_dense(const double* w, std::size_t k,
                                 EpochArena& arena);

/// Sentinel successor: no warm seed for this node, or (in
/// ShiftsResult::policy) a processor alone in its component.
inline constexpr NodeId kNoPolicyEdge = static_cast<NodeId>(-1);

struct HowardDenseResult {
  double mean{0.0};
  std::size_t iterations{0};
  bool converged{true};
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
