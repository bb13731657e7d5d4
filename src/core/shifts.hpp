// Step 3: Function SHIFTS (§4.4, Theorem 4.6).
//
// Inputs: the matrix of estimated maximal global shifts m̃s(p, q).
// Outputs: the optimal corrections and their precision Ã^max = A^max.
//
//   1. Ã^max = maximum mean cycle of the shift graph (Howard's policy
//      iteration; its policy cycle is the Thm 4.4 witness).
//   2. correction(p) = dist_w(root, p) under w(p,q) = Ã^max - m̃s(p,q)
//      (Bellman–Ford: weights may be negative; Theorem 4.6 guarantees no
//      negative cycles).
//
// Unbounded instances: if some pair's m̃s is +inf, A^max = +inf — no finite
// precision can be guaranteed across that pair (§3's motivation).  SHIFTS
// then degrades gracefully: the strongly connected components of the
// finite-m̃s graph ("finiteness components") are synchronized independently,
// each with its own optimal per-component precision; the reported overall
// a_max is +inf.  Within a component the corrections coincide with what
// SHIFTS would produce on that component's sub-instance, so per-component
// optimality is preserved.
#pragma once

#include <vector>

#include "common/extreal.hpp"
#include "common/metrics.hpp"
#include "graph/cycle_mean.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/scc.hpp"

namespace cs {

struct ShiftsResult {
  /// The instance-optimal precision Ã^max; +inf on unbounded instances.
  ExtReal a_max{0.0};

  /// Correction offset per processor.  The corrected logical clock of p is
  /// its local clock plus corrections[p] (Definition 2.1).
  std::vector<double> corrections;

  /// Finiteness components of the m̃s graph (a single component iff the
  /// instance is bounded).
  SccResult components;

  /// Optimal precision within each component (0 for singletons).
  std::vector<double> component_a_max;

  /// Howard policy (successor per processor, kNoPolicyEdge for a processor
  /// alone in its component).  Feed back through ShiftsOptions::warm_policy
  /// on the next epoch.
  std::vector<NodeId> policy;

  /// The witness of Theorem 4.4 on bounded instances: the policy cycle
  /// p_0 -> p_1 -> ... -> p_{k-1} -> p_0 whose mean m̃s weight, summed in
  /// this order, is the reported Ã^max.  Its links bound the precision:
  /// tightening their delay knowledge is the only way to improve it.
  /// Empty when unbounded or for a single processor.
  std::vector<NodeId> critical_cycle;

  bool bounded() const { return a_max.is_finite(); }
};

struct ShiftsOptions {
  /// Breaks the additive-constant gauge freedom; any root yields corrections
  /// differing by a per-component constant, which does not affect pairwise
  /// precision.
  NodeId root{0};

  /// Relative scale of the Bellman–Ford relaxation tolerance in the
  /// corrections step: epsilon = tolerance_scale * max(1, |Ã^max|).  The
  /// max-mean cycle has weight exactly 0 under w = Ã^max − m̃s, so float
  /// rounding can manufacture cycles of weight ~-1 ulp; the tolerance
  /// absorbs them in a single principled pass (DESIGN.md "Numeric tolerance
  /// contract").  Cycles more negative than epsilon still throw.
  double tolerance_scale{1e-9};

  /// Previous epoch's ShiftsResult::policy to warm-start Howard's policy
  /// iteration (nullptr = cold start).
  const std::vector<NodeId>* warm_policy{nullptr};

  /// Optional instrumentation sink (stage timings, Howard iteration counts,
  /// backstop exits, which also throw).  nullptr = no instrumentation.
  Metrics* metrics{nullptr};

  /// Scratch arena for the cycle-mean kernel and correction distances
  /// (policy/value vectors).  The call reset()s it on entry and leaves its
  /// allocations dead on exit.  nullptr = the call uses a private arena
  /// (still no per-component heap churn, but capacity is not retained
  /// across epochs).
  EpochArena* arena{nullptr};

  /// Worker threads for per-component solves on unbounded instances.
  /// Components are independent — each writes a disjoint slice of the
  /// corrections/policy arrays and all float work is confined to its own
  /// members — so any thread count produces byte-identical results
  /// (enforced by tests/core/shifts_threads_test.cpp).  1 = serial; only
  /// engaged when there is more than one component.
  std::size_t threads{1};
};

/// `ms` is the m̃s matrix from global_shift_estimates (diagonal 0, +inf for
/// unconstrained pairs).  Throws cs::Error if Howard's iteration exits on
/// its backstop without converging (after counting the exit in
/// options.metrics): its mean could undershoot Ã^max.
ShiftsResult compute_shifts(const DistanceMatrix& ms,
                            const ShiftsOptions& options = {});

}  // namespace cs
