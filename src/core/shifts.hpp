// Step 3: Function SHIFTS (§4.4, Theorem 4.6).
//
// Inputs: the matrix of estimated maximal global shifts m̃s(p, q).
// Outputs: the optimal corrections and their precision Ã^max = A^max.
//
//   1. Ã^max = maximum mean cycle of the shift graph (Karp).
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

  /// Howard policy (successor per processor, kNoPolicyEdge where none) when
  /// the Howard algorithm ran; empty under Karp.  Feed back through
  /// ShiftsOptions::warm_policy on the next epoch.
  std::vector<NodeId> policy;

  bool bounded() const { return a_max.is_finite(); }
};

/// Which maximum-cycle-mean algorithm drives step 1.  Karp is the paper's
/// prescription and the default; Howard's policy iteration is measurably
/// faster on large dense instances (bench E8a).  The two agree only up to
/// float rounding: their Ã^max routinely differ in the last bits, which
/// DESIGN.md's tolerance contract (tolerance_scale × max(1, |Ã^max|))
/// absorbs.
enum class CycleMeanAlgorithm { kKarp, kHoward };

struct ShiftsOptions {
  /// Breaks the additive-constant gauge freedom; any root yields corrections
  /// differing by a per-component constant, which does not affect pairwise
  /// precision.
  NodeId root{0};
  CycleMeanAlgorithm algorithm{CycleMeanAlgorithm::kKarp};

  /// Relative scale of the Bellman–Ford relaxation tolerance in the
  /// corrections step: epsilon = tolerance_scale * max(1, |Ã^max|).  The
  /// max-mean cycle has weight exactly 0 under w = Ã^max − m̃s, so float
  /// rounding can manufacture cycles of weight ~-1 ulp; the tolerance
  /// absorbs them in a single principled pass (DESIGN.md "Numeric tolerance
  /// contract").  Cycles more negative than epsilon still throw.
  double tolerance_scale{1e-9};

  /// Previous epoch's ShiftsResult::policy to warm-start Howard's policy
  /// iteration (ignored under Karp; nullptr = cold start).
  const std::vector<NodeId>* warm_policy{nullptr};

  /// Optional instrumentation sink (stage timings, Howard iteration counts,
  /// backstop reports).  nullptr = no instrumentation.
  Metrics* metrics{nullptr};

  /// Scratch arena for the dense cycle-mean kernels and correction
  /// distances (walk tables, policy/value vectors).  The call reset()s it
  /// on entry and leaves its allocations dead on exit.  nullptr = the call
  /// uses a private arena (still no per-component heap churn, but capacity
  /// is not retained across epochs).
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
/// unconstrained pairs).
ShiftsResult compute_shifts(const DistanceMatrix& ms,
                            const ShiftsOptions& options);

/// Convenience overload preserving the historical signature.
ShiftsResult compute_shifts(
    const DistanceMatrix& ms, NodeId root = 0,
    CycleMeanAlgorithm algorithm = CycleMeanAlgorithm::kKarp);

}  // namespace cs
