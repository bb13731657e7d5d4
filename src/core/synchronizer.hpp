// The end-to-end optimal clock synchronization pipeline — the library's
// primary public API.
//
//   views ──(Lemma 6.1 + §6 closed forms)──► m̃ls graph
//         ──(GLOBAL ESTIMATES, Thm 5.5)───► m̃s matrix
//         ──(SHIFTS, Thm 4.6)─────────────► corrections + Ã^max
//
// The input is deliberately std::span<const View>: the correction function
// may depend on nothing else (Claim 3.1).  The SystemModel supplies the
// delay assumptions A; the paper's "interactive part" (which messages were
// sent) is whatever produced the views — any protocol, any message pattern,
// including none.
#pragma once

#include <span>

#include "core/global_estimates.hpp"
#include "core/robust.hpp"
#include "core/shifts.hpp"
#include "delaymodel/assignment.hpp"

namespace cs {

struct ZonePlan;  // core/zones.hpp

struct SyncOptions {
  /// Root processor for the gauge choice (correction of root is 0).
  NodeId root{0};
  ApspAlgorithm apsp{ApspAlgorithm::kJohnson};
  CycleMeanAlgorithm cycle_mean{CycleMeanAlgorithm::kKarp};
  /// kDropOrphans when the views are epoch-boundary prefixes.
  MatchPolicy match{MatchPolicy::kStrict};
  /// Optional instrumentation sink: per-stage wall-clock timings
  /// ("stage.*_seconds" series), APSP and Howard counters.  nullptr = off.
  Metrics* metrics{nullptr};

  /// Worker threads for the independently-parallel pipeline stages: the
  /// per-link m̃ls estimator folds and, on unbounded instances, the
  /// per-finiteness-component SHIFTS solves.  1 = serial (default); 0 =
  /// hardware concurrency.  Results are byte-identical for any value — the
  /// parallel stages only shard work whose writes are disjoint (see
  /// local_estimates.hpp and ShiftsOptions::threads).
  std::size_t threads{1};

  /// Robust estimation against lying agents (core/robust.hpp): MAD-trimmed
  /// observation folds and/or quorum-validated m̃ls edges, applied between
  /// the traffic build and GLOBAL ESTIMATES.  Inactive (the default) is
  /// bit-identical to the naive path; with f = 0 liars the active variants
  /// are too (property-tested).  synchronize() and the epoch drivers
  /// (core/epochs.hpp) apply both; direct synchronize_mls() callers apply
  /// quorum_validated_mls() themselves.
  RobustOptions robust;

  /// Zone-hierarchical plan (core/zones.hpp); nullptr = dense pipeline.
  /// When set, synchronize()/synchronize_mls() compose per-zone SHIFTS with
  /// a leader-quotient solve (Thm 5.5/5.6) instead of running dense APSP +
  /// SHIFTS — the only practical path past n ≈ 1k.  The outcome then
  /// reports the *composed bound* as optimal_precision (an upper bound on
  /// realized precision, not the dense instance optimum unless the plan has
  /// a single zone), leaves ms_estimates empty (never materialized — that
  /// is the point), folds the per-zone and quotient Thm 4.6 residues into
  /// zone_thm46_gap, and groups components by zone when unbounded.  Use
  /// synchronize_zoned() directly for the full per-zone/quotient breakdown.
  const ZonePlan* zones{nullptr};
};

struct SyncOutcome {
  /// Correction offset per processor; corrected clock = local clock +
  /// correction (Definition 2.1).
  std::vector<double> corrections;

  /// The instance-optimal guaranteed precision Ã^max = A^max.  +inf when
  /// the views give no finite bound for some pair (the instance is then
  /// synchronized per finiteness component).
  ExtReal optimal_precision{0.0};

  /// Per-component data for unbounded instances (see shifts.hpp).
  SccResult components;
  std::vector<double> component_precision;

  /// Intermediate products, exposed for inspection, evaluation and tests.
  Digraph mls_graph;
  DistanceMatrix ms_estimates;

  /// Zoned solves only (ms_estimates stays empty there): the max Thm 4.6
  /// equality residue over the zones and the leader quotient.
  double zone_thm46_gap{0.0};

  bool bounded() const { return optimal_precision.is_finite(); }
};

/// Compute optimal corrections for the given views under the given system
/// assumptions.  Throws InvalidAssumption if the views contradict the
/// assumptions, InvalidExecution if the views are malformed.
SyncOutcome synchronize(const SystemModel& model, std::span<const View> views,
                        const SyncOptions& options = {});

/// Pipeline tail — GLOBAL ESTIMATES + SHIFTS — over an already-built m̃ls
/// graph.  synchronize() is local_shift_estimates() followed by this; the
/// epoch drivers call it directly so degraded-mode edge carry-forward
/// (core/degraded.hpp) can interpose between estimation and the closure.
SyncOutcome synchronize_mls(Digraph mls_graph,
                            const SyncOptions& options = {});

}  // namespace cs
