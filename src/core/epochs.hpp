// Periodic re-synchronization (footnote 1 of the paper).
//
// Real clocks drift a little, so practice re-invokes clock synchronization
// periodically; each invocation sees the traffic exchanged so far.  This
// driver realizes that loop against the offline pipeline: at each epoch
// boundary T_k (a *clock* time — every processor snapshots when its own
// clock reads T_k, exactly what a deployed node can do), the pipeline runs
// on the per-processor view cuts and produces that epoch's corrections
// and guarantee.
//
// Because later epochs see strictly more traffic (cumulative-prefix mode),
// their estimates are monotonically at least as tight under drift-free
// clocks; under drift the freshness of the latest probes is what keeps
// corrections current (experiment E9 measures the sawtooth).
//
// Degraded mode: deployments lose messages, links, and whole processors
// (sim/fault_plan.hpp injects exactly that).  The drivers therefore report
// per-link observation coverage and pairing tallies for every epoch, can
// run on *sliding windows* instead of cumulative prefixes (bounded memory,
// drift-stale probes expire), and can carry forward the previous epochs'
// m̃ls edges for links with zero fresh observations, widened per epoch of
// staleness (core/degraded.hpp).  Epochs whose surviving traffic leaves
// the instance partitioned do not fail: they degrade to per-finiteness-
// component corrections and precision (shifts.hpp), reported in the
// outcome.
//
// Every epoch runs the same fixed stages:
//
//   cut      each view's prefix (or window) before the boundary
//   pair     sends with receives, orphans and duplicates dropped
//   estimate the m̃ls graph, by the estimator the options select:
//              plain extreme folds; MAD-trimmed folds (sync.robust.trim);
//              or, for drifting clocks (drift_rho > 0), the detrending
//              rate estimator (delaymodel/rate_estimator.hpp), after a
//              trim that gates the residuals from each direction's line
//   carry    staleness carry-forward of unobserved edges
//   validate quorum validation of edge pairs (sync.robust.quorum)
//   solve    GLOBAL ESTIMATES + SHIFTS: dense, incremental, or zoned
//            (sync.zones)
//
// An epoch whose m̃ls graph has a negative cycle — the traffic contradicts
// the declared delay assumptions: the bounds are wrong or an agent lies —
// does not abort the run.  It is recorded as `detected` and publishes
// nothing, as the live SyncAgent does, and the next epoch starts clean.
#pragma once

#include <span>

#include "core/degraded.hpp"
#include "core/incremental.hpp"
#include "core/synchronizer.hpp"
#include "delaymodel/rate_estimator.hpp"

namespace cs {

struct EpochOutcome {
  ClockTime boundary{};
  SyncOutcome sync;

  /// Observation census of this epoch's cut (which link directions fed the
  /// estimators, and how much).
  LinkCoverage coverage;

  /// What pairing kept and skipped at this boundary (orphan receives,
  /// duplicate re-deliveries).
  PairingStats pairing;

  /// m̃ls edges reused from earlier epochs by the staleness carry
  /// (0 unless EpochOptions::staleness.carry_forward).
  std::size_t carried_edges{0};

  /// m̃ls edges quorum validation removed (0 unless sync.robust.quorum).
  std::size_t quorum_dropped{0};

  /// Detrending diagnostics (all zero unless EpochOptions::drift_rho > 0).
  drift::DriftFitSummary drift_fit;

  /// The m̃ls graph had a negative cycle.  `sync` then carries no
  /// corrections and a precision of +inf.
  bool detected{false};
};

/// Epoch-driver configuration: the per-epoch pipeline options plus the
/// degraded-mode knobs.
struct EpochOptions {
  SyncOptions sync;

  /// Carry-forward of m̃ls edges for links with no fresh observations.
  StalenessOptions staleness;

  /// Zero (default): epoch k sees the full view prefix before boundary k.
  /// Positive: epoch k sees only events in [boundary_k - window,
  /// boundary_k) — the bounded-memory / drift-aware mode in which links
  /// can genuinely lose all observations and staleness carry matters.
  Duration window{0.0};

  /// Declared oscillator band ρ of the clocks (|rate − 1| <= ρ).  Zero:
  /// drift-free clocks.  Positive: epochs use the detrending estimator,
  /// slopes clamped to 2ρ and estimates widened by ρ·W, re-anchored at the
  /// boundary.  It keeps its own window rule: each epoch pairs the whole
  /// prefix, then fits the observations received in [T - window, T) —
  /// all of them when window is 0, which makes W the boundary itself.
  double drift_rho{0.0};
};

/// Run the pipeline on the cut of every view at each boundary, in order.
/// Boundaries must be increasing.  Epochs whose cuts contain no pairable
/// traffic yield unbounded outcomes (per-component corrections of 0), like
/// any traffic-less instance.
std::vector<EpochOutcome> epochal_synchronize(
    const SystemModel& model, std::span<const View> views,
    std::span<const ClockTime> boundaries, const EpochOptions& options = {});

/// Same contract and (to float tolerance) same results as
/// epochal_synchronize, but epoch k+1 reuses epoch k's APSP closure via a
/// delta-aware update and warm-starts Howard's policy iteration from epoch
/// k's policy (when options.sync.cycle_mean is kHoward).  Consecutive
/// epoch cuts differ in few m̃ls edges, so this is the fast path for long
/// boundary sequences; BENCH_csr.json tracks the speedup.
/// options.sync.metrics additionally receives per-epoch stage timings and
/// incremental-vs-rebuild hit counters.
std::vector<EpochOutcome> epochal_synchronize_incremental(
    const SystemModel& model, std::span<const View> views,
    std::span<const ClockTime> boundaries, const EpochOptions& options = {});

}  // namespace cs
