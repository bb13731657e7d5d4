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
#pragma once

#include <span>

#include "core/degraded.hpp"
#include "core/incremental.hpp"
#include "core/synchronizer.hpp"

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
};

/// Run the pipeline on the cut of every view at each boundary, in order.
/// Boundaries must be increasing.  Epochs whose cuts contain no pairable
/// traffic yield unbounded outcomes (per-component corrections of 0), like
/// any traffic-less instance.
std::vector<EpochOutcome> epochal_synchronize(
    const SystemModel& model, std::span<const View> views,
    std::span<const ClockTime> boundaries, const EpochOptions& options);

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
    std::span<const ClockTime> boundaries, const EpochOptions& options);

/// Convenience overloads preserving the historical SyncOptions signature
/// (cumulative prefixes, no carry-forward).
std::vector<EpochOutcome> epochal_synchronize(
    const SystemModel& model, std::span<const View> views,
    std::span<const ClockTime> boundaries, const SyncOptions& options = {});
std::vector<EpochOutcome> epochal_synchronize_incremental(
    const SystemModel& model, std::span<const View> views,
    std::span<const ClockTime> boundaries, const SyncOptions& options = {});

}  // namespace cs
