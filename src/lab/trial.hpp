// The epoch trial: one simulated instance, re-synchronized at every epoch
// boundary and scored against ground truth.  The cs_lab drift and byz
// axes, bench_e17_drift and bench_e18_byz all run it.  A trial
//
//   1. simulates ping-pong probing every I/8 (I the epoch interval), with
//      actual delays uniform in [sample_lo, sample_hi] on every link and,
//      optionally, drifting oscillators, a ByzPlan corrupting the chosen
//      agents' recorded stamps, link churn and a fault plan;
//   2. runs the epoch pipeline (core/epochs.hpp: cut, pair, estimate,
//      carry, validate, solve) at boundaries I, 2I, ... < H — or, with
//      I = 0, once at H/4 over the cumulative prefix, held to H;
//   3. scores every epoch on the honest agents (all of them when nobody
//      lies), per finiteness component with >= 2 honest members: their
//      true corrected spread at the middle and the end of the hold
//      interval against the component's claimed bound — drift-adjusted
//      when clocks drift (drift/scheduler.hpp), the composed bound when
//      zoned.  An epoch is *detected* (negative m̃ls cycle: loud, nobody
//      misled), *sound*, or *violated* (the silent failure robust
//      estimators exist to prevent).  A trial with no liars, no faults,
//      no churn and a dense solve fails on an unbounded epoch: nothing in
//      it may cut the graph, so its window carried no usable traffic.
//
// Recovery: when every liar's active window ends before the horizon, the
// trial counts epochs from the attack's end until the first one that is
// undetected, sound, bounded and back on the Thm 4.6 equality — how long
// the corrupted estimator state (window remnants, staleness carry) keeps
// poisoning corrections (docs/BYZ.md).
//
// Keep actual delays strictly inside the declared band (the lab and the
// benches use its middle quarter): the slack absorbs the drift
// estimator's re-anchoring error and makes sub-detection-threshold lies
// possible — the regime worth measuring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "byz/churn.hpp"
#include "byz/plan.hpp"
#include "core/epochs.hpp"
#include "drift/oscillator.hpp"

namespace cs::lab {

struct TrialConfig {
  /// The per-epoch pipeline: sync.robust selects the trimmed and quorum
  /// estimators, sync.zones the zoned solve, staleness the carry,
  /// sync.metrics the instrumentation sink (the simulation's too).
  /// window 0 = one interval (the cumulative prefix when interval is 0).
  /// drift_rho is set from `oscillator`.
  EpochOptions epoch;

  /// The adversary (resolved against the model's processor count).
  byz::ByzPlanSpec plan;

  /// Optional link churn, compiled into the trial's fault plan (horizon
  /// defaults to the trial horizon plus the skew).
  byz::ChurnSpec churn;

  /// Optional fault plan (drops, crashes); churn layers on a copy.
  const FaultPlan* faults{nullptr};

  /// Oscillator model; kNone (or 0 ppm) = drift-free clocks.
  drift::OscillatorSpec oscillator;

  /// Evaluation horizon H (> 0).
  double horizon{0.0};
  /// Epoch boundaries at I, 2I, ... < H (clock time); 0 = one sync at H/4.
  double interval{0.0};
  /// Maximum start skew the offsets were drawn from (the probe warmup
  /// must outlast it).
  double skew{0.25};
  /// Uniform actual-delay range, both directions of every link.
  double sample_lo{0.0};
  double sample_hi{0.0};

  std::uint64_t sim_seed{1};
  std::uint64_t drift_seed{2};
  /// One per processor (required).
  std::vector<Duration> start_offsets;
  double tolerance{1e-9};
};

struct TrialEpochRow {
  double boundary{0.0};
  bool detected{false};
  /// Max claimed bound over the scored components (Ã^max when bounded).
  double claimed{0.0};
  /// Max bound the honest agents are held to: `claimed`, drift-adjusted
  /// when clocks drift.
  double bound{0.0};
  /// Max honest corrected spread over the hold interval.
  double realized{0.0};
  bool sound{true};
  std::size_t quorum_dropped{0};
  std::size_t carried_edges{0};
  /// Directions of links churned down at the boundary.
  std::size_t absent_directions{0};
};

struct TrialResult {
  bool ok{false};
  std::string failure;

  std::vector<TrialEpochRow> rows;
  std::size_t epochs{0};
  std::size_t detected_epochs{0};
  std::size_t violations{0};  ///< undetected epochs that broke the bound
  bool sound{true};           ///< violations == 0

  double window{0.0};  ///< effective estimation window W
  double claimed_max{0.0};
  double bound_max{0.0};
  double realized_max{0.0};
  /// Max Thm 4.6 equality residue: |ρ̄ − Ã^max| over bounded dense
  /// epochs, the per-zone and quotient residues over zoned ones.
  double thm46_gap{0.0};

  /// Detrending diagnostics, summed (max for the slope) over epochs.
  std::size_t directions_fitted{0};
  std::size_t directions_raw{0};
  double max_abs_slope{0.0};

  /// Recovery metric (see header comment); measured only when the attack
  /// ends before the horizon.
  bool recovery_measured{false};
  bool recovered{false};
  std::size_t recovery_epochs{0};

  std::size_t lied_stamps{0};
  std::size_t quorum_dropped_max{0};
  std::size_t delivered{0};
  std::size_t dropped{0};
  std::size_t events{0};
};

/// Run one trial.  Throws nothing: configuration and pipeline errors come
/// back as ok == false with the message in `failure`.
TrialResult run_trial(const SystemModel& model, const TrialConfig& config);

}  // namespace cs::lab
