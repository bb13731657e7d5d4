// The parallel sweep executor: expand a campaign spec, fan the tasks out
// over the work-stealing pool, validate every instance against the paper's
// claims, and collect per-task results for lab/stats aggregation.
//
// Determinism contract (the "byte-identical regardless of thread count"
// guarantee):
//
//   * task seed = derive_task_seed(campaign seed, task index) — a pure
//     splitmix64-style hash, independent of scheduling;
//   * every random draw of a task (topology wiring, start offsets, delay
//     streams, fault streams) comes from RNGs derived from that seed alone;
//   * results land in a pre-sized vector slot keyed by task index, and
//     aggregation (lab/stats) walks that vector in index order.
//
// Wall-clock fields (TaskResult::seconds, CampaignResult::wall_seconds and
// anything derived, e.g. events/s) are the only nondeterministic outputs;
// the report writers segregate them so the deterministic sections can be
// byte-compared across runs (see docs/LAB.md).
//
// Validation per task (fault-free, bounded instances):
//
//   * Theorem 4.6 equality: ρ̄(SHIFTS corrections) == Ã^max, within
//     kThm46Tolerance (pure IEEE arithmetic noise; documented in LAB.md);
//   * soundness: ground-truth realized precision ρ <= Ã^max + tolerance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/pool.hpp"
#include "lab/spec.hpp"

namespace cs::lab {

/// Tolerance of the Theorem 4.6 equality and soundness checks.  The two
/// sides are the same IEEE doubles pushed through max-cycle-mean vs
/// max-over-pairs evaluation; the residual is rounding noise orders of
/// magnitude below any delay scale the samplers produce.
inline constexpr double kThm46Tolerance = 1e-9;

/// splitmix64-based task seed derivation.  Pure function of
/// (campaign_seed, stream): identical for every thread count, platform and
/// scheduling order.  Also used for a task's derived sub-streams (fault
/// seed, sim seed) with small fixed stream offsets.
std::uint64_t derive_task_seed(std::uint64_t campaign_seed,
                               std::uint64_t stream);

struct TaskResult {
  bool ok{false};            ///< ran to completion (false => see `failure`)
  std::string failure;
  bool bounded{false};       ///< Ã^max finite
  double claimed{0.0};       ///< Ã^max when bounded
  double guaranteed{0.0};    ///< ρ̄ of the SHIFTS corrections (finite dirs)
  double realized{0.0};      ///< ground-truth ρ against the true offsets
  double thm46_gap{0.0};     ///< |ρ̄ - Ã^max| (bounded instances)
  bool sound{true};          ///< realized <= claimed + tolerance
  std::size_t nodes{0};
  std::size_t links{0};
  std::size_t events{0};     ///< delivered messages + fired timers
  std::size_t delivered{0};
  std::size_t dropped{0};    ///< fault-dropped sends (drops + outages)
  double seconds{0.0};       ///< wall clock — nondeterministic, timing-only

  // Zones-axis fields (meaningful only when zoned).  On a zoned arm,
  // `claimed` is the Thm 5.5/5.6 composed bound (an upper bound, not the
  // dense instance optimum), `guaranteed` repeats it (the dense m̃s matrix
  // is never materialized), and `thm46_gap` is the max Theorem 4.6
  // equality residual over every per-zone solve and the quotient solve —
  // so the standard report gates enforce per-zone optimality.  Zoned drift
  // or byz arms solve through the epoch trial, which sees the composed
  // outcome and its per-zone and quotient residues (thm46_gap): they fill
  // zone_count and zone_max_size, and leave zone_a_max_max and the
  // realized split at 0.
  bool zoned{false};
  std::size_t zone_count{0};
  std::size_t zone_max_size{0};   ///< nodes in the largest zone
  double zone_a_max_max{0.0};     ///< max per-zone Ã^max_Z (bounded zones)
  double realized_intra{0.0};     ///< max within-zone realized discrepancy
  double realized_cross{0.0};     ///< max cross-zone realized discrepancy

  // Drift-axis fields (meaningful only when drifting; src/drift).  On a
  // drifting arm `claimed` is the max per-epoch Ã^max of the drift-adjusted
  // estimates, `realized` the max ground-truth corrected spread over every
  // epoch's hold interval, and `sound` compares realized against
  // drift_bound (= claimed + 2ρ·(window + interval), scheduler.hpp) rather
  // than claimed alone.  `thm46_gap` is the max per-epoch equality residual,
  // so the standard gates still enforce Thm 4.6 on the drift-adjusted
  // instances.
  bool drifting{false};
  double drift_rho{0.0};          ///< declared oscillator band ρ
  double drift_window{0.0};       ///< effective estimation window W
  std::size_t drift_epochs{0};    ///< re-sync epochs evaluated
  double drift_bound{0.0};        ///< max drift-adjusted bound over epochs
  double drift_slope{0.0};        ///< max fitted |rate difference| seen

  // Byz-axis fields (meaningful only when byzantine; src/byz).  On a
  // Byzantine arm `claimed`/`realized`/`sound` are evaluated over the
  // *honest* agents only — liars forfeit the guarantee, Thm 4.6 still owes
  // one to everyone else — and a `byz_detected` epoch is a synchronization
  // outage (the pipeline rejected the epoch as InvalidAssumption, honest
  // agents got no corrections), which the --check gate counts as a failure
  // alongside soundness violations.  Detection is counted on drift arms
  // too: there it means the estimator guard was too thin for the drift.
  bool byzantine{false};
  std::size_t byz_epochs{0};         ///< re-sync epochs evaluated
  std::size_t byz_detected{0};       ///< detected epochs (any trial arm)
  std::size_t byz_violations{0};     ///< epochs with an unsound honest claim
  std::size_t byz_lied_stamps{0};    ///< timestamps the adversary corrupted
  std::size_t byz_quorum_dropped{0}; ///< max m̃ls edges quorum removed/epoch
};

struct RunOptions {
  std::size_t threads{0};        ///< 0 = all hardware threads
  Metrics* metrics{nullptr};     ///< shared sink: pool, sim and stage metrics
  double tolerance{kThm46Tolerance};

  /// Worker threads *inside* each task (per-zone solves, estimator folds);
  /// results are byte-identical for any value.  Default 1: campaigns with
  /// many tasks parallelize across tasks.  Raise it for campaigns of few
  /// huge zoned tasks (the 100k fabric runs one task of 516 zone solves).
  std::size_t task_threads{1};
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<TaskSpec> tasks;      ///< odometer order; tasks[i].index == i
  std::vector<TaskResult> results;  ///< by task index
  std::size_t threads{1};
  double wall_seconds{0.0};         ///< nondeterministic, timing-only
};

/// Runs one expanded task to completion.  Never throws for per-instance
/// pipeline failures — those come back as ok == false with the message —
/// but spec-level errors (unknown family/mix) propagate.
TaskResult run_task(const CampaignSpec& spec, const TaskSpec& task,
                    double tolerance = kThm46Tolerance,
                    std::size_t task_threads = 1);

/// Expands the spec and runs every task across the pool.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const RunOptions& options = {});

}  // namespace cs::lab
