// Byzantine behavior plans: which agents lie, how, and when.
//
// The paper's guarantees (Thm 4.6, Thm 5.5/5.6) assume every processor
// reports its view honestly.  A ByzPlan names the processors that do not,
// mirroring FaultPlan's shape: a declarative schedule, deterministic given
// (plan, seed), executed by a stateful injector (byz/injector.hpp for the
// simulator, runtime/agent.cpp for live payload stamps).
//
// Behavior taxonomy — all lies are on *reported clock stamps*, never on
// physical behavior (see sim/tamper.hpp for why):
//
//   * lie-const   — every stamp shifted by +magnitude.  A *consistent*
//                   lie: indistinguishable from an honest processor whose
//                   clock started magnitude earlier (Lemma 4.1's shift,
//                   applied to the clock instead of real time), so it is
//                   gauge-equivalent and provably harmless to honest
//                   pairs.  Kept as the null-attack control.
//   * lie-ramp    — shift grows linearly from 0 to magnitude over
//                   ramp_span seconds of clock time: a slow, inconsistent
//                   lie (a fake drift) that skews d̃ differently early
//                   and late.
//   * lie-random  — each stamp independently shifted by
//                   uniform(-magnitude, +magnitude) from the agent's
//                   split RNG stream: white-noise corruption, the target
//                   of the MAD-trimmed robust estimator.
//   * replay      — each stamp reports the *previous* event's true stamp
//                   (the first reports its own): stale reports, an
//                   inconsistent lag that varies with event spacing.
//   * equivocate  — receive stamps are shifted by a *sign-coordinated*
//                   per-peer offset: pulled down for lower-id peers,
//                   pushed up for higher-id ones, at a per-peer magnitude
//                   in [3·mag/8, mag/2] (stateless hash of (seed, agent,
//                   peer)); send and timer stamps are untouched.  The
//                   agent tells every neighbor a different story about
//                   their common link — the classical Byzantine attack —
//                   and the sign discipline makes every corrupted 2-hop
//                   path low→liar→high tighten the same way, so honest-
//                   pair m̃s shrinks below the truth while each per-link
//                   pair sum stays intact (no negative 2-cycles, so no
//                   cheap detection).
//
// Magnitude calibration against detection: lies large enough to create a
// negative m̃ls cycle make GLOBAL ESTIMATES throw InvalidAssumption — the
// pipeline *detects* the attack (trial outcome "detected").  The harmful
// regime is below that threshold; docs/BYZ.md derives the slack budget.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "model/ids.hpp"
#include "model/step.hpp"

namespace cs::byz {

enum class Behavior : std::uint8_t {
  kHonest,
  kLieConst,
  kLieRamp,
  kLieRandom,
  kReplay,
  kEquivocate,
};

const char* behavior_name(Behavior b);
/// Inverse of behavior_name; throws cs::Error on unknown names.
Behavior behavior_from_name(const std::string& name);

/// One agent's assignment: a behavior, its amplitude, and the clock-time
/// window in which it is active (outside the window the agent is honest —
/// the recovery trials end attacks this way).
struct AgentPlan {
  ProcessorId pid{0};
  Behavior behavior{Behavior::kHonest};
  /// Lie amplitude in seconds; see the per-behavior semantics above.
  double magnitude{0.0};
  /// Seconds of clock time over which the ramp lie reaches full magnitude.
  double ramp_span{10.0};
  /// Active clock-time window [from, until); lies apply only to stamps
  /// inside it.
  double from{0.0};
  double until{std::numeric_limits<double>::infinity()};

  bool active_at(ClockTime t) const { return from <= t.sec && t.sec < until; }
  bool lies() const { return behavior != Behavior::kHonest && magnitude >= 0.0 &&
                             (behavior == Behavior::kReplay || magnitude > 0.0); }
};

/// The full Byzantine schedule of a run.  Deterministic given (plan,
/// seed): agent selection, per-agent noise streams and per-peer
/// equivocation offsets are all split from `seed`, independent of the sim
/// and fault seeds.
class ByzPlan {
 public:
  /// Seed of the Byzantine randomness streams.
  std::uint64_t seed{0xB12Au};

  /// Register one agent; throws cs::Error on duplicate pids, negative
  /// magnitudes or inverted windows.
  void add(AgentPlan agent);

  /// Assign `f` distinct agents (drawn without replacement from [0, n) on
  /// a stream split from `seed`) the given behavior.  The common path for
  /// lab arms and benches: the *choice* of liars is part of the seeded
  /// experiment, not of the spec.
  void assign_random(std::size_t n, std::size_t f, Behavior behavior,
                     double magnitude);

  const std::vector<AgentPlan>& agents() const { return agents_; }

  /// The assignment of `pid`, or nullptr when honest.
  const AgentPlan* agent(ProcessorId pid) const;

  /// True iff no agent ever lies (empty plan, all-honest behaviors, or
  /// zero-amplitude lies) — the admissibility check stays meaningful.
  bool honest() const;

  /// Number of lying agents.
  std::size_t liar_count() const;

  /// Human-readable one-liner ("equivocate f=2 mag=0.05").
  std::string describe() const;

 private:
  std::vector<AgentPlan> agents_;
};

/// Parse the --byz-plan / campaign grammar:
///
///   none
///   <behavior> f=<count> mag=<seconds> [seed=<u64>] [ramp=<s>]
///              [from=<s>] [until=<s>]
///   <behavior> agents=<pid>[,<pid>...] mag=<seconds> [...]
///
/// with <behavior> one of lie-const | lie-ramp | lie-random | replay |
/// equivocate.  `f=` plans defer agent selection to assign_random at the
/// point of use (the caller knows n); resolve_byz_plan() finishes them.
/// Throws cs::Error on malformed input.
struct ByzPlanSpec {
  Behavior behavior{Behavior::kHonest};
  std::size_t f{0};                    ///< used when agents is empty
  std::vector<ProcessorId> agents;     ///< explicit pids (wins over f)
  double magnitude{0.0};
  double ramp_span{10.0};
  double from{0.0};
  double until{std::numeric_limits<double>::infinity()};
  std::uint64_t seed{0xB12Au};

  bool byzantine() const { return behavior != Behavior::kHonest; }
  std::string describe() const;
};

ByzPlanSpec parse_byz_plan(const std::string& text);

/// Materialize a spec against a concrete processor count.  Throws on
/// out-of-range pids or f >= n.
ByzPlan resolve_byz_plan(const ByzPlanSpec& spec, std::size_t n);

/// The shared lie kernel: the stamp `pid` reports for an event of `kind`
/// with true clock time `truth` and counterparty `peer`.  `rng` is the
/// agent's private stream (exactly one uniform is drawn per call whenever
/// the agent lies, regardless of behavior, so streams stay aligned across
/// behavior changes); `last_truth` carries the replay state (previous true
/// stamp) and `floor` the monotone clamp (History requires nondecreasing
/// stamps), both owned by the caller per agent.
ClockTime lie_stamp(const AgentPlan& agent, std::uint64_t plan_seed,
                    EventKind kind, ClockTime truth, ProcessorId peer,
                    Rng& rng, ClockTime& last_truth, ClockTime& floor);

/// The lie kernel for *payload* stamps — the clock values a live SyncAgent
/// writes into its probe/echo messages (runtime/agent.cpp).  Same draw
/// discipline as lie_stamp (one uniform per call whenever the agent lies),
/// but per-destination: each message has exactly one receiver, so
/// equivocation applies at send time, and there is no monotone floor —
/// payload stamps feed the peer's OnlineEstimator, not a History tape.
ClockTime lie_payload_stamp(const AgentPlan& agent, std::uint64_t plan_seed,
                            ClockTime truth, ProcessorId peer, Rng& rng,
                            ClockTime& last_truth);

}  // namespace cs::byz
