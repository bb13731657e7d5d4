#include "lab/trial.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "byz/injector.hpp"
#include "common/error.hpp"
#include "core/precision.hpp"
#include "drift/scheduler.hpp"
#include "proto/ping_pong.hpp"
#include "sim/clock.hpp"
#include "sim/simulator.hpp"

namespace cs::lab {
namespace {

/// Ground-truth corrected spread over `members` at real time t: the max
/// pairwise difference of the true corrected clocks.  Drift-free clocks
/// read t − S_p, so their spread is that of x_p − S_p, taken exactly
/// without rounding through t; drifting clocks are read off the
/// oscillators.  0 for fewer than two members.
double honest_spread(std::span<const ProcessorId> members, double t,
                     std::span<const Clock> clocks,
                     std::span<const Duration> offsets,
                     std::span<const double> corrections) {
  if (members.size() < 2) return 0.0;
  double lo = std::numeric_limits<double>::infinity(), hi = -lo;
  for (ProcessorId p : members) {
    const double c = clocks.empty()
                         ? corrections[p] - offsets[p].sec
                         : clocks[p].at(RealTime{t}).sec + corrections[p];
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  return hi - lo;
}

}  // namespace

TrialResult run_trial(const SystemModel& model, const TrialConfig& config) {
  TrialResult result;
  try {
    const std::size_t n = model.processor_count();
    if (config.start_offsets.size() != n)
      throw Error("trial: need one start offset per processor");
    if (!(config.horizon > 0.0) || config.interval < 0.0)
      throw Error("trial: horizon must be positive, interval non-negative");
    if (!(config.sample_lo > 0.0) || config.sample_hi < config.sample_lo)
      throw Error("trial: need 0 < sample_lo <= sample_hi");

    const double horizon = config.horizon;
    const double interval = config.interval;
    const double first_boundary = interval > 0.0 ? interval : horizon / 4.0;
    const double warmup = config.skew + 0.1;
    if (first_boundary <= warmup)
      throw Error("trial: first epoch boundary must exceed the probe warmup");
    const double spacing = first_boundary / 8.0;
    const auto rounds = static_cast<std::size_t>(
        std::ceil((horizon - warmup) / spacing)) + 1;

    std::vector<ClockTime> boundaries;
    if (interval > 0.0) {
      for (double t = interval; t < horizon - 1e-9; t += interval)
        boundaries.push_back(ClockTime{t});
      if (boundaries.empty())
        throw Error("trial: horizon admits no epoch boundary");
    } else {
      boundaries.push_back(ClockTime{first_boundary});
    }

    // The adversary.  Honest membership is a property of the plan, not of
    // the window: an agent that ever lies is scored as Byzantine for the
    // whole trial.  attack_end is when the last liar stops (+inf = never).
    const byz::ByzPlan plan = byz::resolve_byz_plan(config.plan, n);
    std::vector<ProcessorId> honest;
    double attack_end = 0.0;
    for (ProcessorId p = 0; p < n; ++p) {
      const byz::AgentPlan* a = plan.agent(p);
      if (a != nullptr && a->lies())
        attack_end = std::max(attack_end, a->until);
      else
        honest.push_back(p);
    }

    // Faults: the caller's plan (copied) with churn layered on top.  Down
    // windows consume no fault-stream draws, so this composes cleanly.
    FaultPlan faults = config.faults != nullptr ? *config.faults : FaultPlan{};
    byz::ChurnSpec churn = config.churn;
    if (churn.period > 0.0 && churn.horizon == 0.0)
      churn.horizon = horizon + config.skew;
    byz::apply_churn(churn, model.topology(), faults);

    Metrics* metrics = config.epoch.sync.metrics;
    byz::ByzInjector tamper(plan, n, metrics);
    SimOptions opts;
    opts.start_offsets = config.start_offsets;
    opts.seed = config.sim_seed;
    opts.metrics = metrics;
    opts.tamper = &tamper;
    if (config.faults != nullptr || churn.active()) opts.faults = &faults;
    opts.max_events = std::max<std::size_t>(
        1'000'000,
        64 * (rounds + 1) * (model.topology().link_count() + n));

    // Oscillators: the ground-truth clocks the scorer reads, and the
    // declared band that selects the detrending estimator.
    EpochOptions epoch = config.epoch;
    epoch.drift_rho = 0.0;
    std::vector<Clock> clocks;
    if (config.oscillator.drifting()) {
      drift::OscillatorSpec osc = config.oscillator;
      if (osc.kind == drift::OscillatorSpec::Kind::kRandomWalk) {
        if (osc.interval <= 0.0) osc.interval = horizon / 64.0;
        if (osc.horizon <= 0.0) osc.horizon = horizon;
      }
      const drift::DriftAssignment assignment =
          drift::draw_oscillators(osc, n, config.drift_seed);
      assignment.apply(opts);
      clocks.reserve(n);
      for (std::size_t p = 0; p < n; ++p)
        clocks.push_back(assignment.clock(p, config.start_offsets[p]));
      epoch.drift_rho = assignment.rho;
    }
    const double rho = epoch.drift_rho;
    if (epoch.window == Duration{0.0} && interval > 0.0)
      epoch.window = Duration{interval};
    // The effective estimation window W (the whole prefix before a single
    // sync) and the hold allowance the drift bound declares: I itself, or
    // 0 with re-sync disabled — exactly the promise the no-re-sync arm
    // fails to keep.
    result.window = epoch.window > Duration{0.0} ? epoch.window.sec
                                                 : first_boundary;
    const double allowance = interval;

    std::vector<std::unique_ptr<DelaySampler>> samplers;
    samplers.reserve(model.topology().link_count());
    for (std::size_t i = 0; i < model.topology().link_count(); ++i)
      samplers.push_back(make_uniform_sampler(config.sample_lo,
                                              config.sample_hi,
                                              config.sample_lo,
                                              config.sample_hi));
    PingPongParams probes;
    probes.warmup = Duration{warmup};
    probes.spacing = Duration{spacing};
    probes.rounds = rounds;
    const SimResult sim =
        simulate(model, make_ping_pong(probes), std::move(samplers), opts);
    result.lied_stamps = tamper.lied_stamps();
    result.delivered = sim.delivered_messages;
    result.dropped = sim.fault_dropped_messages;
    result.events = sim.delivered_messages + sim.fired_timers;

    const std::vector<View> views = sim.execution.views();
    const std::vector<EpochOutcome> outcomes =
        epochal_synchronize(model, views, boundaries, epoch);
    // Liars (through quorum removals), faults, churn and zone splits may
    // cut the m̃ls graph; those epochs are scored per finiteness
    // component.  A trial with none of them must bound every epoch: an
    // unbounded one means the window carried no usable traffic — a
    // failure, not a silent skip.
    const bool must_bound = plan.liar_count() == 0 && opts.faults == nullptr &&
                            epoch.sync.zones == nullptr;

    bool recovered = false;
    std::vector<ProcessorId> members;
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      const EpochOutcome& e = outcomes[k];
      const SyncOutcome& out = e.sync;
      TrialEpochRow row;
      row.boundary = e.boundary.sec;
      row.detected = e.detected;
      const bool bounded = !e.detected && out.bounded();
      if (must_bound && !e.detected && !bounded)
        throw Error("trial: epoch at T=" + std::to_string(row.boundary) +
                    " is unbounded (no usable traffic in the window)");
      row.quorum_dropped = e.quorum_dropped;
      row.carried_edges = e.carried_edges;
      result.directions_fitted += e.drift_fit.directions_fitted;
      result.directions_raw += e.drift_fit.directions_raw;
      result.max_abs_slope =
          std::max(result.max_abs_slope, e.drift_fit.max_abs_slope);
      result.quorum_dropped_max =
          std::max(result.quorum_dropped_max, row.quorum_dropped);
      if (churn.active()) {
        // Boundaries are clock times; with start skew << churn period the
        // real-time census at the same instant is the honest reading.
        const std::vector<bool> down = byz::links_down_at(
            faults, model.topology(), RealTime{row.boundary});
        row.absent_directions =
            2 * static_cast<std::size_t>(
                    std::count(down.begin(), down.end(), true));
      }

      bool clean_equality = false;
      if (!e.detected) {
        // The corrections are live from this boundary until the next
        // (the horizon for the last epoch).
        const double hold_end = k + 1 < outcomes.size()
                                    ? outcomes[k + 1].boundary.sec
                                    : horizon;
        const double instants[2] = {(row.boundary + hold_end) / 2.0,
                                    hold_end};
        for (std::size_t c = 0; c < out.components.component_count; ++c) {
          members.clear();
          for (ProcessorId p : honest)
            if (out.components.component[p] == c) members.push_back(p);
          const double claim = bounded ? out.optimal_precision.finite()
                                       : out.component_precision[c];
          // A zone split inside (zoned solves group components by zone)
          // claims +inf: no guarantee to hold its members to.
          if (members.size() < 2 || !std::isfinite(claim)) continue;
          const double bound =
              rho > 0.0 ? drift::drift_adjusted_bound(claim, rho,
                                                      result.window, allowance)
                        : claim;
          double realized = 0.0;
          for (const double t : instants)
            realized = std::max(
                realized, honest_spread(members, t, clocks,
                                        config.start_offsets, out.corrections));
          row.claimed = std::max(row.claimed, claim);
          row.bound = std::max(row.bound, bound);
          row.realized = std::max(row.realized, realized);
          if (realized > bound + config.tolerance) row.sound = false;
        }
        // Thm 4.6 equality: the dense residue when bounded, the per-zone
        // and quotient residues of a zoned solve.
        double gap = out.zone_thm46_gap;
        if (bounded && out.ms_estimates.size() != 0)
          gap = std::abs(
              guaranteed_precision(out.ms_estimates, out.corrections)
                  .finite() -
              out.optimal_precision.finite());
        result.thm46_gap = std::max(result.thm46_gap, gap);
        clean_equality = bounded && gap <= 1e-9;
      }

      if (row.detected) {
        ++result.detected_epochs;
      } else if (!row.sound) {
        ++result.violations;
      }
      result.claimed_max = std::max(result.claimed_max, row.claimed);
      result.bound_max = std::max(result.bound_max, row.bound);
      result.realized_max = std::max(result.realized_max, row.realized);

      // Recovery count: epochs strictly after the attack's end until the
      // first fully-clean one (undetected, sound, Thm 4.6 equality).
      if (std::isfinite(attack_end) && row.boundary > attack_end &&
          plan.liar_count() > 0) {
        result.recovery_measured = true;
        if (!recovered) {
          ++result.recovery_epochs;
          recovered = row.sound && clean_equality;
        }
      }
      result.rows.push_back(row);
    }
    result.epochs = result.rows.size();
    result.sound = result.violations == 0;
    result.recovered = recovered;
    result.ok = true;
  } catch (const Error& e) {
    result.ok = false;
    result.failure = e.what();
  }
  return result;
}

}  // namespace cs::lab
