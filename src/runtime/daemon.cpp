#include "runtime/daemon.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "core/epochs.hpp"
#include "core/zones.hpp"
#include "runtime/clock.hpp"
#include "runtime/host.hpp"
#include "runtime/loopback.hpp"
#include "runtime/udp_transport.hpp"
#include "trace/writer.hpp"

namespace cs {

const char* to_string(LiveTransportKind kind) {
  switch (kind) {
    case LiveTransportKind::kLoopback: return "loopback";
    case LiveTransportKind::kLoopbackThreaded: return "loopback-threaded";
    case LiveTransportKind::kUdp: return "udp";
  }
  return "?";
}

namespace {

/// Breaks the host <-> transport construction cycle in virtual mode: the
/// transport needs a scheduler at construction, the host needs the
/// transport at construction.
struct SchedulerProxy final : VirtualScheduler {
  VirtualScheduler* target{nullptr};
  void schedule_delivery(RealTime at, WireMessage msg) override {
    target->schedule_delivery(at, std::move(msg));
  }
};

double spread(const std::vector<double>& corrected) {
  const auto [lo, hi] =
      std::minmax_element(corrected.begin(), corrected.end());
  return *hi - *lo;
}

}  // namespace

LiveReport run_live(const SystemModel& model, const LiveConfig& config) {
  const std::size_t n = model.processor_count();
  if (n < 2) throw Error("run_live: need at least two agents");

  std::vector<Duration> offsets = config.start_offsets;
  if (offsets.empty()) {
    Rng rng(config.seed ^ 0xC10C0FF5E75ULL);
    offsets = random_start_offsets(n, config.skew, rng);
  }
  if (offsets.size() != n)
    throw Error("run_live: start_offsets size must equal processor count");

  // Fit the epoch schedule to the drift budget before anything is built:
  // an active budget clamps the period so clocks inside the declared band
  // cannot diverge by more than `slack` between re-synchronizations, and
  // stretches the epoch count to keep the requested coverage span
  // (drift/scheduler.hpp).  All downstream consumers — agents, boundary
  // list, offline cross-check — see only the fitted schedule.
  SyncAgentParams agent = config.agent;
  const drift::ResyncPlan resync =
      drift::plan_resync(config.drift, agent.period, agent.epochs);
  agent.period = resync.period;
  agent.epochs = resync.epochs;

  // Resolve the Byzantine plan against this model's processor count; the
  // plan must outlive the run (the agents hold a pointer).
  const byz::ByzPlan byz_plan = byz::resolve_byz_plan(config.byz, n);
  const bool dishonest = !byz_plan.honest();
  if (dishonest) agent.byz = &byz_plan;

  LiveResults results(n, agent);
  const AutomatonFactory factory = make_sync_agents(&model, agent, &results);

  LiveReport report;
  report.transport = to_string(config.transport);
  report.agents = n;
  report.start_offsets = offsets;
  report.resync_period = agent.period;
  report.resync_epochs = agent.epochs;
  report.resync_clamped = resync.clamped;
  if (config.drift.active()) {
    report.metrics.observe("runtime.drift.rho", config.drift.rho);
    report.metrics.observe("runtime.drift.slack", config.drift.slack);
    report.metrics.observe(
        "runtime.drift.max_interval",
        drift::max_resync_interval(config.drift.rho, config.drift.slack));
    report.metrics.observe("runtime.drift.period", agent.period.sec);
    if (resync.clamped) report.metrics.increment("runtime.drift.clamped");
  }

  // Time base, transport and host, wired per transport kind.
  const bool is_virtual = config.transport == LiveTransportKind::kLoopback;
  VirtualTimeBase virtual_time;
  WallTimeBase wall_time;
  TimeBase& time =
      is_virtual ? static_cast<TimeBase&>(virtual_time) : wall_time;

  SchedulerProxy proxy;
  std::unique_ptr<Transport> transport;
  switch (config.transport) {
    case LiveTransportKind::kLoopback:
    case LiveTransportKind::kLoopbackThreaded: {
      LoopbackOptions opts;
      opts.seed = config.seed;
      opts.delay_scale = config.delay_scale;
      opts.drop_probability = config.drop_probability;
      transport = std::make_unique<LoopbackTransport>(
          model, time, is_virtual ? &proxy : nullptr, opts);
      break;
    }
    case LiveTransportKind::kUdp:
      transport = std::make_unique<UdpTransport>(n, config.udp);
      break;
  }

  std::optional<TraceWriter> writer;
  if (!config.trace_path.empty()) writer.emplace(config.trace_path);

  HostOptions host_options;
  host_options.start_offsets = offsets;
  host_options.seed = config.seed;
  host_options.max_events = config.max_events;
  host_options.deadline = config.deadline;
  host_options.metrics = &report.metrics;
  host_options.trace = writer ? &*writer : nullptr;
  // Keep §7 control traffic (reports, corrections) out of the analyzed
  // views and the trace: the paper's remark after Lemma 7.1 — extra
  // messages would only extend the views and tighten the bound — so the
  // analyzed instance is the probe exchange alone, identically live and
  // offline.  Timers are always recorded.
  host_options.trace_filter = [](const Payload& payload) {
    return payload.tag == kTagLiveProbe || payload.tag == kTagLiveEcho;
  };

  AgentHost host(model, *transport, time, host_options);
  proxy.target = &host;

  transport->start();
  const RunStats stats =
      host.run(factory, [&results] { return results.all_complete(); });
  transport->stop();

  report.dispatched = stats.dispatched;
  report.timed_out = stats.timed_out;
  report.converged = results.all_complete();
  report.byzantine = dishonest;
  report.byz_liars = byz_plan.liar_count();
  if (dishonest)
    report.metrics.observe("runtime.byz.liars",
                           static_cast<double>(byz_plan.liar_count()));

  // Per-epoch report rows with ground-truth realized precision.
  for (const LiveEpoch& live : results.epochs()) {
    LiveEpochReport row;
    row.epoch = live.epoch;
    row.boundary = live.boundary;
    row.corrections = live.corrections;
    row.claimed_precision = live.claimed_precision;
    row.degraded = live.degraded;
    row.detected = live.detected;
    if (live.detected) {
      ++report.detected_epochs;
      report.metrics.increment("runtime.detected_epochs");
    }
    row.reports_absorbed = live.reports_absorbed;
    row.acks = live.acks;
    if (live.computed() && config.drift.active() &&
        live.claimed_precision.has_value()) {
      row.drift_bound = *live.claimed_precision + config.drift.slack;
      report.metrics.observe("runtime.drift.epoch_bound", *row.drift_bound);
    }
    if (live.computed() && live.corrections.size() == n) {
      std::vector<double> corrected(n);
      for (std::size_t p = 0; p < n; ++p)
        corrected[p] = live.corrections[p] - offsets[p].sec;
      row.realized_precision = spread(corrected);
      if (config.zones != nullptr) {
        // d_p = S_p - x_p is the negation of `corrected`; max-min spreads
        // are negation-invariant, so the zoned splitter applies as-is.
        std::vector<RealTime> starts(n);
        for (std::size_t p = 0; p < n; ++p)
          starts[p] = RealTime{offsets[p].sec};
        const ZoneRealized split = realized_precision_zoned(
            starts, live.corrections, *config.zones);
        row.realized_intra = split.intra;
        row.realized_cross = split.cross;
      }
    }
    report.epochs.push_back(std::move(row));
  }

  // Offline cross-check: the same pipeline over the recorded views at the
  // same boundaries.  In deterministic loopback mode (and in any run where
  // no report was missing) the live corrections must equal these
  // bit-for-bit.
  const std::vector<ClockTime> boundaries = sync_agent_boundaries(agent);
  Metrics pipeline_metrics;
  EpochOptions epoch_options;
  epoch_options.sync = agent.sync;
  epoch_options.sync.root = agent.leader;
  epoch_options.sync.match = MatchPolicy::kDropOrphans;
  epoch_options.sync.metrics = &pipeline_metrics;

  // On a dishonest run the recorded views carry the *true* stamps while
  // the live leader computed from lied payloads, so the bitwise comparison
  // is meaningless by construction — skip it (report.checked stays false)
  // and let the realized_precision rows carry the damage report.  Detected
  // outages compare like any epoch: the offline driver reports the same
  // inadmissible traffic as a detected epoch (precision +inf, no
  // corrections), exactly what the live leader publishes.
  std::vector<EpochOutcome> offline;
  if (!dishonest && (config.offline_check || writer)) {
    offline = epochal_synchronize_incremental(model, host.views(),
                                              boundaries, epoch_options);
  }
  if (config.offline_check && !dishonest) {
    report.checked = true;
    report.all_match = true;
    for (std::size_t k = 0; k < offline.size(); ++k) {
      LiveEpochReport& row = report.epochs[k];
      const SyncOutcome& ref = offline[k].sync;
      row.offline_precision = ref.optimal_precision.value();
      row.offline_corrections = ref.corrections;
      row.matches_offline =
          row.claimed_precision.has_value() &&
          *row.claimed_precision == ref.optimal_precision.value() &&
          row.corrections == ref.corrections;
      if (row.claimed_precision.has_value() && !row.matches_offline)
        report.all_match = false;
      if (!row.claimed_precision.has_value()) report.all_match = false;
    }
    report.metrics.merge(pipeline_metrics);
  }

  if (writer) {
    // Post-event sections, mirroring record_run(): the plan, the offline
    // outcomes (which a replay recomputes bit-identically from the event
    // records), and the deterministic counters.  Replay derives its
    // "fault.dropped" from the recorded loss events, so the counters
    // section pre-seeds the same tally next to the pipeline's counters.
    ReplayPlan plan;
    plan.options = epoch_options;
    plan.options.sync.metrics = nullptr;
    plan.boundaries = boundaries;
    plan.incremental = true;
    writer->plan(plan);
    for (const EpochOutcome& outcome : offline) writer->outcome(outcome);

    std::size_t recorded_drops = 0;
    for (const TraceEvent& ev : writer->trace().events)
      if (ev.kind == TraceEvent::Kind::kLoss) ++recorded_drops;
    if (recorded_drops > 0)
      pipeline_metrics.increment("fault.dropped", recorded_drops);
    writer->counters(pipeline_metrics);
    writer->finish();
  }

  return report;
}

}  // namespace cs
