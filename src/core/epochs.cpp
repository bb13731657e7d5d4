#include "core/epochs.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/local_estimates.hpp"

namespace cs {
namespace {

void check_inputs(const SystemModel& model, std::span<const View> views,
                  std::span<const ClockTime> boundaries) {
  if (views.size() != model.processor_count())
    throw InvalidExecution("need exactly one view per processor");
  for (std::size_t i = 0; i < views.size(); ++i)
    if (views[i].pid != i)
      throw InvalidExecution("views must be ordered by processor id");
  for (std::size_t i = 1; i < boundaries.size(); ++i)
    if (!(boundaries[i - 1] < boundaries[i]))
      throw Error("epoch boundaries must be strictly increasing");
}

/// The estimate stage: the epoch's m̃ls graph from its paired traffic.
Digraph estimate_mls(const SystemModel& model, LinkTraffic& traffic,
                     ClockTime boundary, const EpochOptions& options,
                     EpochOutcome& epoch) {
  const SyncOptions& sync = options.sync;
  const bool drifting = options.drift_rho > 0.0;
  if (sync.robust.trim)
    traffic = trimmed_traffic(traffic, model, sync.robust.trim_gate,
                              sync.metrics, /*detrend=*/drifting);
  if (drifting) {
    drift::DriftWindowOptions win;
    win.boundary = boundary.sec;
    win.window = options.window.sec;
    win.max_slope = 2.0 * options.drift_rho;
    win.guard = options.drift_rho *
                (options.window > Duration{0.0} ? options.window.sec
                                                : boundary.sec);
    return mls_graph_from_stats(
        model,
        drift::drift_adjusted_link_stats(model, traffic, win,
                                         &epoch.drift_fit));
  }
  return mls_graph_from_traffic(model, traffic, sync.threads);
}

/// The one epoch loop behind both entry points; `solve` is the pipeline
/// tail (from-scratch or incremental).  Stages: see epochs.hpp.
template <typename Solve>
std::vector<EpochOutcome> drive_epochs(const SystemModel& model,
                                       std::span<const View> views,
                                       std::span<const ClockTime> boundaries,
                                       const EpochOptions& options,
                                       Solve&& solve) {
  check_inputs(model, views, boundaries);
  Metrics* metrics = options.sync.metrics;
  MlsCarry carry(options.staleness, metrics);
  // The detrending estimator windows by receive stamp itself, so its cut
  // is always the prefix.
  const bool cut_window =
      options.window > Duration{0.0} && !(options.drift_rho > 0.0);

  std::vector<EpochOutcome> out;
  out.reserve(boundaries.size());
  std::vector<View> cuts(views.size());
  for (const ClockTime boundary : boundaries) {
    auto timer = Metrics::scoped(metrics, "stage.epoch_seconds");
    for (std::size_t p = 0; p < views.size(); ++p)
      cuts[p] = cut_window
                    ? views[p].window(boundary - options.window, boundary)
                    : views[p].prefix(boundary);

    EpochOutcome epoch;
    epoch.boundary = boundary;

    Digraph mls;
    {
      auto est_timer =
          Metrics::scoped(metrics, "stage.local_estimates_seconds");
      // Epoch cuts are taken at clock boundaries, so orphan receives are
      // normal; under fault injection so are duplicate re-deliveries.
      LinkTraffic traffic = LinkTraffic::estimated_from_views(
          cuts, MatchPolicy::kDropOrphans, &epoch.pairing);
      epoch.coverage = link_coverage(model, traffic);
      mls = estimate_mls(model, traffic, boundary, options, epoch);
    }
    metrics_increment(metrics, "degraded.orphan_receives",
                      epoch.pairing.orphan_receives);
    metrics_increment(metrics, "degraded.duplicate_receives",
                      epoch.pairing.duplicate_receives);
    metrics_increment(
        metrics, "degraded.unobserved_directions",
        epoch.coverage.total_directions - epoch.coverage.observed_directions);

    Digraph effective = carry.apply(mls);
    epoch.carried_edges = carry.last_carried();
    if (options.sync.robust.quorum > 0) {
      const std::size_t before = effective.edge_count();
      effective = quorum_validated_mls(effective, options.sync.robust, metrics);
      epoch.quorum_dropped = before - effective.edge_count();
    }

    try {
      epoch.sync = solve(std::move(effective));
    } catch (const InvalidAssumption&) {
      epoch.detected = true;
      epoch.sync = SyncOutcome{};
      epoch.sync.optimal_precision = ExtReal::infinity();
      metrics_increment(metrics, "pipeline.detected_epochs");
    }
    out.push_back(std::move(epoch));
    metrics_increment(metrics, "pipeline.epochs");
  }
  return out;
}

}  // namespace

std::vector<EpochOutcome> epochal_synchronize(
    const SystemModel& model, std::span<const View> views,
    std::span<const ClockTime> boundaries, const EpochOptions& options) {
  return drive_epochs(model, views, boundaries, options,
                      [&](Digraph mls) {
                        return synchronize_mls(std::move(mls), options.sync);
                      });
}

std::vector<EpochOutcome> epochal_synchronize_incremental(
    const SystemModel& model, std::span<const View> views,
    std::span<const ClockTime> boundaries, const EpochOptions& options) {
  // The incremental synchronizer maintains a dense APSP closure across
  // epochs — the very matrix a zone plan exists to avoid.  Zoned epochs
  // therefore run the per-epoch zoned solve instead (itself the fast path;
  // there is no dense state to delta-update).
  if (options.sync.zones != nullptr) {
    metrics_increment(options.sync.metrics, "pipeline.zoned_epoch_fallbacks");
    return epochal_synchronize(model, views, boundaries, options);
  }
  IncrementalSynchronizer sync(model, options.sync);
  return drive_epochs(model, views, boundaries, options,
                      [&](Digraph mls) {
                        return sync.step_mls(std::move(mls));
                      });
}

}  // namespace cs
