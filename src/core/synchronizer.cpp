#include "core/synchronizer.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/local_estimates.hpp"
#include "core/zones.hpp"

namespace cs {

namespace {

/// SyncOutcome view of a zoned solve (the SyncOptions::zones route).
/// Bounded: mirrors the dense bounded shape (one component covering all
/// nodes, component_precision = {composed bound}).  Unbounded: components
/// grouped by zone with the per-zone Ã^max (which may itself be +inf for an
/// internally-split zone).
SyncOutcome zoned_as_outcome(ZonedOutcome&& z) {
  SyncOutcome out;
  const std::size_t n = z.plan.zone_of.size();
  out.corrections = std::move(z.corrections);
  out.optimal_precision = z.composed_bound;
  if (z.composed_bound.is_finite()) {
    out.components.component.assign(n, 0);
    out.components.component_count = 1;
    out.component_precision = {z.composed_bound.finite()};
  } else {
    out.components.component.assign(z.plan.zone_of.begin(),
                                    z.plan.zone_of.end());
    out.components.component_count = z.plan.count;
    out.component_precision.reserve(z.zones.size());
    for (const ZoneStats& st : z.zones)
      out.component_precision.push_back(st.a_max);
  }
  out.mls_graph = std::move(z.mls_graph);
  out.zone_thm46_gap = z.quotient_thm46_gap;
  for (const ZoneStats& st : z.zones)
    out.zone_thm46_gap = std::max(out.zone_thm46_gap, st.thm46_gap);
  return out;
}

}  // namespace

SyncOutcome synchronize(const SystemModel& model, std::span<const View> views,
                        const SyncOptions& options) {
  if (views.size() != model.processor_count())
    throw InvalidExecution("need exactly one view per processor");
  for (std::size_t i = 0; i < views.size(); ++i)
    if (views[i].pid != i)
      throw InvalidExecution("views must be ordered by processor id");

  Digraph mls;
  {
    auto timer =
        Metrics::scoped(options.metrics, "stage.local_estimates_seconds");
    if (options.robust.trim) {
      // The robust path materializes the traffic so the MAD gate can see
      // individual observations before the extreme folds.
      LinkTraffic traffic =
          LinkTraffic::estimated_from_views(views, options.match);
      traffic = trimmed_traffic(traffic, model, options.robust.trim_gate,
                                options.metrics);
      mls = mls_graph_from_traffic(model, traffic, options.threads);
    } else {
      mls =
          local_shift_estimates(model, views, options.match, options.threads);
    }
    if (options.robust.quorum > 0)
      mls = quorum_validated_mls(mls, options.robust, options.metrics);
  }
  return synchronize_mls(std::move(mls), options);
}

SyncOutcome synchronize_mls(Digraph mls_graph, const SyncOptions& options) {
  if (options.zones != nullptr)
    return zoned_as_outcome(
        synchronize_zoned_mls(std::move(mls_graph), *options.zones, options));

  SyncOutcome out;
  out.mls_graph = std::move(mls_graph);
  out.ms_estimates =
      global_shift_estimates(out.mls_graph, options.apsp, options.metrics);

  ShiftsOptions shift_options;
  shift_options.root = options.root;
  shift_options.algorithm = options.cycle_mean;
  shift_options.metrics = options.metrics;
  shift_options.threads = options.threads;
  ShiftsResult shifts = compute_shifts(out.ms_estimates, shift_options);
  out.corrections = std::move(shifts.corrections);
  out.optimal_precision = shifts.a_max;
  out.components = std::move(shifts.components);
  out.component_precision = std::move(shifts.component_a_max);
  metrics_increment(options.metrics, "pipeline.runs");
  return out;
}

}  // namespace cs
