#include "delaymodel/rate_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace cs::drift {

RateFit fit_rate(std::span<const TimedObs> obs) {
  RateFit fit;
  fit.count = obs.size();
  if (obs.empty()) return fit;

  double mean_s = 0.0, mean_d = 0.0;
  for (const TimedObs& o : obs) {
    mean_s += o.send;
    mean_d += o.delay;
  }
  mean_s /= static_cast<double>(obs.size());
  mean_d /= static_cast<double>(obs.size());

  double sxx = 0.0, sxd = 0.0;
  for (const TimedObs& o : obs) {
    const double ds = o.send - mean_s;
    sxx += ds * ds;
    sxd += ds * (o.delay - mean_d);
  }
  fit.slope = sxx > 0.0 ? sxd / sxx : 0.0;
  fit.intercept = mean_d - fit.slope * mean_s;

  bool first = true;
  for (const TimedObs& o : obs) {
    const double r = o.delay - fit.predict(o.send);
    if (first) {
      fit.residual_min = fit.residual_max = r;
      first = false;
    } else {
      fit.residual_min = std::min(fit.residual_min, r);
      fit.residual_max = std::max(fit.residual_max, r);
    }
  }
  return fit;
}

namespace {

/// Re-fit the intercept and residual band around a clamped slope (the
/// line must still pass through the centroid, and the band must still
/// cover every observation).
RateFit refit_with_slope(std::span<const TimedObs> obs, double slope) {
  RateFit fit;
  fit.count = obs.size();
  fit.slope = slope;
  double mean_s = 0.0, mean_d = 0.0;
  for (const TimedObs& o : obs) {
    mean_s += o.send;
    mean_d += o.delay;
  }
  mean_s /= static_cast<double>(obs.size());
  mean_d /= static_cast<double>(obs.size());
  fit.intercept = mean_d - slope * mean_s;
  bool first = true;
  for (const TimedObs& o : obs) {
    const double r = o.delay - fit.predict(o.send);
    if (first) {
      fit.residual_min = fit.residual_max = r;
      first = false;
    } else {
      fit.residual_min = std::min(fit.residual_min, r);
      fit.residual_max = std::max(fit.residual_max, r);
    }
  }
  return fit;
}

struct DirectionResult {
  DirectedStats stats;
  bool fitted{false};
  double abs_slope{0.0};
};

DirectionResult adjust_direction(std::span<const TimedObs> obs,
                                 const DriftWindowOptions& options) {
  DirectionResult out;
  // Window by the epoch cut: a message is visible iff both its send stamp
  // and its receive stamp (= send + d̃, both clock readings) precede the
  // boundary; the sliding window keys on the receive stamp.
  std::vector<TimedObs> in_window;
  in_window.reserve(obs.size());
  for (const TimedObs& o : obs) {
    const double recv = o.send + o.delay;
    if (o.send >= options.boundary || recv >= options.boundary) continue;
    if (options.window > 0.0 && recv < options.boundary - options.window)
      continue;
    in_window.push_back(o);
  }
  if (in_window.empty()) return out;

  if (in_window.size() < options.min_count) {
    for (const TimedObs& o : in_window) out.stats.add(o.delay);
    return out;
  }

  RateFit fit = fit_rate(in_window);
  if (options.max_slope > 0.0 && std::abs(fit.slope) > options.max_slope)
    fit = refit_with_slope(
        in_window, std::clamp(fit.slope, -options.max_slope,
                              options.max_slope));

  const double anchored = fit.predict(options.boundary);
  out.stats.dmin =
      ExtReal{anchored + fit.residual_min - options.guard};
  out.stats.dmax =
      ExtReal{anchored + fit.residual_max + options.guard};
  out.stats.count = in_window.size();
  out.fitted = true;
  out.abs_slope = std::abs(fit.slope);
  return out;
}

}  // namespace

DirectedStats drift_adjusted_stats(std::span<const TimedObs> obs,
                                   const DriftWindowOptions& options) {
  return adjust_direction(obs, options).stats;
}

LinkStats drift_adjusted_link_stats(const SystemModel& model,
                                    const LinkTraffic& traffic,
                                    const DriftWindowOptions& options,
                                    DriftFitSummary* summary) {
  LinkStats out;
  for (auto [a, b] : model.topology().links) {
    const ProcessorId ends[2][2] = {{a, b}, {b, a}};
    for (const auto& [p, q] : ends) {
      const DirectionResult r =
          adjust_direction(traffic.direction(p, q), options);
      if (r.stats.count == 0) continue;
      out.add_stats(p, q, r.stats);
      if (summary != nullptr) {
        if (r.fitted) {
          ++summary->directions_fitted;
          summary->max_abs_slope =
              std::max(summary->max_abs_slope, r.abs_slope);
        } else {
          ++summary->directions_raw;
        }
      }
    }
  }
  return out;
}

}  // namespace cs::drift
