// Summaries of timing samples.
//
// A timing is reported as its median plus the highest percentile of a fixed
// ladder that still has at least ten samples beyond it (nearest-rank), with
// the sample count; below 20 samples no percentile qualifies and only the
// median is reported.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

double median(std::vector<double> samples);

/// Arithmetic mean; 0 for no samples.  The pipeline workloads report their
/// epoch time as the mean: on a shared host the per-epoch times are bimodal
/// (a core-sharing neighbour slows an epoch by ~1.5x for seconds at a time),
/// and the median of a bimodal sample jumps between the modes from run to
/// run while the mean moves with the share of time spent in each.
double mean(const std::vector<double>& samples);

/// Nearest-rank percentile q in (0, 100] of an ascending-sorted sample.
double percentile_sorted(const std::vector<double>& sorted, double q);

struct Tail {
  double percentile{0.0};  ///< e.g. 99.0 for p99
  double value{0.0};
};

/// The highest percentile of {99.99, 99.9, 99, 90, 75, 50} whose
/// nearest-rank position leaves at least ten samples above it; nullopt when
/// even the median does not (fewer than 20 samples).
std::optional<Tail> supported_tail(std::vector<double> samples);

struct Summary {
  std::size_t count{0};
  double median{0.0};
  double mean{0.0};
  double min{0.0};
  double max{0.0};
  std::optional<Tail> tail;
};

Summary summarize(const std::vector<double>& samples);

}  // namespace perfbench
