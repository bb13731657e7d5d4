#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

namespace {

/// 1-based nearest rank of percentile q among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  // The epsilon keeps exact products (0.99 * 1000) from rounding up a rank.
  const double exact = q / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

std::optional<Tail> supported_tail(std::vector<double> samples) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 75.0, 50.0};
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  for (const double q : kLadder) {
    if (n == 0) break;
    if (n - nearest_rank(n, q) >= 10)
      return Tail{q, percentile_sorted(samples, q)};
  }
  return std::nullopt;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.median = median(samples);
  s.mean = mean(samples);
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  s.min = *lo;
  s.max = *hi;
  s.tail = supported_tail(samples);
  return s;
}

}  // namespace perfbench
