#include "hostspeed.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kK = 96;

/// Fixed weights in [0, 1e-3), the same on every run and seed.
const std::vector<double>& weights() {
  static const std::vector<double> w = [] {
    std::vector<double> v(kK * kK);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (double& d : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      d = static_cast<double>(x % 1000) * 1e-6;
    }
    return v;
  }();
  return w;
}

/// d[step][v] = min weight of a walk with `step` arcs from node 0 to v, as in
/// Karp's table; returns a value that depends on every step.
double walk_table() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double>& w = weights();
  std::vector<double> prev(kK, kInf), cur(kK);
  prev[0] = 0.0;
  double acc = 0.0;
  for (std::size_t step = 1; step <= kK; ++step) {
    std::fill(cur.begin(), cur.end(), kInf);
    for (std::size_t i = 0; i < kK; ++i) {
      const double base = prev[i];
      if (base == kInf) continue;
      const double* wi = w.data() + i * kK;
      for (std::size_t j = 0; j < kK; ++j) {
        if (j == i) continue;
        const double cand = base + wi[j];
        if (cand < cur[j]) cur[j] = cand;
      }
    }
    prev.swap(cur);
    acc += prev[kK / 2];
  }
  return acc;
}

volatile double g_sink = 0.0;

}  // namespace

void HostSpeed::sample() {
  g_sink = g_sink + walk_table();  // warm the matrix into cache
  const std::int64_t t0 = now_ns();
  g_sink = g_sink + walk_table();
  samples_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
}

double HostSpeed::mean_s() const { return mean(samples_); }

double HostSpeed::normalize(double seconds) const {
  const double ref = mean_s();
  return ref > 0.0 ? seconds * kReferenceNominalS / ref : seconds;
}

}  // namespace perfbench
