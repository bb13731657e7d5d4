// Host-speed reference for the fabric epoch.
//
// The measuring host is a shared VM.  For seconds to minutes at a time a
// neighbour on the same physical cores slows throughput-bound code by up to
// 1.9x, so two runs of the same code minutes apart can differ by more than
// any useful regression bound.  fabric therefore interleaves a fixed
// reference kernel with its repetitions and reports its epoch time rescaled
// to a host on which the reference takes kReferenceNominalS:
//
//   reported = measured × kReferenceNominalS / mean(reference samples)
//
// The kernel is the benchmark's own code, a min-plus walk DP with the
// instruction mix of Karp's cycle-mean table (load, add, compare, min) over
// a fixed 96 × 96 matrix that stays in a core's L2.  No library code runs in
// it, so a change to the library moves the measured time and leaves the
// reference alone.  The rescaling only holds for work that slows down like
// the kernel: it steadies fabric's Karp-bound epoch, but not resync's
// latency-bound incremental path, which therefore reports raw seconds.  The
// raw time and the reference stay in the report (epoch.raw_s,
// host.reference_s).
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Reference-kernel seconds on the measuring VM in its unloaded state
/// (4-vCPU KVM Xeon, g++ 12.2 Release).  Only scales the reported seconds;
/// comparisons between commits do not depend on it.
inline constexpr double kReferenceNominalS = 0.0012;

class HostSpeed {
 public:
  /// Runs the reference kernel twice and records the second, warm, time.
  void sample();

  /// Mean reference seconds over the samples so far; 0 with none.
  double mean_s() const;

  /// `seconds` rescaled to the nominal host speed; unchanged with no
  /// samples.
  double normalize(double seconds) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace perfbench
