// What one run reports: named metrics, output checks, timing series and the
// environment they were measured in.
//
// The last stdout line is the compact result the benchmark contract asks
// for — {"correct", "attempted", "failed", "metrics"} — and the full report
// (environment block, workload parameters, every series with its sample
// count, median and supported tail, per-span self times, check failures) is
// written to --report.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class Report {
 public:
  /// One metric of the result line.  A non-finite value fails a check and
  /// is reported as 0 (JSON has no infinities).
  void metric(const std::string& name, double value, const std::string& unit);

  /// One output check.  Failures are kept (the first 32 with details) and
  /// make the run incorrect.
  void check(bool ok, const std::string& what);

  /// Timing (or other) samples summarized into the report.
  void series(const std::string& name, const std::vector<double>& samples,
              const std::string& unit);

  /// Free-form workload parameter or environment entry.
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);

  /// Operations attempted and failed (epochs, or probes on serve).
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void add_attempts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const {
    return check_failures_ == 0 && failed_ == 0 && attempted_ > 0;
  }

  /// Self-time summaries from a traced run (span name -> samples).
  void spans(const std::map<std::string, std::vector<double>>& self_seconds);

  std::string result_line() const;
  bool write(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  // raw JSON values
  std::vector<std::pair<std::string, std::pair<Summary, std::string>>>
      series_;
  std::vector<std::pair<std::string, Summary>> spans_;
  std::vector<std::string> failures_;
  std::uint64_t checks_{0};
  std::uint64_t check_failures_{0};
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

/// Records the environment block (source id, compiler, build type, nproc,
/// CPU model) into the report's info section.
void record_environment(Report& report, const std::string& source_id);

/// Peak resident set size of this process in MB (10^6 bytes).
double peak_rss_mb();

}  // namespace perfbench
