// Command line of the perfbench binary.
//
//   perfbench [--workload] NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--report PATH] [--spans PATH] [--source-id ID] [--help]
//
// Parsing is strict: an unknown flag, a flag without its value, a malformed
// number or an unknown workload is a usage error (exit 2) and nothing runs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 1;
/// Seed kept out of tuning; later performance claims are confirmed on it.
inline constexpr std::uint64_t kHeldOutSeed = 977;

struct Options {
  std::string workload;
  std::uint64_t seed{kDefaultSeed};
  double seconds{30.0};
  bool trace{false};
  std::string report_path;  ///< full report (environment, series, checks)
  std::string spans_path;   ///< traced runs: spans in Chrome trace format
  std::string source_id{"unknown"};
};

struct ParseResult {
  /// -1: run with `options`; otherwise exit with this code (0 after --help,
  /// 2 on a usage error) after printing `message`.
  int exit_code{-1};
  Options options;
  std::string message;
};

ParseResult parse_cli(std::span<const std::string> args);

std::string usage();

}  // namespace perfbench
