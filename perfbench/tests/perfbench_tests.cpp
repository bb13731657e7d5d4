// Tests of the benchmark's own rules: the supported-percentile rule, the
// command line's exit codes and the host-speed rescaling.  Plain asserts;
// exit 0 = all pass.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cli.hpp"
#include "hostspeed.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so summaries must sort
}

void test_percentile_rule() {
  expect(!perfbench::supported_tail(ramp(0)), "no tail for 0 samples");
  expect(!perfbench::supported_tail(ramp(19)), "no tail for 19 samples");

  auto t = perfbench::supported_tail(ramp(20));
  expect(t && t->percentile == 50.0 && t->value == 10.0,
         "20 samples: p50 = 10th value, 10 beyond it");
  t = perfbench::supported_tail(ramp(100));
  expect(t && t->percentile == 90.0 && t->value == 90.0,
         "100 samples: p90, not p99 (1 beyond)");
  t = perfbench::supported_tail(ramp(999));
  expect(t && t->percentile == 90.0,
         "999 samples: p99 would leave 9 beyond, so p90");
  t = perfbench::supported_tail(ramp(1000));
  expect(t && t->percentile == 99.0 && t->value == 990.0,
         "1000 samples: p99 = 990th value, exactly 10 beyond");
  t = perfbench::supported_tail(ramp(100000));
  expect(t && t->percentile == 99.99 && t->value == 99990.0,
         "100000 samples: p99.99");

  expect(perfbench::median({3, 1, 2}) == 2.0, "odd median");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");
  expect(perfbench::mean({}) == 0.0, "empty mean");
  // Bimodal: the median sits in the larger mode, the mean between them.
  expect(perfbench::mean({1, 1, 1, 3, 3}) == 1.8, "bimodal mean");
  const auto s = perfbench::summarize(ramp(1000));
  expect(s.count == 1000 && s.min == 1 && s.max == 1000 && s.tail &&
             s.mean == 500.5,
         "summary fields");
}

int exit_code(std::vector<std::string> args) {
  return perfbench::parse_cli(args).exit_code;
}

void test_cli() {
  expect(exit_code({"--help"}) == 0, "--help exits 0");
  expect(exit_code({"fabric", "-h"}) == 0, "-h exits 0 even after a name");
  expect(exit_code({"fabric"}) == -1, "bare workload name runs");
  expect(exit_code({"--workload", "serve", "--seed", "7", "--seconds", "3",
                    "--trace", "1"}) == -1,
         "long-flag form runs");
  expect(exit_code({}) == 2, "no workload exits 2");
  expect(exit_code({"fabric", "--bogus"}) == 2, "unknown flag exits 2");
  expect(exit_code({"fabric", "--seed"}) == 2, "missing value exits 2");
  expect(exit_code({"fabric", "--seed", "--trace", "1"}) == 2,
         "flag in place of a value exits 2");
  expect(exit_code({"fabric", "--seed", "x1"}) == 2, "bad seed exits 2");
  expect(exit_code({"fabric", "--seed", "-3"}) == 2, "negative seed exits 2");
  expect(exit_code({"fabric", "--seconds", "0"}) == 2, "zero seconds exits 2");
  expect(exit_code({"fabric", "--trace", "yes"}) == 2, "bad trace exits 2");
  expect(exit_code({"nosuch"}) == 2, "unknown workload exits 2");
  expect(exit_code({"fabric", "mesh"}) == 2, "two workloads exit 2");

  const auto r = perfbench::parse_cli(std::vector<std::string>{
      "--workload", "mesh", "--seed", "977", "--seconds", "2.5", "--trace",
      "1", "--report", "r.json", "--spans", "s.json", "--source-id", "abc"});
  expect(r.options.workload == "mesh" && r.options.seed == 977 &&
             r.options.seconds == 2.5 && r.options.trace &&
             r.options.report_path == "r.json" &&
             r.options.spans_path == "s.json" && r.options.source_id == "abc",
         "values parsed");
  expect(perfbench::parse_cli(std::vector<std::string>{"resync"})
                 .options.seed == perfbench::kDefaultSeed,
         "default seed");
}

void test_host_speed() {
  perfbench::HostSpeed speed;
  expect(speed.normalize(2.0) == 2.0, "no reference samples: unchanged");
  speed.sample();
  speed.sample();
  const double ref = speed.mean_s();
  expect(speed.samples().size() == 2 && ref > 0.0, "two positive samples");
  expect(std::abs(speed.normalize(ref) - perfbench::kReferenceNominalS) <=
             1e-15,
         "a time equal to the reference maps to the nominal");
  expect(std::abs(speed.normalize(3 * ref) / speed.normalize(ref) - 3.0) <=
             1e-12,
         "rescaling is linear");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_cli();
  test_host_speed();
  if (failures == 0) std::printf("perfbench_tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
