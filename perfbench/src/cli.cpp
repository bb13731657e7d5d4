#include "cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

std::string usage() {
  return "usage: perfbench [--workload] NAME [--seed N] [--seconds S] "
         "[--trace 0|1]\n"
         "                 [--report PATH] [--spans PATH] [--source-id ID]\n"
         "workloads: fabric, mesh, resync, serve\n"
         "  --seed N       input seed (default " +
         std::to_string(kDefaultSeed) + "; held-out seed " +
         std::to_string(kHeldOutSeed) + ")\n"
         "  --seconds S    measured time per run, 0 < S <= 120 (default 30)\n"
         "  --trace 0|1    1 = traced run reporting per-layer metrics\n"
         "  --report PATH  write the full JSON report here\n"
         "  --spans PATH   traced runs: write spans (Chrome trace format)\n"
         "  --source-id ID source revision recorded in the report\n"
         "The last line of stdout is the JSON result.  Exit: 0 ok, 1 an "
         "output check failed, 2 usage error, 3 runtime error.\n";
}

namespace {

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string> kWorkloads = {"fabric", "mesh", "resync",
                                             "serve"};

ParseResult fail(std::string message) {
  ParseResult r;
  r.exit_code = 2;
  r.message = std::move(message) + "\n" + usage();
  return r;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && end == s.data() + s.size();
}

bool parse_seconds(const std::string& s, double& out) {
  if (s.empty()) return false;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && end == s.data() + s.size() &&
         std::isfinite(out) && out > 0.0 && out <= 120.0;
}

}  // namespace

ParseResult parse_cli(std::span<const std::string> args) {
  ParseResult r;
  Options& o = r.options;
  const auto is_workload = [](const std::string& s) {
    return std::find(kWorkloads.begin(), kWorkloads.end(), s) !=
           kWorkloads.end();
  };
  const auto set_workload = [&](const std::string& s) -> std::string {
    if (!is_workload(s)) return "unknown workload '" + s + "'";
    if (!o.workload.empty()) return "workload given twice";
    o.workload = s;
    return {};
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      r.exit_code = 0;
      r.message = usage();
      return r;
    }
    if (arg.rfind("-", 0) != 0) {
      if (std::string err = set_workload(arg); !err.empty()) return fail(err);
      continue;
    }
    static const std::vector<std::string> valued = {
        "--workload", "--seed",  "--seconds",  "--trace",
        "--report",   "--spans", "--source-id"};
    if (std::find(valued.begin(), valued.end(), arg) == valued.end())
      return fail("unknown flag '" + arg + "'");
    if (i + 1 >= args.size() || args[i + 1].rfind("--", 0) == 0)
      return fail(arg + " needs a value");
    const std::string& value = args[++i];
    if (arg == "--workload") {
      if (std::string err = set_workload(value); !err.empty())
        return fail(err);
    } else if (arg == "--seed") {
      if (!parse_u64(value, o.seed))
        return fail("--seed needs a non-negative integer, got '" + value +
                    "'");
    } else if (arg == "--seconds") {
      if (!parse_seconds(value, o.seconds))
        return fail("--seconds needs a number in (0, 120], got '" + value +
                    "'");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1")
        return fail("--trace needs 0 or 1, got '" + value + "'");
      o.trace = value == "1";
    } else if (arg == "--report") {
      o.report_path = value;
    } else if (arg == "--spans") {
      o.spans_path = value;
    } else {
      o.source_id = value;
    }
  }
  if (o.workload.empty()) return fail("no workload given");
  return r;
}

}  // namespace perfbench
