// perfbench: the repository benchmark binary.  See perfbench/README.md.

#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "common/metrics.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

using MetricList = std::vector<std::pair<const char*, const char*>>;

/// BENCHMARK.json "end_to_end", in order: every workload reports each.
const MetricList kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"epoch_s", "s"},
    {"bound_us", "us"},
};

/// BENCHMARK.json "per_layer", in order.  A workload reports 0 for a layer
/// it never calls (README.md maps layers to workloads).
const MetricList kPerLayer = {
    {"local_estimates.s", "s"},
    {"local_estimates.obs", "count"},
    {"local_estimates.mls_edges", "count"},
    {"global_estimates.s", "s"},
    {"shifts.s", "s"},
    {"shifts.components", "count"},
    {"epoch.self_s", "s"},
    {"epoch.serial_s", "s"},
    {"epoch.raw_s", "s"},
    {"host.reference_s", "s"},
    {"zones.plan_s", "s"},
    {"zones.count", "count"},
    {"zones.singletons", "count"},
    {"zones.max_size", "count"},
    {"zones.solve_s", "s"},
    {"zones.quotient_shifts_s", "s"},
    {"zoned_epoch_s", "s"},
    {"zoned_bound_ratio", "ratio"},
    {"resync.prefix_s", "s"},
    {"incremental.step_mls_s", "s"},
    {"incremental.apsp_incremental", "count"},
    {"incremental.apsp_rebuilds", "count"},
    {"incremental.dirty_rows", "count"},
    {"wire.encode_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"wire.echo64_encode_ns", "ns"},
    {"wire.echo64_decode_ns", "ns"},
    {"wire.probe_bytes", "bytes"},
    {"wire.echo_bytes", "bytes"},
    {"echoes_per_s", "1/s"},
    {"rtt_us_p50", "us"},
    {"rtt_us_p99", "us"},
    {"server.cpu_us_per_frame", "us"},
    {"server.busy_share", "ratio"},
    {"loadgen.busy_share", "ratio"},
    {"server.frames", "count"},
    {"server.decode_errors", "count"},
    {"server.backpressure_dropped", "count"},
    {"server.sessions_peak", "count"},
    {"metrics.increment_ns", "ns"},
    {"metrics.increment_ns_4t", "ns"},
    {"trace.overhead_ratio", "ratio"},
};

/// Per-call cost of Metrics::increment with a name as long as the server's,
/// from `threads` threads hammering one sink; median over batches.
double increment_ns(std::size_t threads) {
  constexpr int kBatches = 9;
  constexpr int kCalls = 100'000;
  cs::Metrics sink;
  const auto hammer = [&sink] {
    for (int i = 0; i < kCalls; ++i)
      sink.increment("runtime.net.frames_received");
  };
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    if (threads == 1) {
      hammer();
    } else {
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(hammer);
      for (std::thread& t : pool) t.join();
    }
    ns.push_back(static_cast<double>(now_ns() - t0) / kCalls);
  }
  return median(ns);
}

int run(const Options& o) {
  Report report;
  Tracer tracer(o.trace);
  record_environment(report, o.source_id);
  report.info("run.workload", o.workload);
  report.info("run.seed", static_cast<double>(o.seed));
  report.info("run.seconds", o.seconds);
  report.info("run.trace", o.trace ? 1.0 : 0.0);
  report.info("env.sync_threads",
              o.workload == "serve" ? 0.0 : static_cast<double>(kSyncThreads));

  Values values;
  if (o.workload == "fabric") run_fabric(o, report, tracer, values);
  else if (o.workload == "mesh") run_mesh(o, report, tracer, values);
  else if (o.workload == "resync") run_resync(o, report, tracer, values);
  else run_serve(o, report, tracer, values);
  values["peak_rss_mb"] = peak_rss_mb();

  if (o.trace) {
    values["metrics.increment_ns"] = increment_ns(1);
    values["metrics.increment_ns_4t"] = increment_ns(4);
    report.spans(tracer.self_seconds_by_name());
    if (!o.spans_path.empty() && !tracer.write_chrome(o.spans_path))
      std::cerr << "perfbench: cannot write " << o.spans_path << "\n";
  }
  for (const auto& [name, unit] : o.trace ? kPerLayer : kEndToEnd) {
    const auto it = values.find(name);
    if (it != values.end()) {
      report.metric(name, it->second, unit);
    } else {
      report.check(o.trace, std::string("workload reports ") + name);
      report.metric(name, 0.0, unit);
    }
  }
  if (!o.report_path.empty() && !report.write(o.report_path))
    std::cerr << "perfbench: cannot write " << o.report_path << "\n";
  std::cout << report.result_line() << std::endl;
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const ParseResult parsed = parse_cli(args);
  if (parsed.exit_code >= 0) {
    (parsed.exit_code == 0 ? std::cout : std::cerr) << parsed.message;
    return parsed.exit_code;
  }
  try {
    return run(parsed.options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
