// E13 — Live runtime: dispatch throughput and transport latency.
//
// Two questions about the live stack (src/runtime):
//   1. Throughput — how fast does the deterministic virtual-loopback host
//      chew through the §7 agent protocol as n and the epoch count grow?
//      (events/second of the single-threaded dispatch loop, the quantity
//      that bounds what a simulation-scale deployment can replay.)
//   2. Latency — on the wall-clock transports, how long do datagrams dwell
//      in the host mailbox before dispatch ("runtime.ingest_latency_seconds")
//      and does the achieved precision stay within the claimed bound?
//
// Besides the stdout table, writes BENCH_runtime.json (consumed by the CI
// golden job).  Usage: bench_e13_runtime [out.json], default
// ./BENCH_runtime.json.

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "runtime/daemon.hpp"
#include "support.hpp"

namespace {

using namespace cs;
using namespace cs::bench;

SystemModel complete_model(std::size_t n, double lb, double ub) {
  SystemModel m{make_complete(n)};
  for (auto [a, b] : m.topology().links)
    m.set_constraint(make_bounds(a, b, lb, ub));
  return m;
}

struct VirtualRow {
  std::size_t n{0};
  std::size_t epochs{0};
  std::size_t dispatched{0};
  double seconds{0.0};
  double events_per_sec{0.0};
  bool all_match{false};
};

VirtualRow run_virtual(std::size_t n, std::size_t epochs) {
  SystemModel model = complete_model(n, 0.001, 0.05);
  LiveConfig config;
  config.seed = 100 + n;
  config.agent.epochs = epochs;

  const auto t0 = std::chrono::steady_clock::now();
  const LiveReport report = run_live(model, config);
  const auto t1 = std::chrono::steady_clock::now();

  VirtualRow row;
  row.n = n;
  row.epochs = epochs;
  row.dispatched = report.dispatched;
  row.seconds = std::chrono::duration<double>(t1 - t0).count();
  row.events_per_sec =
      row.seconds > 0.0 ? static_cast<double>(row.dispatched) / row.seconds
                        : 0.0;
  row.all_match = report.converged && report.all_match;
  return row;
}

struct WallRow {
  std::string transport;
  std::size_t n{0};
  std::size_t dispatched{0};
  std::uint64_t ingest_count{0};
  double ingest_mean_us{0.0};
  double ingest_max_us{0.0};
  bool converged{false};
  bool within_bound{false};
  double claimed{0.0};
  double realized{0.0};
};

WallRow run_wall(LiveTransportKind kind, std::size_t n) {
  // Real delays on localhost are tiny and positive: lower bound 0 keeps
  // the run admissible, so Thm 4.6's within-bound check is meaningful.
  SystemModel model = complete_model(n, 0.0, 1.0);
  LiveConfig config;
  config.seed = 200 + n;
  config.transport = kind;
  config.delay_scale = 0.002;
  config.agent.warmup = Duration{0.05};
  config.agent.spacing = Duration{0.02};
  config.agent.report_at = Duration{0.3};
  config.agent.period = Duration{0.3};
  config.deadline = Duration{20.0};

  const LiveReport report = run_live(model, config);
  WallRow row;
  row.transport = report.transport;
  row.n = n;
  row.dispatched = report.dispatched;
  const MetricSeries ingest =
      report.metrics.series_snapshot("runtime.ingest_latency_seconds");
  row.ingest_count = ingest.count;
  row.ingest_mean_us = ingest.mean() * 1e6;
  row.ingest_max_us = ingest.count > 0 ? ingest.max * 1e6 : 0.0;
  row.converged = report.converged;
  if (!report.epochs.empty() &&
      report.epochs[0].claimed_precision.has_value() &&
      report.epochs[0].realized_precision.has_value()) {
    row.claimed = *report.epochs[0].claimed_precision;
    row.realized = *report.epochs[0].realized_precision;
    row.within_bound = row.realized <= row.claimed;
  }
  return row;
}

int run(const std::string& json_path) {
  print_header("E13", "live runtime: dispatch throughput and latency");

  Table vt({"n", "epochs", "events", "seconds", "events/s", "bit-match"});
  std::ostringstream json;
  json << "{\n  \"experiment\": \"E13_runtime\",\n  \"virtual\": [\n";

  const std::size_t kSizes[] = {8, 16, 32};
  const std::size_t kEpochs[] = {1, 4};
  bool first = true;
  for (const std::size_t n : kSizes) {
    for (const std::size_t epochs : kEpochs) {
      const VirtualRow row = run_virtual(n, epochs);
      vt.add_row({std::to_string(row.n), std::to_string(row.epochs),
                  std::to_string(row.dispatched),
                  Table::num(row.seconds, 3),
                  Table::num(row.events_per_sec, 0),
                  row.all_match ? "yes" : "NO"});
      if (!first) json << ",\n";
      first = false;
      json << "    {\"n\": " << row.n << ", \"epochs\": " << row.epochs
           << ", \"events\": " << row.dispatched
           << ", \"seconds\": " << row.seconds
           << ", \"events_per_sec\": " << row.events_per_sec
           << ", \"all_match\": " << (row.all_match ? "true" : "false")
           << "}";
    }
  }
  json << "\n  ],\n  \"wall\": [\n";
  vt.print(std::cout);

  Table wt({"transport", "n", "events", "ingest n", "ingest mean (us)",
            "ingest max (us)", "claimed (ms)", "realized (ms)", "ok"});
  first = true;
  for (const LiveTransportKind kind :
       {LiveTransportKind::kLoopbackThreaded, LiveTransportKind::kUdp}) {
    for (const std::size_t n : {8, 16}) {
      const WallRow row = run_wall(kind, static_cast<std::size_t>(n));
      wt.add_row({row.transport, std::to_string(row.n),
                  std::to_string(row.dispatched),
                  std::to_string(row.ingest_count),
                  Table::num(row.ingest_mean_us, 1),
                  Table::num(row.ingest_max_us, 1),
                  Table::num(row.claimed * 1e3, 4),
                  Table::num(row.realized * 1e3, 4),
                  row.converged && row.within_bound ? "yes" : "NO"});
      if (!first) json << ",\n";
      first = false;
      json << "    {\"transport\": \"" << row.transport
           << "\", \"n\": " << row.n << ", \"events\": " << row.dispatched
           << ", \"ingest_count\": " << row.ingest_count
           << ", \"ingest_mean_us\": " << row.ingest_mean_us
           << ", \"ingest_max_us\": " << row.ingest_max_us
           << ", \"claimed\": " << row.claimed
           << ", \"realized\": " << row.realized
           << ", \"converged\": " << (row.converged ? "true" : "false")
           << ", \"within_bound\": " << (row.within_bound ? "true" : "false")
           << "}";
    }
  }
  json << "\n  ]\n}\n";
  wt.print(std::cout);

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "E13: cannot write " << json_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run(cs::bench::parse_bench_args(argc, argv, "BENCH_runtime.json",
                                         /*has_quick=*/false)
                 .out);
}
