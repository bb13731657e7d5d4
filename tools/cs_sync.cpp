// cs_sync — the command-line driver for the chronosync pipeline.
//
//   cs_sync simulate <out.trace> [flags]   record a run as a replayable trace
//   cs_sync sync <views> <model> [flags]   offline synchronization (§3–§6)
//   cs_sync live [flags]                   live agents over a real transport
//   cs_sync replay <trace> [flags]         deterministic replay + self-check
//   cs_sync diff <a.trace> <b.trace>       structural trace comparison
//   cs_sync metrics <trace> [flags]        replay and dump counters/metrics
//
// Every subcommand takes --json for machine-readable output and --help for
// the flag reference (exit 0); --version prints the release.  Exit codes:
// 0 success, 1 divergences found (replay/diff/live), 2 usage error,
// 3 runtime error.  Run with no arguments for the full flag reference.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/version.hpp"
#include "core/epochs.hpp"
#include "core/synchronizer.hpp"
#include "core/zones.hpp"
#include "runtime/daemon.hpp"
#include "delaymodel/constraint.hpp"
#include "drift/oscillator.hpp"
#include "graph/topology.hpp"
#include "io/views_io.hpp"
#include "proto/beacon.hpp"
#include "proto/ping_pong.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"

namespace {

using namespace cs;

constexpr int kExitOk = 0;
constexpr int kExitDivergence = 1;
constexpr int kExitUsage = 2;
constexpr int kExitError = 3;

struct UsageError {
  std::string message;
};

[[noreturn]] void usage_fail(const std::string& message) {
  throw UsageError{message};
}

// ---------------------------------------------------------------------------
// Flag parsing

/// Hand-rolled `--flag value` / `--switch` parser.  Flags may appear in any
/// order, interleaved with positionals; unknown flags are usage errors.
class Args {
 public:
  Args(int argc, char** argv, std::set<std::string> valued,
       std::set<std::string> switches)
      : valued_(std::move(valued)), switches_(std::move(switches)) {
    for (int i = 0; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      if (switches_.count(arg) != 0) {
        set_switches_.insert(arg);
        continue;
      }
      if (valued_.count(arg) == 0) usage_fail("unknown flag '" + arg + "'");
      if (i + 1 >= argc) usage_fail("flag '" + arg + "' needs a value");
      values_[arg] = argv[++i];
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  bool on(const std::string& name) const {
    return set_switches_.count(name) != 0;
  }

  bool has(const std::string& name) const {
    return values_.count(name) != 0;
  }

  std::string get(const std::string& name,
                  const std::string& fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

 private:
  std::set<std::string> valued_, switches_, set_switches_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

double parse_double_flag(const std::string& flag, const std::string& text) {
  if (text == "inf") return std::numeric_limits<double>::infinity();
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0')
    usage_fail("flag '" + flag + "': '" + text + "' is not a number");
  return v;
}

std::uint64_t parse_u64_flag(const std::string& flag,
                             const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || text[0] == '-')
    usage_fail("flag '" + flag + "': '" + text +
               "' is not a non-negative integer");
  return v;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream is(text);
  while (std::getline(is, part, sep)) parts.push_back(part);
  return parts;
}

// ---------------------------------------------------------------------------
// Output helpers

std::string num(double v) {
  if (v == std::numeric_limits<double>::infinity()) return "inf";
  if (v == -std::numeric_limits<double>::infinity()) return "-inf";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// JSON number: "inf" is not valid JSON, so infinities become strings.
std::string jnum(double v) {
  if (v == std::numeric_limits<double>::infinity()) return "\"inf\"";
  if (v == -std::numeric_limits<double>::infinity()) return "\"-inf\"";
  return num(v);
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

std::string jarray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += jnum(values[i]);
  }
  return out + "]";
}

std::string jarray(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += jstr(values[i]);
  }
  return out + "]";
}

std::string jmap(const std::map<std::string, std::uint64_t>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += jstr(k) + ": " + std::to_string(v);
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Shared option builders

SyncOptions sync_options_from(const Args& args) {
  SyncOptions opts;
  if (args.has("--root"))
    opts.root = static_cast<NodeId>(
        parse_u64_flag("--root", args.get("--root")));
  const std::string apsp = args.get("--apsp", "johnson");
  if (apsp == "johnson")
    opts.apsp = ApspAlgorithm::kJohnson;
  else if (apsp == "floyd-warshall")
    opts.apsp = ApspAlgorithm::kFloydWarshall;
  else
    usage_fail("--apsp must be johnson or floyd-warshall, got '" + apsp +
               "'");
  const std::string cm = args.get("--cycle-mean", "karp");
  if (cm == "karp")
    opts.cycle_mean = CycleMeanAlgorithm::kKarp;
  else if (cm == "howard")
    opts.cycle_mean = CycleMeanAlgorithm::kHoward;
  else
    usage_fail("--cycle-mean must be karp or howard, got '" + cm + "'");
  const std::string match = args.get("--match", "strict");
  if (match == "strict")
    opts.match = MatchPolicy::kStrict;
  else if (match == "drop-orphans")
    opts.match = MatchPolicy::kDropOrphans;
  else
    usage_fail("--match must be strict or drop-orphans, got '" + match +
               "'");
  return opts;
}

ReplayPlan plan_from(const Args& args) {
  ReplayPlan plan;
  plan.options.sync = sync_options_from(args);
  plan.incremental = !args.on("--rebuild");
  if (args.has("--window"))
    plan.options.window =
        Duration{parse_double_flag("--window", args.get("--window"))};
  if (args.on("--carry")) plan.options.staleness.carry_forward = true;
  if (args.has("--widen")) {
    plan.options.staleness.carry_forward = true;
    plan.options.staleness.widen_per_epoch =
        parse_double_flag("--widen", args.get("--widen"));
  }
  if (args.has("--max-age")) {
    plan.options.staleness.carry_forward = true;
    plan.options.staleness.max_carry_epochs = static_cast<std::size_t>(
        parse_u64_flag("--max-age", args.get("--max-age")));
  }
  if (args.has("--boundaries")) {
    for (const std::string& part :
         split(args.get("--boundaries"), ','))
      plan.boundaries.push_back(
          ClockTime{parse_double_flag("--boundaries", part)});
  }
  return plan;
}

void describe_epoch(std::size_t k, const EpochOutcome& ep) {
  std::printf("epoch %zu  boundary %s  precision %s  coverage %zu/%zu  "
              "carried %zu  paired %zu%s\n",
              k, num(ep.boundary.sec).c_str(),
              num(ep.sync.optimal_precision.value()).c_str(),
              ep.coverage.observed_directions, ep.coverage.total_directions,
              ep.carried_edges, ep.pairing.paired,
              ep.detected ? "  DETECTED: inadmissible traffic" : "");
}

std::string epoch_json(const EpochOutcome& ep) {
  std::string out = "{";
  out += "\"boundary\": " + jnum(ep.boundary.sec);
  out += ", \"precision\": " + jnum(ep.sync.optimal_precision.value());
  out += ", \"coverage\": [" +
         std::to_string(ep.coverage.observed_directions) + ", " +
         std::to_string(ep.coverage.total_directions) + "]";
  out += ", \"carried_edges\": " + std::to_string(ep.carried_edges);
  out += ", \"paired\": " + std::to_string(ep.pairing.paired);
  if (ep.detected) out += ", \"detected\": true";
  out += ", \"corrections\": " + jarray(ep.sync.corrections);
  out += "}";
  return out;
}

// ---------------------------------------------------------------------------
// simulate

int cmd_simulate(const Args& args) {
  if (args.positional().empty())
    usage_fail("simulate needs an output trace path");
  const std::string out_path = args.positional()[0];

  const std::uint64_t seed =
      parse_u64_flag("--seed", args.get("--seed", "1"));
  Rng rng(seed);

  // The system: an explicit model file, or a generated topology with
  // uniform [lower, upper] bounds on every link.
  SystemModel model = [&] {
    if (args.has("--model")) return load_model_file(args.get("--model"));
    const std::size_t n = static_cast<std::size_t>(
        parse_u64_flag("--n", args.get("--n", "5")));
    SystemModel m(make_named(args.get("--topology", "ring"), n, rng));
    const double lower =
        parse_double_flag("--lower", args.get("--lower", "0.002"));
    const double upper =
        parse_double_flag("--upper", args.get("--upper", "0.010"));
    for (auto [a, b] : m.topology().links)
      m.set_constraint(make_bounds(a, b, lower, upper));
    return m;
  }();
  const std::size_t n = model.processor_count();

  // The interactive part.
  AutomatonFactory factory;
  const std::string proto = args.get("--proto", "ping-pong");
  if (proto == "ping-pong") {
    PingPongParams params;
    params.warmup =
        Duration{parse_double_flag("--warmup", args.get("--warmup", "0.5"))};
    params.spacing = Duration{
        parse_double_flag("--spacing", args.get("--spacing", "0.05"))};
    params.rounds = static_cast<std::size_t>(
        parse_u64_flag("--rounds", args.get("--rounds", "4")));
    factory = make_ping_pong(params);
  } else if (proto == "beacon") {
    BeaconParams params;
    params.warmup =
        Duration{parse_double_flag("--warmup", args.get("--warmup", "0.5"))};
    params.period = Duration{
        parse_double_flag("--period", args.get("--period", "0.1"))};
    params.count = static_cast<std::size_t>(
        parse_u64_flag("--count", args.get("--count", "5")));
    factory = make_beacon(params);
  } else {
    usage_fail("--proto must be ping-pong or beacon, got '" + proto + "'");
  }

  // The environment.
  SimOptions sim_opts;
  sim_opts.seed = seed;
  const double skew = parse_double_flag("--skew", args.get("--skew", "0"));
  if (skew > 0.0) {
    Rng skew_rng = rng.split(0x5EEDu);
    sim_opts.start_offsets = random_start_offsets(n, skew, skew_rng);
  } else {
    sim_opts.start_offsets.assign(n, Duration{0.0});
  }
  if (args.has("--delay-scale"))
    sim_opts.delay_scale =
        parse_double_flag("--delay-scale", args.get("--delay-scale"));

  // --drift R: constant-skew oscillators in [1 - R·1e-6, 1 + R·1e-6] on a
  // dedicated seed stream (docs/DRIFT.md).  Drifting rates step outside
  // the paper's model, so admissibility enforcement is turned off — the
  // recorded trace still replays bit-identically (rates are recorded).
  const double drift_ppm =
      parse_double_flag("--drift", args.get("--drift", "0"));
  if (drift_ppm < 0.0) usage_fail("--drift wants a ppm value >= 0");
  if (drift_ppm > 0.0) {
    drift::OscillatorSpec osc;
    osc.kind = drift::OscillatorSpec::Kind::kConstant;
    osc.ppm = drift_ppm;
    drift::draw_oscillators(osc, n, seed ^ 0xD21F705C1ULL).apply(sim_opts);
  }

  FaultPlan faults;
  bool any_faults = false;
  faults.seed = parse_u64_flag("--fault-seed",
                               args.get("--fault-seed", "64279"));
  if (args.has("--drop")) {
    faults.default_link.drop_probability =
        parse_double_flag("--drop", args.get("--drop"));
    any_faults = true;
  }
  if (args.has("--dup")) {
    faults.default_link.duplicate_probability =
        parse_double_flag("--dup", args.get("--dup"));
    any_faults = true;
  }
  if (args.has("--spike")) {
    faults.default_link.spike_probability =
        parse_double_flag("--spike", args.get("--spike"));
    faults.default_link.spike_magnitude = parse_double_flag(
        "--spike-mag", args.get("--spike-mag", "0.05"));
    any_faults = true;
  }
  if (args.has("--down")) {
    // --down a:b:from:until — a link outage window.
    const auto parts = split(args.get("--down"), ':');
    if (parts.size() != 4) usage_fail("--down wants a:b:from:until");
    const auto a =
        static_cast<ProcessorId>(parse_u64_flag("--down", parts[0]));
    const auto b =
        static_cast<ProcessorId>(parse_u64_flag("--down", parts[1]));
    faults.link(a, b).down.push_back(
        TimeWindow{RealTime{parse_double_flag("--down", parts[2])},
                   RealTime{parse_double_flag("--down", parts[3])}});
    any_faults = true;
  }
  if (args.has("--crash")) {
    // --crash pid:from[:until] — a processor crash window.
    const auto parts = split(args.get("--crash"), ':');
    if (parts.size() != 2 && parts.size() != 3)
      usage_fail("--crash wants pid:from[:until]");
    const auto pid =
        static_cast<ProcessorId>(parse_u64_flag("--crash", parts[0]));
    const RealTime from{parse_double_flag("--crash", parts[1])};
    if (parts.size() == 3)
      faults.crash(pid, from,
                   RealTime{parse_double_flag("--crash", parts[2])});
    else
      faults.crash(pid, from);
    any_faults = true;
  }
  if (any_faults) sim_opts.faults = &faults;

  const ReplayPlan plan = plan_from(args);

  TraceWriter writer(out_path);
  const RecordResult result =
      record_run(model, factory, sim_opts, plan, writer);

  if (args.has("--views"))
    save_views_file(args.get("--views"), result.sim.execution.views());

  if (args.on("--json")) {
    std::string out = "{\"trace\": " + jstr(out_path);
    out += ", \"processors\": " + std::to_string(n);
    out += ", \"seed\": " + std::to_string(seed);
    out += ", \"delivered\": " +
           std::to_string(result.sim.delivered_messages);
    out += ", \"fault_dropped\": " +
           std::to_string(result.sim.fault_dropped_messages);
    out += ", \"epochs\": [";
    for (std::size_t k = 0; k < result.epochs.size(); ++k) {
      if (k > 0) out += ", ";
      out += epoch_json(result.epochs[k]);
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return kExitOk;
  }

  std::printf("recorded %s: %zu processors, %zu events, %zu epochs\n",
              out_path.c_str(), n, writer.trace().events.size(),
              result.epochs.size());
  std::printf("delivered %zu  lost %zu  fault-dropped %zu  duplicated %zu  "
              "crash-dropped %zu\n",
              result.sim.delivered_messages, result.sim.lost_messages,
              result.sim.fault_dropped_messages,
              result.sim.duplicated_messages,
              result.sim.crash_dropped_deliveries);
  for (std::size_t k = 0; k < result.epochs.size(); ++k)
    describe_epoch(k, result.epochs[k]);
  return kExitOk;
}

// ---------------------------------------------------------------------------
// sync

int cmd_sync(const Args& args) {
  if (args.positional().size() != 2)
    usage_fail("sync needs exactly <views-file> <model-file>");
  const std::vector<View> views = load_views_file(args.positional()[0]);
  const SystemModel model = load_model_file(args.positional()[1]);
  const SyncOptions opts = sync_options_from(args);

  if (args.has("--zones")) {
    // Zone-hierarchical composition (Thm 5.5/5.6): per-zone SHIFTS, leader
    // quotient, composed bound.  Reports the per-zone breakdown alongside
    // the composed corrections.
    const std::size_t target = static_cast<std::size_t>(
        parse_u64_flag("--zones", args.get("--zones")));
    if (target == 0) usage_fail("--zones wants a target zone size >= 1");
    const ZonePlan plan = greedy_bfs_zones(model.topology(), target);
    const ZonedOutcome z = synchronize_zoned(model, views, plan, opts);

    if (args.on("--json")) {
      std::string out =
          "{\"precision\": " + jnum(z.composed_bound.value());
      out += ", \"bounded\": ";
      out += z.bounded() ? "true" : "false";
      out += ", \"zone_count\": " + std::to_string(z.plan.count);
      out += ", \"max_zone_a_max\": " + jnum(z.max_zone_a_max);
      out += ", \"quotient_a_max\": " + jnum(z.quotient_a_max.value());
      out += ", \"zones\": [";
      for (std::size_t i = 0; i < z.zones.size(); ++i) {
        const ZoneStats& zs = z.zones[i];
        if (i > 0) out += ", ";
        out += "{\"leader\": " + std::to_string(zs.leader);
        out += ", \"size\": " + std::to_string(zs.size);
        out += ", \"bounded\": ";
        out += zs.bounded ? "true" : "false";
        out += ", \"a_max\": " +
               jnum(zs.bounded ? zs.a_max
                               : std::numeric_limits<double>::infinity());
        out += ", \"thm46_gap\": " + jnum(zs.thm46_gap) + "}";
      }
      out += "], \"corrections\": " + jarray(z.corrections) + "}";
      std::printf("%s\n", out.c_str());
      return kExitOk;
    }

    std::printf("composed precision %s  (%zu zones, max zone A^max %s, "
                "quotient A^max %s)\n",
                num(z.composed_bound.value()).c_str(), z.plan.count,
                num(z.max_zone_a_max).c_str(),
                num(z.quotient_a_max.value()).c_str());
    for (std::size_t i = 0; i < z.zones.size(); ++i)
      std::printf("zone %zu  leader %u  size %u  A^max %s  thm4.6 gap %s\n",
                  i, static_cast<unsigned>(z.zones[i].leader),
                  static_cast<unsigned>(z.zones[i].size),
                  num(z.zones[i].bounded
                          ? z.zones[i].a_max
                          : std::numeric_limits<double>::infinity())
                      .c_str(),
                  num(z.zones[i].thm46_gap).c_str());
    for (std::size_t p = 0; p < z.corrections.size(); ++p)
      std::printf("correction %zu %s\n", p, num(z.corrections[p]).c_str());
    return kExitOk;
  }

  const SyncOutcome outcome = synchronize(model, views, opts);

  if (args.on("--json")) {
    std::string out = "{\"precision\": " +
                      jnum(outcome.optimal_precision.value());
    out += ", \"bounded\": ";
    out += outcome.bounded() ? "true" : "false";
    out += ", \"corrections\": " + jarray(outcome.corrections);
    if (!outcome.bounded())
      out += ", \"component_precision\": " +
             jarray(outcome.component_precision);
    out += "}";
    std::printf("%s\n", out.c_str());
    return kExitOk;
  }

  std::printf("precision %s\n",
              num(outcome.optimal_precision.value()).c_str());
  for (std::size_t p = 0; p < outcome.corrections.size(); ++p)
    std::printf("correction %zu %s\n", p,
                num(outcome.corrections[p]).c_str());
  if (!outcome.bounded())
    for (std::size_t c = 0; c < outcome.component_precision.size(); ++c)
      std::printf("component %zu precision %s\n", c,
                  num(outcome.component_precision[c]).c_str());
  return kExitOk;
}

// ---------------------------------------------------------------------------
// replay

int cmd_replay(const Args& args) {
  if (args.positional().size() != 1)
    usage_fail("replay needs exactly one <trace-file>");
  const Trace trace = load_trace_file(args.positional()[0]);
  const ReplayResult result = replay(trace);

  if (args.has("--rerecord"))
    save_trace_file(args.get("--rerecord"), rerecorded(trace, result));

  if (args.on("--json")) {
    std::string out = "{\"epochs\": " + std::to_string(result.epochs.size());
    out += ", \"match\": ";
    out += result.matches_recording() ? "true" : "false";
    out += ", \"divergences\": " + jarray(result.divergences) + "}";
    std::printf("%s\n", out.c_str());
  } else {
    for (std::size_t k = 0; k < result.epochs.size(); ++k)
      describe_epoch(k, result.epochs[k]);
    if (result.matches_recording()) {
      std::printf("replay matches the recording (%zu events, %zu epochs)\n",
                  trace.events.size(), result.epochs.size());
    } else {
      for (const std::string& d : result.divergences)
        std::printf("divergence: %s\n", d.c_str());
    }
  }
  return result.matches_recording() ? kExitOk : kExitDivergence;
}

// ---------------------------------------------------------------------------
// diff

int cmd_diff(const Args& args) {
  if (args.positional().size() != 2)
    usage_fail("diff needs exactly <a.trace> <b.trace>");
  const Trace a = load_trace_file(args.positional()[0]);
  const Trace b = load_trace_file(args.positional()[1]);
  const std::size_t cap = static_cast<std::size_t>(
      parse_u64_flag("--max-reports", args.get("--max-reports", "16")));
  const std::vector<std::string> divergences = diff_traces(a, b, cap);

  if (args.on("--json")) {
    std::string out = "{\"equal\": ";
    out += divergences.empty() ? "true" : "false";
    out += ", \"divergences\": " + jarray(divergences) + "}";
    std::printf("%s\n", out.c_str());
  } else if (divergences.empty()) {
    std::printf("traces are structurally identical\n");
  } else {
    for (const std::string& d : divergences)
      std::printf("diff: %s\n", d.c_str());
  }
  return divergences.empty() ? kExitOk : kExitDivergence;
}

// ---------------------------------------------------------------------------
// metrics

int cmd_metrics(const Args& args) {
  if (args.positional().size() != 1)
    usage_fail("metrics needs exactly one <trace-file>");
  const Trace trace = load_trace_file(args.positional()[0]);
  const ReplayResult result = replay(trace);

  if (args.on("--json")) {
    std::string out = "{\n\"tallies\": " + jmap(trace.tallies);
    out += ",\n\"recorded_counters\": " + jmap(trace.counters);
    out += ",\n\"replayed\": " + result.metrics.to_json(2);
    out += "\n}";
    std::printf("%s\n", out.c_str());
    return kExitOk;
  }

  for (const auto& [name, value] : trace.tallies)
    std::printf("tally %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  for (const auto& [name, value] : result.metrics.counters())
    std::printf("counter %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  return kExitOk;
}

// ---------------------------------------------------------------------------
// live

int cmd_live(const Args& args) {
  const std::uint64_t seed =
      parse_u64_flag("--seed", args.get("--seed", "1"));
  Rng rng(seed);

  SystemModel model = [&] {
    if (args.has("--model")) return load_model_file(args.get("--model"));
    const std::size_t n = static_cast<std::size_t>(
        parse_u64_flag("--n", args.get("--n", "8")));
    SystemModel m(make_named(args.get("--topology", "complete"), n, rng));
    const double lower =
        parse_double_flag("--lower", args.get("--lower", "0"));
    const double upper =
        parse_double_flag("--upper", args.get("--upper", "1"));
    for (auto [a, b] : m.topology().links)
      m.set_constraint(make_bounds(a, b, lower, upper));
    return m;
  }();

  LiveConfig config;
  config.seed = seed;
  config.skew = parse_double_flag("--skew", args.get("--skew", "0.05"));
  const std::string transport = args.get("--transport", "loopback");
  if (transport == "loopback")
    config.transport = LiveTransportKind::kLoopback;
  else if (transport == "loopback-threaded")
    config.transport = LiveTransportKind::kLoopbackThreaded;
  else if (transport == "udp")
    config.transport = LiveTransportKind::kUdp;
  else
    usage_fail("--transport must be loopback, loopback-threaded or udp, "
               "got '" + transport + "'");
  config.delay_scale = parse_double_flag(
      "--delay-scale", args.get("--delay-scale", "0.01"));
  config.drop_probability =
      parse_double_flag("--drop", args.get("--drop", "0"));
  config.trace_path = args.get("--trace", "");
  config.offline_check = !args.on("--no-check");
  config.deadline =
      Duration{parse_double_flag("--deadline", args.get("--deadline", "30"))};

  config.agent.warmup =
      Duration{parse_double_flag("--warmup", args.get("--warmup", "0.2"))};
  config.agent.spacing = Duration{
      parse_double_flag("--spacing", args.get("--spacing", "0.05"))};
  config.agent.rounds = static_cast<std::size_t>(
      parse_u64_flag("--rounds", args.get("--rounds", "4")));
  config.agent.report_at = Duration{
      parse_double_flag("--report-at", args.get("--report-at", "1"))};
  config.agent.period =
      Duration{parse_double_flag("--period", args.get("--period", "1"))};
  config.agent.epochs = static_cast<std::size_t>(
      parse_u64_flag("--epochs", args.get("--epochs", "2")));
  config.agent.grace =
      Duration{parse_double_flag("--grace", args.get("--grace", "0"))};
  config.agent.leader = static_cast<ProcessorId>(
      parse_u64_flag("--leader", args.get("--leader", "0")));
  config.agent.sync = sync_options_from(args);
  config.drift.rho =
      parse_double_flag("--drift-ppm", args.get("--drift-ppm", "0")) * 1e-6;
  config.drift.slack =
      parse_double_flag("--drift-slack", args.get("--drift-slack", "0"));
  if ((config.drift.rho > 0.0) != (config.drift.slack > 0.0))
    usage_fail("--drift-ppm and --drift-slack go together");

  std::optional<ZonePlan> zone_plan;
  if (args.has("--zones")) {
    const std::size_t target = static_cast<std::size_t>(
        parse_u64_flag("--zones", args.get("--zones")));
    if (target == 0) usage_fail("--zones wants a target zone size >= 1");
    zone_plan = greedy_bfs_zones(model.topology(), target);
    config.zones = &*zone_plan;
  }

  const LiveReport report = run_live(model, config);
  const bool ok =
      report.converged && (!report.checked || report.all_match);

  if (args.on("--json")) {
    std::string out = "{\"transport\": " + jstr(report.transport);
    out += ", \"agents\": " + std::to_string(report.agents);
    out += ", \"seed\": " + std::to_string(seed);
    out += ", \"converged\": ";
    out += report.converged ? "true" : "false";
    out += ", \"checked\": ";
    out += report.checked ? "true" : "false";
    out += ", \"all_match\": ";
    out += report.all_match ? "true" : "false";
    out += ", \"dispatched\": " + std::to_string(report.dispatched);
    out += ", \"epochs\": [";
    for (std::size_t k = 0; k < report.epochs.size(); ++k) {
      const LiveEpochReport& ep = report.epochs[k];
      if (k > 0) out += ", ";
      out += "{\"epoch\": " + std::to_string(ep.epoch);
      out += ", \"boundary\": " + jnum(ep.boundary.sec);
      out += ", \"computed\": ";
      out += ep.claimed_precision.has_value() ? "true" : "false";
      if (ep.claimed_precision.has_value())
        out += ", \"precision\": " + jnum(*ep.claimed_precision);
      if (ep.drift_bound.has_value())
        out += ", \"drift_bound\": " + jnum(*ep.drift_bound);
      if (ep.realized_precision.has_value())
        out += ", \"realized\": " + jnum(*ep.realized_precision);
      if (ep.realized_intra.has_value())
        out += ", \"realized_intra\": " + jnum(*ep.realized_intra);
      if (ep.realized_cross.has_value())
        out += ", \"realized_cross\": " + jnum(*ep.realized_cross);
      if (ep.offline_precision.has_value())
        out += ", \"offline_precision\": " + jnum(*ep.offline_precision);
      out += ", \"degraded\": ";
      out += ep.degraded ? "true" : "false";
      out += ", \"matches_offline\": ";
      out += ep.matches_offline ? "true" : "false";
      out += ", \"reports\": " + std::to_string(ep.reports_absorbed);
      out += ", \"acks\": " + std::to_string(ep.acks);
      out += ", \"corrections\": " + jarray(ep.corrections);
      out += "}";
    }
    out += "], \"metrics\": " + report.metrics.to_json(0) + "}";
    std::printf("%s\n", out.c_str());
    return ok ? kExitOk : kExitDivergence;
  }

  std::printf("live run: %zu agents over %s, %zu events dispatched%s\n",
              report.agents, report.transport.c_str(), report.dispatched,
              report.timed_out ? " (deadline hit)" : "");
  if (config.drift.active())
    std::printf("drift budget: rho %s slack %s -> period %s, %zu epochs%s\n",
                num(config.drift.rho).c_str(),
                num(config.drift.slack).c_str(),
                num(report.resync_period.sec).c_str(), report.resync_epochs,
                report.resync_clamped ? " (clamped)" : "");
  for (const LiveEpochReport& ep : report.epochs) {
    if (!ep.claimed_precision.has_value()) {
      std::printf("epoch %zu  boundary %s  NOT COMPUTED (%zu/%zu reports)\n",
                  ep.epoch, num(ep.boundary.sec).c_str(),
                  ep.reports_absorbed, report.agents);
      continue;
    }
    std::printf("epoch %zu  boundary %s  precision %s  realized %s%s",
                ep.epoch, num(ep.boundary.sec).c_str(),
                num(*ep.claimed_precision).c_str(),
                ep.realized_precision ? num(*ep.realized_precision).c_str()
                                      : "?",
                ep.degraded ? "  DEGRADED" : "");
    if (ep.realized_intra.has_value() && ep.realized_cross.has_value())
      std::printf("  intra %s  cross %s", num(*ep.realized_intra).c_str(),
                  num(*ep.realized_cross).c_str());
    if (ep.offline_precision.has_value())
      std::printf("  offline %s  %s", num(*ep.offline_precision).c_str(),
                  ep.matches_offline ? "match" : "MISMATCH");
    std::printf("\n");
  }
  std::printf("%s\n", ok ? (report.converged ? "converged" : "ok")
                         : "NOT CONVERGED or live/offline mismatch");
  return ok ? kExitOk : kExitDivergence;
}

// ---------------------------------------------------------------------------

void print_usage(std::FILE* out) {
  std::fprintf(out, R"(cs_sync — chronosync pipeline driver

usage: cs_sync <subcommand> [args] [flags]

subcommands:
  simulate <out.trace>     record a simulated run as a replayable trace
  sync <views> <model>     offline synchronization from interchange files
                           (--zones K: Thm 5.5/5.6 zone composition over
                           greedy BFS zones of ~K nodes, with the per-zone
                           breakdown)
  replay <trace>           deterministic replay, verified vs. the recording
  diff <a.trace> <b.trace> structural trace comparison
  metrics <trace>          replay and dump tallies/counters
  live                     run n sync agents over a live transport
  version                  print the release banner (also --version)

common flags:
  --json                   machine-readable output
  --root N --apsp johnson|floyd-warshall --cycle-mean karp|howard
  --match strict|drop-orphans

simulate flags:
  --topology ring|line|star|complete|... --n N --lower S --upper S
  --model FILE             use an explicit chronosync-model file instead
  --proto ping-pong|beacon --rounds N --spacing S --warmup S
  --period S --count N     (beacon)
  --seed U --skew S --delay-scale S
  --drift R                constant-skew oscillators, band R ppm
                           (docs/DRIFT.md; disables the admissibility check)
  --drop P --dup P --spike P --spike-mag S --fault-seed U
  --down a:b:from:until    link outage window
  --crash pid:from[:until] processor crash window
  --boundaries t1,t2,...   epoch schedule (default: one epoch over all)
  --window S --carry --widen S --max-age N --rebuild
  --views FILE             also dump the views interchange file

replay flags:
  --rerecord FILE          write the trace with replayed outcomes

diff flags:
  --max-reports N          divergence report cap (default 16)

live flags:
  --transport loopback|loopback-threaded|udp   (default loopback)
  --topology/--n/--lower/--upper/--model       as for simulate
  --seed U --skew S --delay-scale S --drop P   (loopback transports)
  --warmup S --spacing S --rounds N            probe phase, per epoch
  --report-at S --period S --epochs N          epoch schedule
  --grace S                degraded-mode watchdog (0 = wait forever)
  --leader N --deadline S --trace FILE
  --zones K                split realized precision per-zone vs cross-zone
  --drift-ppm R --drift-slack S   drift budget: clamp the epoch period so
                           band-R clocks drift at most S between re-syncs
  --no-check               skip the offline cross-check

exit codes: 0 ok, 1 divergence found, 2 usage error, 3 runtime error
any '<subcommand> --help' prints this reference and exits 0
)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "help") == 0) {
    print_usage(argc < 2 ? stderr : stdout);
    return argc < 2 ? kExitUsage : kExitOk;
  }
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::printf("%s\n", kVersionBanner);
    return kExitOk;
  }
  // `cs_sync <sub> --help` is a request for the reference, not a flag
  // error: honor it before flag validation, uniformly across subcommands.
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(stdout);
      return kExitOk;
    }
  }
  try {
    const std::set<std::string> valued{
        "--root",     "--apsp",      "--cycle-mean", "--match",
        "--topology", "--n",         "--lower",      "--upper",
        "--model",    "--proto",     "--rounds",     "--spacing",
        "--warmup",   "--period",    "--count",      "--seed",
        "--skew",     "--delay-scale", "--drop",     "--dup",
        "--spike",    "--spike-mag", "--fault-seed", "--down",
        "--crash",    "--boundaries", "--window",    "--widen",
        "--max-age",  "--views",     "--rerecord",   "--max-reports",
        "--transport", "--report-at", "--epochs",    "--grace",
        "--leader",   "--deadline",  "--trace",      "--zones",
        "--drift",    "--drift-ppm", "--drift-slack"};
    const std::set<std::string> switches{"--json", "--carry", "--rebuild",
                                         "--no-check"};
    const Args args(argc - 2, argv + 2, valued, switches);

    if (command == "simulate") return cmd_simulate(args);
    if (command == "sync") return cmd_sync(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "diff") return cmd_diff(args);
    if (command == "metrics") return cmd_metrics(args);
    if (command == "live") return cmd_live(args);
    usage_fail("unknown subcommand '" + command + "'");
  } catch (const UsageError& e) {
    std::fprintf(stderr, "cs_sync: usage error: %s\n", e.message.c_str());
    std::fprintf(stderr, "run 'cs_sync help' for the flag reference\n");
    return kExitUsage;
  } catch (const Error& e) {
    std::fprintf(stderr, "cs_sync: error: %s\n", e.what());
    return kExitError;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cs_sync: error: %s\n", e.what());
    return kExitError;
  }
}
