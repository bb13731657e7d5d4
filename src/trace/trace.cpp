#include "trace/trace.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "io/views_io.hpp"

namespace cs {
namespace {

constexpr const char* kHeader = "chronosync-trace v1";

std::string fmt(double v) {
  if (v == std::numeric_limits<double>::infinity()) return "inf";
  if (v == -std::numeric_limits<double>::infinity()) return "-inf";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& what) {
  throw Error("trace parse error at line " + std::to_string(line_no) + ": " +
              what);
}

double parse_double(const std::string& tok, std::size_t line_no) {
  if (tok == "inf") return std::numeric_limits<double>::infinity();
  if (tok == "-inf") return -std::numeric_limits<double>::infinity();
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(tok, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != tok.size())
    parse_fail(line_no, "bad number '" + tok + "'");
  return v;
}

std::uint64_t parse_u64(const std::string& tok, std::size_t line_no) {
  if (tok.empty() || !std::isdigit(static_cast<unsigned char>(tok[0])))
    parse_fail(line_no, "bad unsigned integer '" + tok + "'");
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(tok.c_str(), &end, 10);
  if (end != tok.c_str() + tok.size())
    parse_fail(line_no, "bad unsigned integer '" + tok + "'");
  return v;
}

/// Reads the next meaningful line (skipping comments/blanks); false at EOF.
bool next_line(std::istream& is, std::string& line, std::size_t& line_no) {
  while (std::getline(is, line)) {
    ++line_no;
    std::size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    if (i == line.size() || line[i] == '#') continue;
    return true;
  }
  return false;
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream ss(line);
  std::vector<std::string> toks;
  std::string t;
  while (ss >> t) toks.push_back(t);
  return toks;
}

const char* loss_cause_name(LossCause c) {
  switch (c) {
    case LossCause::kSampler: return "sampler";
    case LossCause::kFaultDrop: return "drop";
    case LossCause::kLinkDown: return "down";
  }
  return "?";
}

LossCause parse_loss_cause(const std::string& tok, std::size_t line_no) {
  if (tok == "sampler") return LossCause::kSampler;
  if (tok == "drop") return LossCause::kFaultDrop;
  if (tok == "down") return LossCause::kLinkDown;
  parse_fail(line_no, "unknown loss cause '" + tok + "'");
}

const char* apsp_name(ApspAlgorithm a) {
  return a == ApspAlgorithm::kJohnson ? "johnson" : "floyd-warshall";
}

const char* cycle_mean_name(CycleMeanAlgorithm a) {
  return a == CycleMeanAlgorithm::kKarp ? "karp" : "howard";
}

const char* match_name(MatchPolicy m) {
  return m == MatchPolicy::kStrict ? "strict" : "drop-orphans";
}

}  // namespace

std::string format_event(const TraceEvent& ev) {
  std::ostringstream os;
  os << "event " << static_cast<char>(ev.kind) << ' ' << fmt(ev.real.sec);
  switch (ev.kind) {
    case TraceEvent::Kind::kSend:
    case TraceEvent::Kind::kDeliver:
      os << ' ' << ev.a << ' ' << ev.b << ' ' << ev.msg << ' '
         << fmt(ev.clock.sec);
      break;
    case TraceEvent::Kind::kLoss:
      os << ' ' << ev.a << ' ' << ev.b << ' ' << ev.msg << ' '
         << loss_cause_name(ev.cause);
      break;
    case TraceEvent::Kind::kCrashDrop:
      os << ' ' << ev.a << ' ' << ev.b << ' ' << ev.msg;
      break;
    case TraceEvent::Kind::kDuplicate:
    case TraceEvent::Kind::kSpike:
      os << ' ' << ev.a << ' ' << ev.b << ' ' << ev.msg << ' '
         << fmt(ev.extra);
      break;
    case TraceEvent::Kind::kTimerSet:
    case TraceEvent::Kind::kTimerFire:
      os << ' ' << ev.a << ' ' << fmt(ev.clock.sec) << ' '
         << fmt(ev.timer_at.sec);
      break;
    case TraceEvent::Kind::kTimerSuppressed:
      os << ' ' << ev.a << ' ' << fmt(ev.timer_at.sec);
      break;
  }
  return os.str();
}

bool EpochRecord::operator==(const EpochRecord& o) const {
  return boundary == o.boundary && precision == o.precision &&
         carried_edges == o.carried_edges &&
         observed_directions == o.observed_directions &&
         total_directions == o.total_directions &&
         pairing.paired == o.pairing.paired &&
         pairing.orphan_receives == o.pairing.orphan_receives &&
         pairing.duplicate_receives == o.pairing.duplicate_receives &&
         pairing.unreceived_sends == o.pairing.unreceived_sends &&
         component_precision == o.component_precision &&
         corrections == o.corrections;
}

EpochRecord epoch_record(const EpochOutcome& outcome) {
  EpochRecord r;
  r.boundary = outcome.boundary;
  r.precision = outcome.sync.optimal_precision;
  r.carried_edges = outcome.carried_edges;
  r.observed_directions = outcome.coverage.observed_directions;
  r.total_directions = outcome.coverage.total_directions;
  r.pairing = outcome.pairing;
  r.component_precision = outcome.sync.component_precision;
  r.corrections = outcome.sync.corrections;
  return r;
}

SystemModel Trace::model() const {
  std::istringstream is(model_text);
  try {
    return load_model(is);
  } catch (const Error& e) {
    throw Error(std::string("in embedded trace model: ") + e.what());
  }
}

void save_trace(std::ostream& os, const Trace& trace) {
  os << kHeader << '\n';
  os << "processors " << trace.processors << '\n';
  os << "seed " << trace.seed << '\n';
  for (std::size_t p = 0; p < trace.starts.size(); ++p)
    os << "start " << p << ' ' << fmt(trace.starts[p]) << '\n';
  for (std::size_t p = 0; p < trace.rates.size(); ++p)
    os << "rate " << p << ' ' << fmt(trace.rates[p]) << '\n';

  os << "begin model\n" << trace.model_text;
  if (!trace.model_text.empty() && trace.model_text.back() != '\n') os << '\n';
  os << "end model\n";

  const ReplayPlan& plan = trace.plan;
  os << "pipeline " << (plan.incremental ? "incremental" : "rebuild") << '\n';
  os << "root " << plan.options.sync.root << '\n';
  os << "apsp " << apsp_name(plan.options.sync.apsp) << '\n';
  os << "cycle-mean " << cycle_mean_name(plan.options.sync.cycle_mean)
     << '\n';
  os << "match " << match_name(plan.options.sync.match) << '\n';
  os << "window " << fmt(plan.options.window.sec) << '\n';
  const StalenessOptions& st = plan.options.staleness;
  os << "staleness " << (st.carry_forward ? 1 : 0) << ' '
     << fmt(st.widen_per_epoch) << ' ';
  if (st.max_carry_epochs == std::numeric_limits<std::size_t>::max())
    os << "inf";
  else
    os << st.max_carry_epochs;
  os << '\n';
  for (const ClockTime b : plan.boundaries)
    os << "boundary " << fmt(b.sec) << '\n';

  for (const TraceEvent& ev : trace.events) os << format_event(ev) << '\n';

  for (const auto& [name, value] : trace.tallies)
    os << "tally " << name << ' ' << value << '\n';

  for (std::size_t k = 0; k < trace.recorded.size(); ++k) {
    const EpochRecord& r = trace.recorded[k];
    os << "outcome " << k << " boundary " << fmt(r.boundary.sec)
       << " precision " << fmt(r.precision.value()) << " carried "
       << r.carried_edges << " coverage " << r.observed_directions << ' '
       << r.total_directions << " pairing " << r.pairing.paired << ' '
       << r.pairing.orphan_receives << ' ' << r.pairing.duplicate_receives
       << ' ' << r.pairing.unreceived_sends << " components "
       << r.component_precision.size();
    for (const double p : r.component_precision) os << ' ' << fmt(p);
    os << " corrections";
    for (const double c : r.corrections) os << ' ' << fmt(c);
    os << '\n';
  }

  for (const auto& [name, value] : trace.counters)
    os << "counter " << name << ' ' << value << '\n';
  os << "end trace\n";
}

namespace {

TraceEvent parse_event(const std::vector<std::string>& toks,
                       std::size_t line_no) {
  // toks[0] == "event"; toks[1] is the tag, toks[2] the real time.
  if (toks.size() < 3) parse_fail(line_no, "truncated event record");
  if (toks[1].size() != 1)
    parse_fail(line_no, "unknown event tag '" + toks[1] + "'");
  TraceEvent ev;
  ev.real = RealTime{parse_double(toks[2], line_no)};
  const char tag = toks[1][0];
  auto need = [&](std::size_t n) {
    if (toks.size() != n)
      parse_fail(line_no, std::string("wrong field count for event '") + tag +
                              "' (got " + std::to_string(toks.size() - 1) +
                              " fields)");
  };
  switch (tag) {
    case 'D':
    case 'R':
      need(7);
      ev.kind = static_cast<TraceEvent::Kind>(tag);
      ev.a = static_cast<ProcessorId>(parse_u64(toks[3], line_no));
      ev.b = static_cast<ProcessorId>(parse_u64(toks[4], line_no));
      ev.msg = parse_u64(toks[5], line_no);
      ev.clock = ClockTime{parse_double(toks[6], line_no)};
      break;
    case 'L':
      need(7);
      ev.kind = TraceEvent::Kind::kLoss;
      ev.a = static_cast<ProcessorId>(parse_u64(toks[3], line_no));
      ev.b = static_cast<ProcessorId>(parse_u64(toks[4], line_no));
      ev.msg = parse_u64(toks[5], line_no);
      ev.cause = parse_loss_cause(toks[6], line_no);
      break;
    case 'X':
      need(6);
      ev.kind = TraceEvent::Kind::kCrashDrop;
      ev.a = static_cast<ProcessorId>(parse_u64(toks[3], line_no));
      ev.b = static_cast<ProcessorId>(parse_u64(toks[4], line_no));
      ev.msg = parse_u64(toks[5], line_no);
      break;
    case 'U':
    case 'K':
      need(7);
      ev.kind = static_cast<TraceEvent::Kind>(tag);
      ev.a = static_cast<ProcessorId>(parse_u64(toks[3], line_no));
      ev.b = static_cast<ProcessorId>(parse_u64(toks[4], line_no));
      ev.msg = parse_u64(toks[5], line_no);
      ev.extra = parse_double(toks[6], line_no);
      break;
    case 'T':
    case 'F':
      need(6);
      ev.kind = static_cast<TraceEvent::Kind>(tag);
      ev.a = static_cast<ProcessorId>(parse_u64(toks[3], line_no));
      ev.clock = ClockTime{parse_double(toks[4], line_no)};
      ev.timer_at = ClockTime{parse_double(toks[5], line_no)};
      break;
    case 'Z':
      need(5);
      ev.kind = TraceEvent::Kind::kTimerSuppressed;
      ev.a = static_cast<ProcessorId>(parse_u64(toks[3], line_no));
      ev.timer_at = ClockTime{parse_double(toks[4], line_no)};
      break;
    default:
      parse_fail(line_no, "unknown event tag '" + toks[1] + "'");
  }
  return ev;
}

EpochRecord parse_outcome(const std::vector<std::string>& toks,
                          std::size_t line_no, std::size_t processors) {
  // outcome <k> boundary <t> precision <p> carried <n> coverage <o> <t>
  //   pairing <p> <o> <d> <u> components <k> <p...> corrections <c...>
  EpochRecord r;
  std::size_t i = 2;
  auto take = [&]() -> const std::string& {
    if (i >= toks.size())
      parse_fail(line_no, "truncated outcome record");
    return toks[i++];
  };
  auto expect = [&](const char* label) {
    const std::string& got = take();
    if (got != label)
      parse_fail(line_no, std::string("expected '") + label +
                              "' segment in outcome record, got '" + got +
                              "'");
  };
  expect("boundary");
  r.boundary = ClockTime{parse_double(take(), line_no)};
  expect("precision");
  r.precision = ExtReal{parse_double(take(), line_no)};
  expect("carried");
  r.carried_edges = parse_u64(take(), line_no);
  expect("coverage");
  r.observed_directions = parse_u64(take(), line_no);
  r.total_directions = parse_u64(take(), line_no);
  expect("pairing");
  r.pairing.paired = parse_u64(take(), line_no);
  r.pairing.orphan_receives = parse_u64(take(), line_no);
  r.pairing.duplicate_receives = parse_u64(take(), line_no);
  r.pairing.unreceived_sends = parse_u64(take(), line_no);
  expect("components");
  const std::size_t comp = parse_u64(take(), line_no);
  for (std::size_t c = 0; c < comp; ++c)
    r.component_precision.push_back(parse_double(take(), line_no));
  expect("corrections");
  while (i < toks.size())
    r.corrections.push_back(parse_double(toks[i++], line_no));
  // A detected epoch (negative m̃ls cycle) records precision +inf, no
  // components and no corrections; every other epoch corrects every
  // processor.
  const bool detected = r.precision.is_pos_inf() && r.corrections.empty() &&
                        r.component_precision.empty();
  if (r.corrections.size() != processors && !detected)
    parse_fail(line_no, "corrections count mismatch: got " +
                            std::to_string(r.corrections.size()) +
                            ", expected " + std::to_string(processors));
  return r;
}

}  // namespace

Trace load_trace(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  if (!next_line(is, line, line_no))
    parse_fail(1, "empty stream (expected '" + std::string(kHeader) + "')");
  if (tokens_of(line) != tokens_of(kHeader))
    parse_fail(line_no, "expected header '" + std::string(kHeader) +
                            "', got '" + line + "'");

  Trace trace;
  bool saw_processors = false;
  bool saw_end = false;
  std::size_t next_outcome = 0;

  while (next_line(is, line, line_no)) {
    auto toks = tokens_of(line);
    const std::string& key = toks[0];
    auto need = [&](std::size_t n) {
      if (toks.size() != n)
        parse_fail(line_no, "wrong field count in '" + key + "' record: '" +
                                line + "'");
    };
    if (key == "processors") {
      need(2);
      trace.processors = parse_u64(toks[1], line_no);
      trace.starts.assign(trace.processors, 0.0);
      saw_processors = true;
    } else if (key == "seed") {
      need(2);
      trace.seed = parse_u64(toks[1], line_no);
    } else if (key == "start" || key == "rate") {
      need(3);
      if (!saw_processors)
        parse_fail(line_no, "'" + key + "' before 'processors'");
      const auto pid = parse_u64(toks[1], line_no);
      if (pid >= trace.processors)
        parse_fail(line_no, "processor id out of range: '" + toks[1] + "'");
      const double v = parse_double(toks[2], line_no);
      if (key == "start") {
        trace.starts[pid] = v;
      } else {
        if (trace.rates.empty()) trace.rates.assign(trace.processors, 1.0);
        trace.rates[pid] = v;
      }
    } else if (key == "begin" && toks.size() == 2 && toks[1] == "model") {
      std::string raw;
      bool closed = false;
      std::ostringstream body;
      while (std::getline(is, raw)) {
        ++line_no;
        if (tokens_of(raw) == std::vector<std::string>{"end", "model"}) {
          closed = true;
          break;
        }
        body << raw << '\n';
      }
      if (!closed) parse_fail(line_no, "unterminated embedded model block");
      trace.model_text = body.str();
    } else if (key == "pipeline") {
      need(2);
      if (toks[1] == "incremental")
        trace.plan.incremental = true;
      else if (toks[1] == "rebuild")
        trace.plan.incremental = false;
      else
        parse_fail(line_no, "unknown pipeline mode '" + toks[1] + "'");
    } else if (key == "root") {
      need(2);
      trace.plan.options.sync.root =
          static_cast<NodeId>(parse_u64(toks[1], line_no));
    } else if (key == "apsp") {
      need(2);
      if (toks[1] == "johnson")
        trace.plan.options.sync.apsp = ApspAlgorithm::kJohnson;
      else if (toks[1] == "floyd-warshall")
        trace.plan.options.sync.apsp = ApspAlgorithm::kFloydWarshall;
      else
        parse_fail(line_no, "unknown apsp algorithm '" + toks[1] + "'");
    } else if (key == "cycle-mean") {
      need(2);
      if (toks[1] == "karp")
        trace.plan.options.sync.cycle_mean = CycleMeanAlgorithm::kKarp;
      else if (toks[1] == "howard")
        trace.plan.options.sync.cycle_mean = CycleMeanAlgorithm::kHoward;
      else
        parse_fail(line_no, "unknown cycle-mean algorithm '" + toks[1] + "'");
    } else if (key == "match") {
      need(2);
      if (toks[1] == "strict")
        trace.plan.options.sync.match = MatchPolicy::kStrict;
      else if (toks[1] == "drop-orphans")
        trace.plan.options.sync.match = MatchPolicy::kDropOrphans;
      else
        parse_fail(line_no, "unknown match policy '" + toks[1] + "'");
    } else if (key == "window") {
      need(2);
      trace.plan.options.window = Duration{parse_double(toks[1], line_no)};
    } else if (key == "staleness") {
      need(4);
      StalenessOptions& st = trace.plan.options.staleness;
      st.carry_forward = parse_u64(toks[1], line_no) != 0;
      st.widen_per_epoch = parse_double(toks[2], line_no);
      st.max_carry_epochs =
          toks[3] == "inf" ? std::numeric_limits<std::size_t>::max()
                           : parse_u64(toks[3], line_no);
    } else if (key == "boundary") {
      need(2);
      trace.plan.boundaries.push_back(
          ClockTime{parse_double(toks[1], line_no)});
    } else if (key == "event") {
      trace.events.push_back(parse_event(toks, line_no));
    } else if (key == "tally") {
      need(3);
      trace.tallies[toks[1]] = parse_u64(toks[2], line_no);
    } else if (key == "outcome") {
      if (toks.size() < 2)
        parse_fail(line_no, "truncated outcome record");
      if (!saw_processors)
        parse_fail(line_no, "'outcome' before 'processors'");
      const std::size_t idx = parse_u64(toks[1], line_no);
      if (idx != next_outcome)
        parse_fail(line_no, "outcome records out of order: got index " +
                                toks[1] + ", expected " +
                                std::to_string(next_outcome));
      ++next_outcome;
      trace.recorded.push_back(
          parse_outcome(toks, line_no, trace.processors));
    } else if (key == "counter") {
      need(3);
      trace.counters[toks[1]] = parse_u64(toks[2], line_no);
    } else if (key == "end" && toks.size() == 2 && toks[1] == "trace") {
      saw_end = true;
      break;
    } else {
      parse_fail(line_no, "unknown record '" + key + "'");
    }
  }
  if (!saw_end) parse_fail(line_no, "missing 'end trace' (truncated file?)");
  if (!saw_processors) parse_fail(line_no, "missing 'processors' record");
  if (trace.model_text.empty())
    parse_fail(line_no, "missing embedded model block");
  return trace;
}

void save_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream os(path);
  if (!os) throw Error("cannot open for writing: " + path);
  save_trace(os, trace);
}

Trace load_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open for reading: " + path);
  return load_trace(is);
}

}  // namespace cs
