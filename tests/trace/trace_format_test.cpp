// The trace format: round-trip exactness over every record kind, and
// line-numbered rejection of malformed input.

#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "io/views_io.hpp"
#include "support/builders.hpp"
#include "trace/writer.hpp"

namespace cs {
namespace {

/// A synthetic trace exercising every event kind, every loss cause, and
/// every serialized plan knob away from its default.
Trace exhaustive_trace() {
  Trace t;
  t.seed = 0xDEADBEEFu;
  t.processors = 3;
  t.starts = {0.0, 0.125, 0.0625};
  t.rates = {1.0, 1.0001, 0.9999};

  std::ostringstream model_os;
  save_model(model_os, test::bounded_model(make_ring(3), 0.002, 0.01));
  t.model_text = model_os.str();

  t.plan.incremental = false;
  t.plan.options.sync.root = 1;
  t.plan.options.sync.apsp = ApspAlgorithm::kFloydWarshall;
  t.plan.options.sync.cycle_mean = CycleMeanAlgorithm::kHoward;
  t.plan.options.sync.match = MatchPolicy::kDropOrphans;
  t.plan.options.window = Duration{0.75};
  t.plan.options.staleness.carry_forward = true;
  t.plan.options.staleness.widen_per_epoch = 0.005;
  t.plan.options.staleness.max_carry_epochs = 2;
  t.plan.boundaries = {ClockTime{0.5}, ClockTime{1.0}, ClockTime{1.5}};

  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kSend;
  ev.real = RealTime{0.1};
  ev.a = 0;
  ev.b = 1;
  ev.msg = 7;
  ev.clock = ClockTime{0.0999999999999999};
  t.events.push_back(ev);
  ev = TraceEvent{};
  ev.kind = TraceEvent::Kind::kDeliver;
  ev.real = RealTime{0.105};
  ev.a = 1;
  ev.b = 0;
  ev.msg = 7;
  ev.clock = ClockTime{0.2050000000000001};
  t.events.push_back(ev);
  ev = TraceEvent{};
  ev.kind = TraceEvent::Kind::kLoss;
  ev.real = RealTime{0.2};
  ev.a = 1;
  ev.b = 2;
  ev.msg = 8;
  ev.cause = LossCause::kFaultDrop;
  t.events.push_back(ev);
  ev.cause = LossCause::kLinkDown;
  ev.msg = 9;
  t.events.push_back(ev);
  ev.cause = LossCause::kSampler;
  ev.msg = 10;
  t.events.push_back(ev);
  ev = TraceEvent{};
  ev.kind = TraceEvent::Kind::kCrashDrop;
  ev.real = RealTime{0.3};
  ev.a = 2;
  ev.b = 1;
  ev.msg = 11;
  t.events.push_back(ev);
  ev = TraceEvent{};
  ev.kind = TraceEvent::Kind::kDuplicate;
  ev.real = RealTime{0.31};
  ev.a = 0;
  ev.b = 2;
  ev.msg = 12;
  ev.extra = 0.0123456789012345678;
  t.events.push_back(ev);
  ev.kind = TraceEvent::Kind::kSpike;
  ev.msg = 13;
  ev.extra = 0.025;
  t.events.push_back(ev);
  ev = TraceEvent{};
  ev.kind = TraceEvent::Kind::kTimerSet;
  ev.real = RealTime{0.4};
  ev.a = 1;
  ev.clock = ClockTime{0.5};
  ev.timer_at = ClockTime{0.55};
  t.events.push_back(ev);
  ev.kind = TraceEvent::Kind::kTimerFire;
  ev.clock = ClockTime{0.55};
  t.events.push_back(ev);
  ev = TraceEvent{};
  ev.kind = TraceEvent::Kind::kTimerSuppressed;
  ev.real = RealTime{0.6};
  ev.a = 2;
  ev.timer_at = ClockTime{0.7};
  t.events.push_back(ev);

  t.tallies = {{"delivered", 1}, {"lost", 1}, {"fault_dropped", 2}};

  EpochRecord rec;
  rec.boundary = ClockTime{0.5};
  rec.precision = ExtReal{0.001};
  rec.carried_edges = 2;
  rec.observed_directions = 5;
  rec.total_directions = 6;
  rec.pairing.paired = 10;
  rec.pairing.orphan_receives = 1;
  rec.corrections = {0.0, -0.1234567890123456789, 0.5};
  t.recorded.push_back(rec);
  rec.boundary = ClockTime{1.0};
  rec.precision = ExtReal::infinity();
  rec.component_precision = {0.001, 0.002};
  t.recorded.push_back(rec);
  // A detected epoch (negative m̃ls cycle): no components, no corrections.
  rec.boundary = ClockTime{1.5};
  rec.component_precision.clear();
  rec.corrections.clear();
  t.recorded.push_back(rec);

  t.counters = {{"fault.dropped", 2},
                {"pipeline.detected_epochs", 1},
                {"pipeline.epochs", 3}};
  return t;
}

TEST(TraceFormat, RoundTripExact) {
  const Trace t = exhaustive_trace();
  std::stringstream ss;
  save_trace(ss, t);
  const Trace back = load_trace(ss);

  EXPECT_EQ(back.seed, t.seed);
  EXPECT_EQ(back.processors, t.processors);
  EXPECT_EQ(back.starts, t.starts);
  EXPECT_EQ(back.rates, t.rates);
  EXPECT_EQ(back.model_text, t.model_text);
  EXPECT_EQ(back.plan.incremental, t.plan.incremental);
  EXPECT_EQ(back.plan.options.sync.root, t.plan.options.sync.root);
  EXPECT_EQ(back.plan.options.sync.apsp, t.plan.options.sync.apsp);
  EXPECT_EQ(back.plan.options.sync.cycle_mean,
            t.plan.options.sync.cycle_mean);
  EXPECT_EQ(back.plan.options.sync.match, t.plan.options.sync.match);
  EXPECT_EQ(back.plan.options.window.sec, t.plan.options.window.sec);
  EXPECT_EQ(back.plan.options.staleness.carry_forward,
            t.plan.options.staleness.carry_forward);
  EXPECT_EQ(back.plan.options.staleness.widen_per_epoch,
            t.plan.options.staleness.widen_per_epoch);
  EXPECT_EQ(back.plan.options.staleness.max_carry_epochs,
            t.plan.options.staleness.max_carry_epochs);
  ASSERT_EQ(back.plan.boundaries.size(), t.plan.boundaries.size());
  for (std::size_t i = 0; i < t.plan.boundaries.size(); ++i)
    EXPECT_EQ(back.plan.boundaries[i].sec, t.plan.boundaries[i].sec);
  EXPECT_EQ(back.events, t.events);
  EXPECT_EQ(back.tallies, t.tallies);
  ASSERT_EQ(back.recorded.size(), t.recorded.size());
  for (std::size_t i = 0; i < t.recorded.size(); ++i)
    EXPECT_EQ(back.recorded[i], t.recorded[i]) << "outcome " << i;
  EXPECT_EQ(back.counters, t.counters);
}

TEST(TraceFormat, SerializationIsDeterministic) {
  const Trace t = exhaustive_trace();
  std::stringstream a, b;
  save_trace(a, t);
  save_trace(b, t);
  EXPECT_EQ(a.str(), b.str());

  // Save → load → save is a fixed point.
  std::stringstream c(a.str());
  const Trace back = load_trace(c);
  std::stringstream d;
  save_trace(d, back);
  EXPECT_EQ(d.str(), a.str());
}

TEST(TraceFormat, EmbeddedModelParses) {
  const Trace t = exhaustive_trace();
  const SystemModel model = t.model();
  EXPECT_EQ(model.processor_count(), 3u);
  EXPECT_EQ(model.topology().link_count(), 3u);
}

std::string trace_error(const std::string& doc) {
  std::istringstream is(doc);
  try {
    load_trace(is);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected load_trace to reject:\n" << doc;
  return "";
}

/// The serialized exhaustive trace with one line rewritten (empty `to`
/// deletes the line).
std::string mutate_line(std::size_t line_no_1based, const std::string& to) {
  std::stringstream ss;
  save_trace(ss, exhaustive_trace());
  std::istringstream in(ss.str());
  std::ostringstream out;
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    ++n;
    if (n == line_no_1based) {
      if (!to.empty()) out << to << '\n';
    } else {
      out << line << '\n';
    }
  }
  return out.str();
}

TEST(TraceFormatErrors, BadHeader) {
  const std::string msg = trace_error("chronosync-trace v9\n");
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
}

TEST(TraceFormatErrors, TruncatedStream) {
  // Drop everything from the events on: the terminator goes missing.
  std::stringstream ss;
  save_trace(ss, exhaustive_trace());
  const std::string full = ss.str();
  const std::string cut = full.substr(0, full.find("event "));
  const std::string msg = trace_error(cut);
  EXPECT_NE(msg.find("end trace"), std::string::npos) << msg;
}

TEST(TraceFormatErrors, BadEventTagNamesLineAndToken) {
  std::stringstream ss;
  save_trace(ss, exhaustive_trace());
  std::string doc = ss.str();
  const std::size_t pos = doc.find("event D");
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, 7, "event Q");
  const std::string msg = trace_error(doc);
  EXPECT_NE(msg.find("'Q'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line"), std::string::npos) << msg;
}

TEST(TraceFormatErrors, EventFieldCountMismatch) {
  std::stringstream ss;
  save_trace(ss, exhaustive_trace());
  std::istringstream in(ss.str());
  std::ostringstream out;
  std::string line;
  std::size_t event_line = 0, n = 0;
  while (std::getline(in, line)) {
    ++n;
    if (line.rfind("event D", 0) == 0 && event_line == 0) {
      event_line = n;
      // Drop the trailing clock field.
      line = line.substr(0, line.rfind(' '));
    }
    out << line << '\n';
  }
  ASSERT_GT(event_line, 0u);
  const std::string msg = trace_error(out.str());
  EXPECT_NE(msg.find("line " + std::to_string(event_line)),
            std::string::npos)
      << msg;
}

TEST(TraceFormatErrors, BadNumberNamesToken) {
  const std::string msg = trace_error(mutate_line(3, "seed banana"));
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'banana'"), std::string::npos) << msg;
}

TEST(TraceFormatErrors, FiniteOutcomeWithoutCorrectionsRejected) {
  // Only a detected epoch (precision inf) may omit its corrections: a
  // finite-precision record cut after `corrections` is truncated input.
  std::stringstream ss;
  save_trace(ss, exhaustive_trace());
  std::string doc = ss.str();
  const std::size_t from = doc.find("outcome 0 ");
  ASSERT_NE(from, std::string::npos);
  const std::size_t eol = doc.find('\n', from);
  const std::size_t cut = doc.find(" corrections", from);
  ASSERT_LT(cut, eol);
  std::string line = doc.substr(from, cut - from);
  const std::size_t comps = line.find(" components ");
  ASSERT_NE(comps, std::string::npos);
  line = line.substr(0, comps) + " components 0 corrections";
  ASSERT_EQ(line.find("precision inf"), std::string::npos) << line;
  doc.replace(from, eol - from, line);
  const std::string msg = trace_error(doc);
  EXPECT_NE(msg.find("corrections count mismatch"), std::string::npos) << msg;
}

TEST(TraceFormatErrors, MissingModelRejected) {
  std::stringstream ss;
  save_trace(ss, exhaustive_trace());
  std::string doc = ss.str();
  const std::size_t from = doc.find("begin model");
  const std::size_t to = doc.find("end model");
  ASSERT_NE(from, std::string::npos);
  ASSERT_NE(to, std::string::npos);
  doc.erase(from, to + 10 - from);
  EXPECT_THROW({
    std::istringstream is(doc);
    load_trace(is);
  }, Error);
}

TEST(TraceWriterApi, FinishTwiceThrows) {
  std::ostringstream os;
  TraceWriter writer(os);
  writer.finish();
  EXPECT_THROW(writer.finish(), Error);
}

}  // namespace
}  // namespace cs
