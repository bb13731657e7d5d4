#include "model/pairing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <typeinfo>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

/// Oracle for the flat send index: pair_messages as it was written over a
/// node-based std::unordered_map of sends and std::unordered_set of
/// received ids.  Same event order, same checks in the same order, same
/// messages.
std::vector<PairedMessage> map_pairing_oracle(std::span<const View> views,
                                              MatchPolicy policy,
                                              PairingStats* stats) {
  struct SendRecord {
    ProcessorId from;
    ProcessorId to;
    ClockTime when;
  };
  std::unordered_map<MessageId, SendRecord> sends;
  for (const View& v : views)
    for (const ViewEvent& e : v.events) {
      if (e.kind != EventKind::kSend) continue;
      if (!sends.emplace(e.msg, SendRecord{v.pid, e.peer, e.when}).second)
        throw InvalidExecution("duplicate message id among sends");
    }
  std::vector<PairedMessage> out;
  std::unordered_set<MessageId> received;
  for (const View& v : views) {
    for (const ViewEvent& e : v.events) {
      if (e.kind != EventKind::kReceive) continue;
      const auto it = sends.find(e.msg);
      if (it == sends.end()) {
        if (policy == MatchPolicy::kDropOrphans) {
          if (stats != nullptr) ++stats->orphan_receives;
          continue;
        }
        throw InvalidExecution("receive event with no matching send");
      }
      const SendRecord& s = it->second;
      if (s.to != v.pid || s.from != e.peer)
        throw InvalidExecution("message endpoints disagree between views");
      if (!received.insert(e.msg).second) {
        if (policy == MatchPolicy::kDropOrphans) {
          if (stats != nullptr) ++stats->duplicate_receives;
          continue;
        }
        throw InvalidExecution("message received twice");
      }
      out.push_back(PairedMessage{e.msg, s.from, v.pid, s.when, e.when});
    }
  }
  if (stats != nullptr) {
    stats->paired = out.size();
    stats->unreceived_sends = sends.size() - received.size();
  }
  return out;
}

/// Everything observable about one pairing call.
struct PairingRun {
  std::vector<PairedMessage> out;
  PairingStats stats;
  std::optional<std::string> thrown_type;
  std::string what;
};

template <typename Pair>
PairingRun run_pairing(Pair pair, std::span<const View> views,
                       MatchPolicy policy) {
  PairingRun r;
  try {
    r.out = pair(views, policy, &r.stats);
  } catch (const std::exception& e) {
    r.thrown_type = typeid(e).name();
    r.what = e.what();
  }
  return r;
}

/// Random views over `procs` processors.  `faults` switches on unreceived
/// sends, orphan receives and re-deliveries; `fatal` adds rare duplicate
/// send ids and endpoint mismatches (a receive, or a re-delivered copy,
/// at the wrong processor or naming the wrong source).  Ids are drawn so
/// that many have high bits set and many share their low 32 bits.
std::vector<View> random_views(Rng& rng, std::size_t procs,
                               std::size_t messages, bool faults,
                               bool fatal) {
  std::vector<View> views(procs);
  for (std::size_t p = 0; p < procs; ++p) {
    views[p].pid = static_cast<ProcessorId>(p);
    views[p].events.push_back(ViewEvent{});  // kStart at clock 0
  }
  const auto event = [&](EventKind kind, MessageId id, std::size_t peer) {
    ViewEvent e;
    e.kind = kind;
    e.when = ClockTime{rng.uniform(0.0, 100.0)};
    e.msg = id;
    e.peer = static_cast<ProcessorId>(peer);
    return e;
  };
  std::vector<MessageId> used;
  for (std::size_t m = 0; m < messages; ++m) {
    MessageId id = 0;
    switch (rng.uniform_int(4)) {
      case 0: id = rng.next(); break;                        // any 64 bits
      case 1: id = (rng.next() << 32) | 0x2au; break;        // same low 32
      case 2: id = (rng.uniform_int(64) << 58) | m; break;   // high bits only
      default: id = m; break;                                // small, dense
    }
    if (fatal && !used.empty() && rng.uniform_int(400) == 0)
      id = used[rng.uniform_int(used.size())];  // duplicate send id
    used.push_back(id);
    const std::size_t from = rng.uniform_int(procs);
    const std::size_t to = (from + 1 + rng.uniform_int(procs - 1)) % procs;
    const bool orphan = faults && rng.uniform_int(10) == 0;
    if (!orphan) views[from].events.push_back(event(EventKind::kSend, id, to));
    if (faults && rng.uniform_int(10) == 0) continue;  // lost in transit
    std::size_t at = to;
    std::size_t peer = from;
    if (fatal && rng.uniform_int(300) == 0) {
      if (rng.uniform_int(2) == 0) at = (to + 1) % procs;  // wrong receiver
      else peer = (from + 1) % procs;                      // wrong source
    }
    views[at].events.push_back(event(EventKind::kReceive, id, peer));
    if (faults && rng.uniform_int(8) == 0) {  // re-delivered copy ...
      const bool astray = fatal && rng.uniform_int(20) == 0;  // ... elsewhere
      views[astray ? (at + 1) % procs : at].events.push_back(
          event(EventKind::kReceive, id, peer));
    }
  }
  // Any per-view order: pairing must walk it as given.
  for (View& v : views)
    std::shuffle(v.events.begin() + 1, v.events.end(), rng);
  return views;
}


TEST(Pairing, EstimatedDelayLemma61) {
  // d̃(m) = d(m) + S_send - S_recv, and equals recv clock - send clock.
  const double s0 = 2.0, s1 = 5.0;
  const Execution e = test::two_node_execution(s0, s1, {0.4}, {0.7});
  for (const TracedMessage& t : trace_messages(e)) {
    const double s_from = (t.msg.from == 0) ? s0 : s1;
    const double s_to = (t.msg.to == 0) ? s0 : s1;
    EXPECT_NEAR(t.msg.estimated_delay().sec,
                t.delay().sec + s_from - s_to, 1e-12);
  }
}

TEST(Pairing, ActualDelaysMatchConstruction) {
  const Execution e = test::two_node_execution(1.0, 2.0, {0.25, 0.5}, {});
  const auto msgs = trace_messages(e);
  ASSERT_EQ(msgs.size(), 2u);
  std::vector<double> delays{msgs[0].delay().sec, msgs[1].delay().sec};
  std::sort(delays.begin(), delays.end());
  EXPECT_NEAR(delays[0], 0.25, 1e-12);
  EXPECT_NEAR(delays[1], 0.5, 1e-12);
}

TEST(Pairing, FromViewsAlone) {
  // pair_messages must work on views (no real times).
  const Execution e = test::two_node_execution(3.0, 1.0, {0.4}, {0.2});
  const auto views = e.views();
  const auto paired = pair_messages(views);
  ASSERT_EQ(paired.size(), 2u);
  for (const PairedMessage& m : paired) {
    EXPECT_NE(m.from, m.to);
    // d̃ = d + S_from - S_to with d in {0.4, 0.2}.
    if (m.from == 0) {
      EXPECT_NEAR(m.estimated_delay().sec, 0.4 + 2.0, 1e-12);
    }
    if (m.from == 1) {
      EXPECT_NEAR(m.estimated_delay().sec, 0.2 - 2.0, 1e-12);
    }
  }
}

TEST(Pairing, UnreceivedSendsAreDropped) {
  History h0(0, RealTime{0.0});
  ViewEvent send;
  send.kind = EventKind::kSend;
  send.when = ClockTime{1.0};
  send.msg = 42;
  send.peer = 1;
  h0.append(send);
  History h1(1, RealTime{0.0});
  std::vector<View> views{h0.view(), h1.view()};
  EXPECT_TRUE(pair_messages(views).empty());
}

TEST(Pairing, ReceiveWithoutSendThrows) {
  History h0(0, RealTime{0.0});
  History h1(1, RealTime{0.0});
  ViewEvent recv;
  recv.kind = EventKind::kReceive;
  recv.when = ClockTime{1.0};
  recv.msg = 7;
  recv.peer = 0;
  h1.append(recv);
  std::vector<View> views{h0.view(), h1.view()};
  EXPECT_THROW(pair_messages(views), InvalidExecution);
}

TEST(Pairing, DuplicateSendIdThrows) {
  History h0(0, RealTime{0.0});
  ViewEvent send;
  send.kind = EventKind::kSend;
  send.when = ClockTime{1.0};
  send.msg = 7;
  send.peer = 1;
  h0.append(send);
  send.when = ClockTime{2.0};
  h0.append(send);  // same id again
  History h1(1, RealTime{0.0});
  std::vector<View> views{h0.view(), h1.view()};
  EXPECT_THROW(pair_messages(views), InvalidExecution);
}

TEST(Pairing, DuplicateReceiveThrows) {
  // Regression: exactly one PairedMessage may exist per send.  A faulty
  // network re-delivering message id 7 must not inflate the sample set.
  History h0(0, RealTime{0.0});
  ViewEvent send;
  send.kind = EventKind::kSend;
  send.when = ClockTime{1.0};
  send.msg = 7;
  send.peer = 1;
  h0.append(send);
  History h1(1, RealTime{0.0});
  ViewEvent recv;
  recv.kind = EventKind::kReceive;
  recv.when = ClockTime{2.0};
  recv.msg = 7;
  recv.peer = 0;
  h1.append(recv);
  recv.when = ClockTime{3.0};
  h1.append(recv);
  std::vector<View> views{h0.view(), h1.view()};
  EXPECT_THROW(pair_messages(views, MatchPolicy::kStrict),
               InvalidExecution);
}

TEST(Pairing, DropOrphansKeepsEarliestDuplicate) {
  History h0(0, RealTime{0.0});
  ViewEvent send;
  send.kind = EventKind::kSend;
  send.when = ClockTime{1.0};
  send.msg = 7;
  send.peer = 1;
  h0.append(send);
  History h1(1, RealTime{0.0});
  ViewEvent recv;
  recv.kind = EventKind::kReceive;
  recv.when = ClockTime{2.0};
  recv.msg = 7;
  recv.peer = 0;
  h1.append(recv);
  recv.when = ClockTime{3.0};
  h1.append(recv);  // duplicate re-delivery, later
  std::vector<View> views{h0.view(), h1.view()};

  PairingStats stats;
  const auto paired =
      pair_messages(views, MatchPolicy::kDropOrphans, &stats);
  ASSERT_EQ(paired.size(), 1u);
  EXPECT_EQ(paired[0].recv_clock, ClockTime{2.0});  // the earliest copy
  EXPECT_EQ(stats.paired, 1u);
  EXPECT_EQ(stats.duplicate_receives, 1u);
  EXPECT_EQ(stats.orphan_receives, 0u);
  EXPECT_EQ(stats.unreceived_sends, 0u);
}

TEST(Pairing, StatsTallyOrphansAndUnreceivedSends) {
  History h0(0, RealTime{0.0});
  ViewEvent send;
  send.kind = EventKind::kSend;
  send.when = ClockTime{1.0};
  send.msg = 1;
  send.peer = 1;
  h0.append(send);
  send.when = ClockTime{2.0};
  send.msg = 2;  // never received (dropped in transit)
  h0.append(send);
  History h1(1, RealTime{0.0});
  ViewEvent recv;
  recv.kind = EventKind::kReceive;
  recv.when = ClockTime{1.5};
  recv.msg = 1;
  recv.peer = 0;
  h1.append(recv);
  recv.when = ClockTime{2.5};
  recv.msg = 99;  // orphan: send outside these views
  h1.append(recv);
  std::vector<View> views{h0.view(), h1.view()};

  PairingStats stats;
  const auto paired =
      pair_messages(views, MatchPolicy::kDropOrphans, &stats);
  ASSERT_EQ(paired.size(), 1u);
  EXPECT_EQ(stats.paired, 1u);
  EXPECT_EQ(stats.orphan_receives, 1u);
  EXPECT_EQ(stats.duplicate_receives, 0u);
  EXPECT_EQ(stats.unreceived_sends, 1u);
}

TEST(Pairing, EndpointMismatchThrows) {
  History h0(0, RealTime{0.0});
  ViewEvent send;
  send.kind = EventKind::kSend;
  send.when = ClockTime{1.0};
  send.msg = 7;
  send.peer = 2;  // declared destination: 2
  h0.append(send);
  History h1(1, RealTime{0.0});
  ViewEvent recv;
  recv.kind = EventKind::kReceive;  // but received by 1
  recv.when = ClockTime{2.0};
  recv.msg = 7;
  recv.peer = 0;
  h1.append(recv);
  History h2(2, RealTime{0.0});
  std::vector<View> views{h0.view(), h1.view(), h2.view()};
  EXPECT_THROW(pair_messages(views), InvalidExecution);
}

TEST(Pairing, FlatIndexEqualsMapOracle) {
  std::size_t strict_throws = 0, drop_throws = 0, paired = 0;
  std::size_t orphans = 0, redelivered = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    Rng rng(0x9a1e + seed);
    const std::size_t procs = 2 + rng.uniform_int(6);
    const std::size_t messages = rng.uniform_int(seed % 8 == 0 ? 3000 : 200);
    const bool faults = seed % 4 != 0;
    const bool fatal = seed % 3 == 0;
    const std::vector<View> views =
        random_views(rng, procs, messages, faults, fatal);
    for (const MatchPolicy policy :
         {MatchPolicy::kStrict, MatchPolicy::kDropOrphans}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " policy "
                   << (policy == MatchPolicy::kStrict ? "strict" : "drop"));
      const PairingRun got = run_pairing(
          [](auto v, auto p, auto s) { return pair_messages(v, p, s); },
          views, policy);
      const PairingRun want = run_pairing(map_pairing_oracle, views, policy);
      ASSERT_EQ(got.thrown_type, want.thrown_type);
      ASSERT_EQ(got.what, want.what);
      if (got.thrown_type) {
        ASSERT_EQ(*got.thrown_type, typeid(InvalidExecution).name());
        ++(policy == MatchPolicy::kStrict ? strict_throws : drop_throws);
      }
      EXPECT_EQ(got.stats.paired, want.stats.paired);
      EXPECT_EQ(got.stats.orphan_receives, want.stats.orphan_receives);
      EXPECT_EQ(got.stats.duplicate_receives, want.stats.duplicate_receives);
      EXPECT_EQ(got.stats.unreceived_sends, want.stats.unreceived_sends);
      ASSERT_EQ(got.out.size(), want.out.size());
      for (std::size_t k = 0; k < got.out.size(); ++k) {
        const PairedMessage& a = got.out[k];
        const PairedMessage& b = want.out[k];
        ASSERT_EQ(a.id, b.id) << "message " << k;
        ASSERT_EQ(a.from, b.from) << "message " << k;
        ASSERT_EQ(a.to, b.to) << "message " << k;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.send_clock.sec),
                  std::bit_cast<std::uint64_t>(b.send_clock.sec));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.recv_clock.sec),
                  std::bit_cast<std::uint64_t>(b.recv_clock.sec));
      }
      paired += got.out.size();
      // Without stats the same messages come out.
      if (!got.thrown_type) {
        EXPECT_EQ(pair_messages(views, policy).size(), got.out.size());
      }
      if (policy == MatchPolicy::kDropOrphans) {
        orphans += got.stats.orphan_receives;
        redelivered += got.stats.duplicate_receives;
      }
    }
  }
  // The sweep really reached every branch: clean pairs, skipped orphans
  // and re-deliveries, strict-only rejections and rejections under both
  // policies (duplicate send ids, endpoint mismatches).
  EXPECT_GT(paired, 10000u);
  EXPECT_GT(orphans, 100u);
  EXPECT_GT(redelivered, 100u);
  EXPECT_GT(strict_throws, drop_throws);
  EXPECT_GT(drop_throws, 0u);
}

}  // namespace
}  // namespace cs
