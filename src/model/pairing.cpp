#include "model/pairing.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/error.hpp"

namespace cs {
namespace {

struct SendRecord {
  MessageId id;
  ClockTime when;
  ProcessorId from;
  ProcessorId to;
};

/// splitmix64's finalizer.  Message ids are arbitrary 64-bit values (a
/// trace file or a wire frame may carry any), so every bit must reach the
/// low bits the table masks with.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Every send of the views, in view then event order, behind a flat
/// open-addressing index: a power-of-two table of record positions (0 =
/// empty, else position + 1), at least twice the send count so linear
/// probing always reaches an empty slot quickly.
class SendIndex {
 public:
  /// Positions are stored in 32 bits: 2^32 sends would be 160 GiB of view
  /// events, far past any view set that fits in memory.
  SendIndex(std::span<const View> views, std::size_t count) {
    records_.reserve(count);
    received_.assign(count, 0);
    slots_.assign(std::bit_ceil(std::max<std::size_t>(2 * count, 2)), 0);
    mask_ = slots_.size() - 1;
    for (const View& v : views) {
      for (const ViewEvent& e : v.events) {
        if (e.kind != EventKind::kSend) continue;
        std::uint32_t& slot = probe(e.msg);
        if (slot != 0)
          throw InvalidExecution("duplicate message id among sends");
        records_.push_back(SendRecord{e.msg, e.when, v.pid, e.peer});
        slot = static_cast<std::uint32_t>(records_.size());
      }
    }
  }

  /// Position of the send of `id` in send order, or npos if the views
  /// hold none.
  std::size_t find(MessageId id) { return std::size_t{probe(id)} - 1; }
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  const SendRecord& record(std::size_t at) const { return records_[at]; }
  /// Marks the send at `at` received; false if it already was.
  bool mark_received(std::size_t at) {
    if (received_[at] != 0) return false;
    received_[at] = 1;
    return true;
  }
  std::size_t size() const { return records_.size(); }

 private:
  /// The slot holding `id`, or the empty slot where it would go.
  std::uint32_t& probe(MessageId id) {
    for (std::size_t at = mix64(id) & mask_;; at = (at + 1) & mask_) {
      std::uint32_t& slot = slots_[at];
      if (slot == 0 || records_[slot - 1].id == id) return slot;
    }
  }

  std::vector<SendRecord> records_;
  std::vector<std::uint8_t> received_;  // per send: a receive was paired
  std::vector<std::uint32_t> slots_;
  std::size_t mask_{0};
};

}  // namespace

std::vector<PairedMessage> pair_messages(std::span<const View> views,
                                         MatchPolicy policy,
                                         PairingStats* stats) {
  std::size_t send_count = 0, receive_count = 0;
  for (const View& v : views)
    for (const ViewEvent& e : v.events) {
      if (e.kind == EventKind::kSend) ++send_count;
      if (e.kind == EventKind::kReceive) ++receive_count;
    }
  SendIndex sends(views, send_count);
  std::vector<PairedMessage> out;
  out.reserve(receive_count);
  for (const View& v : views) {
    for (const ViewEvent& e : v.events) {
      if (e.kind != EventKind::kReceive) continue;
      const std::size_t at = sends.find(e.msg);
      if (at == SendIndex::npos) {
        if (policy == MatchPolicy::kDropOrphans) {
          if (stats != nullptr) ++stats->orphan_receives;
          continue;
        }
        throw InvalidExecution("receive event with no matching send");
      }
      const SendRecord& s = sends.record(at);
      if (s.to != v.pid || s.from != e.peer)
        throw InvalidExecution("message endpoints disagree between views");
      // Exactly one PairedMessage per send: a re-received id is a faulty
      // network's duplicate.  Strict pairing rejects it; orphan-dropping
      // pairing keeps the earliest copy (events are in per-processor time
      // order, and both receives live in the same receiver's view).
      if (!sends.mark_received(at)) {
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
    stats->unreceived_sends = sends.size() - out.size();
  }
  return out;
}

std::vector<TracedMessage> trace_messages(const Execution& exec) {
  const std::vector<View> views = exec.views();
  const std::vector<PairedMessage> paired = pair_messages(views);
  std::vector<TracedMessage> out;
  out.reserve(paired.size());
  for (const PairedMessage& m : paired) {
    TracedMessage t;
    t.msg = m;
    t.send_real = exec.history(m.from).start() + (m.send_clock - ClockTime{});
    t.recv_real = exec.history(m.to).start() + (m.recv_clock - ClockTime{});
    out.push_back(t);
  }
  return out;
}

}  // namespace cs
