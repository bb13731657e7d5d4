// E19 — wire-scale transport: bytes on the wire and session scale.
//
// Two scenarios, written to BENCH_net.json:
//
//   wire_bytes — one epoch of probe traffic for a complete graph, encoded
//     twice: compact (ProbeBatch/EchoBatch, 24-bit stamps, batched samples)
//     vs the canonical full-width fallback (one Full frame per
//     observation).  The acceptance gate is compact using >= 3x fewer
//     bytes per epoch.
//
//   sessions — one SyncServer process serving N concurrent loopback
//     clients (default 1200; --quick 128), each with its own socket:
//     Hello handshake + probe/echo round trip.  The acceptance gate is
//     >= 1000 concurrent sessions in one process (full mode).
//
// Usage: bench_e19_net [--quick] [--out PATH]
// Exit: 0 = gates hold, 1 = a gate failed, 2 = environment failure.

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "net/server.hpp"
#include "net/timestamp.hpp"
#include "net/wire.hpp"
#include "support.hpp"

namespace {

using namespace cs;
using namespace cs::net;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- scenario 1: bytes per epoch, compact vs full-width ----------------

struct WireBytes {
  std::size_t compact_bytes{0};
  std::size_t full_bytes{0};
  std::size_t observations{0};
};

// One epoch for a complete graph on n agents, `rounds` probe rounds: every
// ordered pair (p, q) carries `rounds` probe samples and `rounds` echo
// records.  `batch` is the N:M amortization factor — samples per
// ProbeBatch/EchoBatch frame (1 = streamed, one frame per round;
// `rounds` = fully batched, the format's design point).  The full-width
// fallback always carries one observation per self-describing Full frame
// (probe = (seq, t_send); echo = (seq, t_send, t_recv, t_reply)).
WireBytes epoch_bytes(std::size_t n, std::size_t rounds, std::size_t batch) {
  WireBytes out;
  const std::int64_t t0 = to_ticks(1234.5);
  std::uint64_t msg_id = 1;
  for (std::uint32_t p = 0; p < n; ++p) {
    for (std::uint32_t q = 0; q < n; ++q) {
      if (p == q) continue;
      for (std::size_t first = 0; first < rounds; first += batch) {
        const std::size_t count = std::min(batch, rounds - first);
        ProbeBatch probe;
        probe.from = p;
        probe.to = q;
        EchoBatch echo;
        echo.from = p;
        echo.to = q;
        echo.eseq = first + 1;
        echo.t_reply24 = compress24(t0);
        for (std::size_t r = first; r < first + count; ++r) {
          const std::uint64_t seq = r + 1;
          const std::int64_t t_send =
              t0 + static_cast<std::int64_t>(r) * 20000;
          probe.samples.push_back({seq, compress24(t_send)});
          echo.samples.push_back(
              {seq, compress24(t_send), compress24(t_send + 50)});

          FullMessage probe_full;
          probe_full.id = msg_id++;
          probe_full.from = p;
          probe_full.to = q;
          probe_full.tag = 1;
          probe_full.data = {static_cast<double>(seq), from_ticks(t_send)};
          out.full_bytes += encode(Frame{probe_full}).size();
          FullMessage echo_full;
          echo_full.id = msg_id++;
          echo_full.from = p;
          echo_full.to = q;
          echo_full.tag = 2;
          echo_full.data = {static_cast<double>(seq), from_ticks(t_send),
                            from_ticks(t_send + 50),
                            from_ticks(t_send + 90)};
          out.full_bytes += encode(Frame{echo_full}).size();
          out.observations += 2;
        }
        out.compact_bytes += encode(Frame{probe}).size();
        out.compact_bytes += encode(Frame{echo}).size();
      }
    }
  }
  return out;
}

// ---- scenario 2: concurrent sessions in one process --------------------

struct SessionsResult {
  std::size_t clients{0};
  std::size_t sessions{0};
  std::size_t peak{0};
  std::uint64_t frames{0};
  std::uint64_t echoed{0};
  double elapsed{0.0};
  bool ok{false};
};

SessionsResult run_sessions(std::size_t clients, Metrics& metrics) {
  SessionsResult out;
  out.clients = clients;

  SyncServerConfig config;
  config.agent = 9999;
  config.metrics = &metrics;
  SyncServer server(std::move(config));
  const SocketAddress target = server.local_address();

  std::vector<int> fds;
  fds.reserve(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) {
      std::fprintf(stderr, "socket() failed at client %zu: %s\n", i,
                   std::strerror(errno));
      for (const int f : fds) ::close(f);
      return out;
    }
    fds.push_back(fd);
  }

  sockaddr_in dst;
  to_sockaddr(target, dst);
  const double start = now_seconds();

  // Hello + one probe per client, in chunks so the server's socket buffer
  // never overflows (clients here do not retry; the real daemons do).
  const std::size_t chunk = 32;
  for (std::size_t i = 0; i < clients; ++i) {
    std::vector<std::uint8_t> datagram;
    encode(Frame{Hello{static_cast<std::uint32_t>(i),
                       to_ticks(now_seconds())}},
           datagram);
    ProbeBatch probe;
    probe.from = static_cast<std::uint32_t>(i);
    probe.to = 9999;
    probe.samples = {{1, compress24(to_ticks(now_seconds()))}};
    encode(Frame{probe}, datagram);
    (void)::sendto(fds[i], datagram.data(), datagram.size(), 0,
                   reinterpret_cast<const sockaddr*>(&dst), sizeof dst);
    if ((i + 1) % chunk == 0) server.step(0);
  }

  // Drain until every frame is in or nothing arrives for a while.
  const std::uint64_t expect_frames = 2 * clients;
  double quiet_since = now_seconds();
  while (server.frames_received() < expect_frames &&
         now_seconds() - quiet_since < 2.0) {
    const std::uint64_t before = server.frames_received();
    server.step(10);
    if (server.frames_received() != before) quiet_since = now_seconds();
  }
  out.elapsed = now_seconds() - start;

  // Count replies on a sample of clients (HelloAck + EchoBatch each).
  timeval tv{0, 100'000};
  for (std::size_t i = 0; i < std::min<std::size_t>(clients, 32); ++i) {
    ::setsockopt(fds[i], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    std::vector<std::uint8_t> buf(kMaxDatagramBytes);
    for (int r = 0; r < 2; ++r) {
      const ssize_t got = ::recv(fds[i], buf.data(), buf.size(), 0);
      if (got <= 0) break;
      const DecodeResult result = decode(std::span<const std::uint8_t>(
          buf.data(), static_cast<std::size_t>(got)));
      if (result.ok() &&
          std::get_if<EchoBatch>(&result.frame.body) != nullptr)
        ++out.echoed;
    }
  }

  // Let a sweep publish the session gauges.
  const double sweep_deadline = now_seconds() + 2.5;
  while (now_seconds() < sweep_deadline && server.peak_sessions() == 0)
    server.step(20);

  out.sessions = metrics.counter("runtime.net.sessions_created");
  out.peak = server.peak_sessions();
  out.frames = server.frames_received();
  out.ok = out.sessions >= clients && out.peak >= clients;

  for (const int fd : fds) ::close(fd);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const cs::bench::BenchArgs args = cs::bench::parse_bench_args(
      argc, argv, "BENCH_net.json", /*has_quick=*/true);

  cs::bench::print_header("E19", "wire-scale transport");
  cs::bench::BenchJson json("e19_net");

  // ---- wire bytes ------------------------------------------------------
  const std::size_t n = 8;
  const std::size_t rounds = 6;
  const WireBytes streamed = epoch_bytes(n, rounds, /*batch=*/1);
  const WireBytes batched = epoch_bytes(n, rounds, /*batch=*/rounds);
  const double streamed_ratio = static_cast<double>(streamed.full_bytes) /
                                static_cast<double>(streamed.compact_bytes);
  const double batched_ratio = static_cast<double>(batched.full_bytes) /
                               static_cast<double>(batched.compact_bytes);
  std::printf(
      "wire bytes, one epoch (n=%zu complete, %zu rounds, %zu obs):\n"
      "  full-width        %8zu bytes   (one Full frame per observation)\n"
      "  compact streamed  %8zu bytes   %5.2fx fewer (one sample per frame)\n"
      "  compact batched   %8zu bytes   %5.2fx fewer (N:M batches, gate >= "
      "3x)\n\n",
      n, rounds, batched.observations, batched.full_bytes,
      streamed.compact_bytes, streamed_ratio, batched.compact_bytes,
      batched_ratio);
  json.scenario("wire_bytes")
      .field("agents", n)
      .field("rounds", rounds)
      .field("observations", batched.observations)
      .field("bytes_full", batched.full_bytes)
      .field("bytes_compact_streamed", streamed.compact_bytes)
      .field("ratio_streamed", streamed_ratio)
      .field("bytes_compact_batched", batched.compact_bytes)
      .field("ratio_batched", batched_ratio);
  bool ok = batched_ratio >= 3.0;

  // ---- concurrent sessions --------------------------------------------
  const std::size_t clients = args.quick ? 128 : 1200;
  cs::Metrics metrics;
  const SessionsResult sr = run_sessions(clients, metrics);
  if (sr.frames == 0 && sr.sessions == 0) return 2;
  std::printf(
      "sessions, one process (%zu loopback clients%s):\n"
      "  sessions created %zu, peak %zu  (gate: >= 1000 in full mode)\n"
      "  frames %llu in %.3f s (%.0f frames/s), sample echoes %llu\n",
      sr.clients, args.quick ? ", --quick" : "", sr.sessions, sr.peak,
      static_cast<unsigned long long>(sr.frames), sr.elapsed,
      static_cast<double>(sr.frames) / sr.elapsed,
      static_cast<unsigned long long>(sr.echoed));
  json.scenario("sessions")
      .field("clients", sr.clients)
      .field("mode", args.quick ? "quick" : "full")
      .field("sessions_created", sr.sessions)
      .field("peak_sessions", sr.peak)
      .field("frames_received", static_cast<std::size_t>(sr.frames))
      .field("elapsed_seconds", sr.elapsed)
      .field("frames_per_second",
             static_cast<double>(sr.frames) / sr.elapsed)
      .field("backpressure_dropped",
             static_cast<std::size_t>(
                 metrics.counter("runtime.net.backpressure_dropped")))
      .field("decode_errors",
             static_cast<std::size_t>(
                 metrics.counter("runtime.net.decode_error")));
  ok = ok && sr.ok && (args.quick || sr.sessions >= 1000);

  if (!json.write(args.out)) return 2;
  std::printf("\nE19 gates: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
