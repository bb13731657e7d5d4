// serve: one SyncServer on loopback UDP under a closed-loop probe load.
//
// 512 client sockets each complete Hello and a warm-up, then one generator
// thread (this one) keeps 8 one-sample ProbeBatch datagrams in flight: every
// echo releases the next probe on the next session, round-robin.  The server
// reports into a Metrics sink, as the daemons do.  A probe with no matching
// echo within 250 ms, or an echo that does not carry its probe's seq and
// send stamp, is a failed operation.
//
// The serve "epoch" is one probe round: one echo from each of the 512
// sessions.  Its "bound" is the two-party precision one echo gives a client
// when delays are only known to be >= 0: half the round trip (the server's
// arrival and reply stamps coincide).

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "net/server.hpp"
#include "net/timestamp.hpp"
#include "net/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cs;
using namespace cs::net;

constexpr std::size_t kSessions = 512;
constexpr std::size_t kInFlight = 8;
constexpr std::uint32_t kServerAgent = 9999;
constexpr std::int64_t kProbeTimeoutNs = 250'000'000;
constexpr std::int64_t kHelloDeadlineNs = 5'000'000'000;
constexpr std::size_t kHelloWindow = 32;
/// RTT samples kept per load phase, beyond which a uniform reservoir; a
/// run fills it, so the memory the summaries use does not vary either.
constexpr std::size_t kRttCapacity = std::size_t{1} << 20;
/// The server numbers each session's echoes with a varint, so an echo
/// grows by a byte at the session's 129th; the warm-up takes every session
/// past it.
constexpr std::uint64_t kWarmEchoes = 160 * kSessions;
/// Traced runs keep the spans of one probe in this many (memory bound).
constexpr std::uint64_t kSpanSampling = 16;

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Agent ids 128..639 are all 2-byte varints, so every session's datagrams
/// have the same size.
std::uint32_t agent_id(std::size_t session) {
  return static_cast<std::uint32_t>(128 + session);
}

std::int64_t clock_ticks() {
  return to_ticks(static_cast<double>(now_ns()) * 1e-9);
}

struct Client {
  int fd{-1};
  bool outstanding{false};
  std::uint64_t seq{0};
  std::uint32_t t_send24{0};
  std::int64_t sent_ns{0};
  std::uint32_t span{0};
};

/// One server with kSessions established sessions: the serve set-up.
class Rig {
 public:
  Rig() {
    try {
      open();
    } catch (...) {
      release();
      throw;
    }
  }
  ~Rig() { release(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  SyncServer& server() { return *server_; }
  Metrics& metrics() { return metrics_; }
  std::vector<Client>& clients() { return clients_; }
  int epoll_fd() const { return epoll_; }

 private:
  /// Hello on every session until each has its HelloAck, with at most
  /// kHelloWindow unanswered at a time so the server's receive buffer never
  /// overflows; resends the unanswered after 100 ms without progress and
  /// gives up after kHelloDeadlineNs.
  void hello_all() {
    std::vector<std::uint8_t> out, in(kMaxDatagramBytes);
    std::vector<bool> acked(kSessions, false);
    std::size_t sent = 0, acks = 0;
    const auto send_hello = [&](std::size_t i) {
      out.clear();
      encode(Frame{Hello{agent_id(i), clock_ticks()}}, out);
      (void)::send(clients_[i].fd, out.data(), out.size(), 0);
    };
    while (sent < std::min(kHelloWindow, kSessions)) send_hello(sent++);
    const std::int64_t give_up = now_ns() + kHelloDeadlineNs;
    std::int64_t progress = now_ns();
    epoll_event events[64];
    while (acks < kSessions) {
      const std::int64_t now = now_ns();
      if (now > give_up)
        throw std::runtime_error("serve set-up: sessions missing HelloAck");
      if (now - progress > 100'000'000) {
        for (std::size_t i = 0; i < sent; ++i)
          if (!acked[i]) send_hello(i);
        progress = now;
      }
      const int n = ::epoll_wait(epoll_, events, 64, 10);
      for (int e = 0; e < n; ++e) {
        const std::uint32_t i = events[e].data.u32;
        ssize_t got;
        while ((got = ::recv(clients_[i].fd, in.data(), in.size(),
                             MSG_DONTWAIT)) > 0) {
          const DecodeResult r = decode(std::span<const std::uint8_t>(
              in.data(), static_cast<std::size_t>(got)));
          if (!r.ok() || std::get_if<HelloAck>(&r.frame.body) == nullptr ||
              acked[i])
            continue;
          acked[i] = true;
          ++acks;
          progress = now_ns();
          if (sent < kSessions) send_hello(sent++);
        }
      }
    }
  }

  void open() {
    SyncServerConfig config;
    config.agent = kServerAgent;
    config.metrics = &metrics_;
    server_ = std::make_unique<SyncServer>(std::move(config));
    server_->start();
    epoll_ = ::epoll_create1(0);
    if (epoll_ < 0) throw std::runtime_error("epoll_create1 failed");
    sockaddr_in dst{};
    to_sockaddr(server_->local_address(), dst);
    clients_.resize(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
      if (fd < 0) throw std::runtime_error("socket() failed");
      clients_[i].fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(i);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&dst),
                    sizeof dst) != 0 ||
          ::epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &ev) != 0)
        throw std::runtime_error("client socket set-up failed");
    }
    hello_all();
  }

  void release() {
    for (Client& c : clients_)
      if (c.fd >= 0) ::close(std::exchange(c.fd, -1));
    if (epoll_ >= 0) ::close(std::exchange(epoll_, -1));
    if (server_) server_->stop();
  }

  Metrics metrics_;  // outlives server_, which reports into it
  std::unique_ptr<SyncServer> server_;
  int epoll_{-1};
  std::vector<Client> clients_;
};

/// RTT samples in a buffer allocated and touched up front, so the
/// generator's own memory does not move peak RSS with the echo rate; past
/// its capacity it keeps a uniform reservoir.
class RttSamples {
 public:
  explicit RttSamples(std::uint64_t seed) : buf_(kRttCapacity), rng_(seed) {}
  void add(double us) {
    if (seen_ < buf_.size()) {
      buf_[seen_] = static_cast<float>(us);
    } else {
      const std::uint64_t j = rng_.uniform_int(seen_ + 1);
      if (j < buf_.size()) buf_[j] = static_cast<float>(us);
    }
    ++seen_;
  }
  std::vector<double> values() const {
    const std::size_t n = std::min<std::size_t>(seen_, buf_.size());
    return std::vector<double>(buf_.begin(), buf_.begin() + n);
  }

 private:
  std::vector<float> buf_;
  std::uint64_t seen_{0};
  Rng rng_;
};

struct Load {
  explicit Load(std::uint64_t seed) : rtt_us(seed) {}
  std::uint64_t sent{0}, echoed{0}, failed{0}, stray{0}, size_changes{0};
  RttSamples rtt_us;
  std::vector<double> round_s;  ///< time per kSessions echoes
  double wall_s{0}, loadgen_cpu_s{0}, process_cpu_s{0};
  std::uint64_t frames{0};
  std::size_t probe_bytes{0}, echo_bytes{0};
};

/// Closed-loop load for `seconds` or until `echoes` probes have been echoed,
/// then a drain of the probes in flight.  `order` is the round-robin order of
/// the sessions.
Load drive(Rig& rig, const std::vector<std::size_t>& order, double seconds,
           Tracer& tracer, std::uint64_t& seq,
           std::uint64_t echoes = UINT64_MAX) {
  Load load(seq);
  std::vector<Client>& clients = rig.clients();
  std::vector<std::uint8_t> out, in(kMaxDatagramBytes);
  std::size_t next = 0, in_flight = 0;
  bool sending = true;

  const auto send_probe = [&] {
    for (std::size_t tries = 0; tries < kSessions; ++tries) {
      const std::size_t i = order[next];
      next = (next + 1) % kSessions;
      Client& c = clients[i];
      if (c.outstanding) continue;
      c.seq = ++seq;
      const bool spans = tracer.enabled() && c.seq % kSpanSampling == 0;
      c.span = spans ? tracer.open("probe", c.seq) : 0;
      c.sent_ns = now_ns();
      c.t_send24 = compress24(to_ticks(static_cast<double>(c.sent_ns) * 1e-9));
      ProbeBatch probe;
      probe.from = agent_id(i);
      probe.to = kServerAgent;
      probe.samples.push_back(ProbeSample{c.seq, c.t_send24});
      out.clear();
      {
        Tracer::Scope encode_span(tracer, spans ? "wire.encode" : nullptr,
                                  c.seq, c.span);
        encode(Frame{std::move(probe)}, out);
      }
      if (load.probe_bytes != 0 && load.probe_bytes != out.size())
        ++load.size_changes;
      load.probe_bytes = out.size();
      ++load.sent;
      if (::send(c.fd, out.data(), out.size(), 0) !=
          static_cast<ssize_t>(out.size())) {
        ++load.failed;
        tracer.close(std::exchange(c.span, 0));
        continue;
      }
      c.outstanding = true;
      ++in_flight;
      return;
    }
  };

  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const double proc0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const std::uint64_t frames0 = rig.server().frames_received();
  std::int64_t round_start = start, next_scan = start;

  for (std::size_t k = 0; k < kInFlight; ++k) send_probe();
  epoll_event events[64];
  while (in_flight > 0 || sending) {
    const std::int64_t now = now_ns();
    if (sending && (now >= deadline || load.echoed >= echoes)) {
      sending = false;
      load.wall_s = static_cast<double>(now - start) * 1e-9;
      load.loadgen_cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
      load.process_cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - proc0;
      load.frames = rig.server().frames_received() - frames0;
    }
    if (now >= next_scan) {  // probes past the retry timeout have failed
      next_scan = now + 10'000'000;
      for (Client& c : clients) {
        if (!c.outstanding || now - c.sent_ns < kProbeTimeoutNs) continue;
        c.outstanding = false;
        --in_flight;
        ++load.failed;
        tracer.close(std::exchange(c.span, 0));
        if (sending) send_probe();
      }
    }
    const int n = ::epoll_wait(rig.epoll_fd(), events, 64, 5);
    for (int e = 0; e < n; ++e) {
      Client& c = clients[events[e].data.u32];
      ssize_t got;
      while ((got = ::recv(c.fd, in.data(), in.size(), MSG_DONTWAIT)) > 0) {
        const std::int64_t arrived = now_ns();
        const bool spans = c.span != 0;
        DecodeResult r;
        {
          Tracer::Scope decode_span(tracer, spans ? "wire.decode" : nullptr,
                                    c.seq, c.span);
          r = decode(std::span<const std::uint8_t>(
              in.data(), static_cast<std::size_t>(got)));
        }
        const auto* echo = std::get_if<EchoBatch>(&r.frame.body);
        if (!r.ok() || echo == nullptr || echo->samples.size() != 1 ||
            !c.outstanding || echo->samples[0].seq != c.seq) {
          ++load.stray;  // late echo of a probe already counted as failed
          continue;
        }
        c.outstanding = false;
        --in_flight;
        tracer.close(std::exchange(c.span, 0));
        if (load.echo_bytes != 0 &&
            load.echo_bytes != static_cast<std::size_t>(got))
          ++load.size_changes;
        load.echo_bytes = static_cast<std::size_t>(got);
        if (echo->samples[0].t_send24 != c.t_send24) {
          ++load.failed;  // wrong send stamp echoed
        } else {
          ++load.echoed;
          load.rtt_us.add(static_cast<double>(arrived - c.sent_ns) * 1e-3);
          if (sending && load.echoed % kSessions == 0) {
            load.round_s.push_back(static_cast<double>(arrived - round_start) *
                                   1e-9);
            round_start = arrived;
          }
        }
        if (sending) send_probe();
      }
    }
  }
  return load;
}

/// Per-call nanoseconds of f(), median over batches.
template <class F>
double per_call_ns(F&& f) {
  constexpr int kBatches = 15;
  constexpr int kCalls = 20'000;
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) f();
    ns.push_back(static_cast<double>(now_ns() - t0) / kCalls);
  }
  return median(ns);
}

/// encode/decode cost of the client's one-sample probe, the one-sample echo
/// it receives, and a 64-sample echo.
void measure_wire(Values& values) {
  // Shaped like the live datagrams: a settled session's ids and seqs.
  constexpr std::uint64_t kSeq = (std::uint64_t{1} << 21) + 12345;
  const ProbeBatch probe{agent_id(7), kServerAgent, {{kSeq, 0xABCDEF}}};
  const EchoBatch echo{kServerAgent, agent_id(7), 200, 0x123456,
                       {{kSeq, 0xABCDEF, 0x123456}}};
  EchoBatch echo64{kServerAgent, agent_id(7), 200, 0x123456, {}};
  for (std::uint64_t s = 0; s < 64; ++s)
    echo64.samples.push_back(
        {kSeq + s, static_cast<std::uint32_t>(s * 977), 0x123456});
  const Frame probe_frame{probe}, echo_frame{echo}, echo64_frame{echo64};
  std::vector<std::uint8_t> buf;
  values["wire.encode_ns"] = per_call_ns([&] {
    buf.clear();
    encode(probe_frame, buf);
  });
  const std::vector<std::uint8_t> echo_bytes = encode(echo_frame);
  values["wire.decode_ns"] =
      per_call_ns([&] { (void)decode(echo_bytes).consumed; });
  values["wire.echo64_encode_ns"] = per_call_ns([&] {
    buf.clear();
    encode(echo64_frame, buf);
  });
  const std::vector<std::uint8_t> echo64_bytes = encode(echo64_frame);
  values["wire.echo64_decode_ns"] =
      per_call_ns([&] { (void)decode(echo64_bytes).consumed; });
}

}  // namespace

void run_serve(const Options& o, Report& report, Tracer& tracer,
               Values& values) {
  // The seed sets the order in which the generator walks the sessions.
  std::vector<std::size_t> order(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) order[i] = i;
  Rng rng(o.seed);
  for (std::size_t i = kSessions - 1; i > 0; --i)
    std::swap(order[i], order[rng.uniform_int(i + 1)]);

  // Every seq from here up to 2^28 is a 4-byte varint, so datagram sizes
  // stay constant across the run.
  std::uint64_t seq = std::uint64_t{1} << 21;
  Tracer off(false);
  std::uint64_t stray = 0;
  const auto account = [&](const Load& load, bool settled) {
    stray += load.stray;
    report.add_attempts(load.sent, load.failed);
    report.check(load.failed == 0,
                 "serve: every probe echoed with its seq and send stamp");
    if (settled)
      report.check(load.size_changes == 0,
                   "serve: probe and echo sizes repeat exactly");
  };

  // Set-up: bind, Hello on every session, and the warm-up that takes every
  // session past the echo size change (kWarmEchoes).  The Hellos alone take
  // ~10 ms and swing 3x from run to run; with the warm-up the set-up is long
  // enough to time steadily.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const std::int64_t t0 = now_ns();
    rig = std::make_unique<Rig>();
    account(drive(*rig, order, 30.0, off, seq, kWarmEchoes), false);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  report.info("workload.sessions", static_cast<double>(kSessions));
  report.info("workload.in_flight", static_cast<double>(kInFlight));
  report.info("workload.threads", "server loop 1, load generator 1");

  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  const Load load = drive(*rig, order, budget, off, seq);
  account(load, true);
  report.series("setup_s", setup_s, "s");
  report.series("epoch_s", load.round_s, "s");
  const std::vector<double> rtt_us = load.rtt_us.values();
  report.series("rtt_us", rtt_us, "us");

  report.info("serve.stray_echoes", static_cast<double>(stray));
  values["setup_s"] = median(setup_s);
  values["epoch_s"] = median(load.round_s);
  values["bound_us"] = median(rtt_us) / 2;
  if (!o.trace) return;

  std::vector<double> sorted = rtt_us;
  std::sort(sorted.begin(), sorted.end());
  values["echoes_per_s"] = static_cast<double>(load.echoed) / load.wall_s;
  values["rtt_us_p50"] = percentile_sorted(sorted, 50);
  values["rtt_us_p99"] = percentile_sorted(sorted, 99);
  const double server_cpu = load.process_cpu_s - load.loadgen_cpu_s;
  values["server.frames"] = static_cast<double>(load.frames);
  values["server.cpu_us_per_frame"] =
      load.frames == 0
          ? 0.0
          : server_cpu / static_cast<double>(load.frames) * 1e6;
  values["server.busy_share"] = server_cpu / load.wall_s;
  values["loadgen.busy_share"] = load.loadgen_cpu_s / load.wall_s;
  values["wire.probe_bytes"] = static_cast<double>(load.probe_bytes);
  values["wire.echo_bytes"] = static_cast<double>(load.echo_bytes);

  const Load traced = drive(*rig, order, budget, tracer, seq);
  account(traced, true);
  report.series("traced.epoch_s", traced.round_s, "s");
  values["trace.overhead_ratio"] =
      median(traced.round_s) / median(load.round_s);

  Metrics& m = rig->metrics();
  values["server.decode_errors"] =
      static_cast<double>(m.counter("runtime.net.decode_error"));
  values["server.backpressure_dropped"] =
      static_cast<double>(m.counter("runtime.net.backpressure_dropped"));
  values["server.sessions_peak"] =
      static_cast<double>(rig->server().peak_sessions());
  measure_wire(values);
}

}  // namespace perfbench
