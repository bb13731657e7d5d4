// NetDaemon: the §7 protocol over real sockets — N processes (or threads),
// one UDP socket each, converging to the Thm 4.6 optimal corrections.
//
// Role of each daemon p with local clock  c_p(t) = base_clock(t) − base − S_p
// (the repo convention: clock time = real time − start time; `base` is a
// shared origin all daemons of one run agree on out of band):
//
//   1. PROBE   — every `spacing`, send one ProbeBatch to each topology
//                neighbor; echo incoming probes back in batched EchoBatch
//                frames (compact 24-bit stamps both ways, frames of one
//                tick concatenated into a single datagram).
//   2. BANK    — each incoming probe sample yields an estimated delay
//                d̃ = T_recv − T_send (Lemma 6.1) for the direction q → p,
//                reconstructed from the 24-bit stamp against the local
//                clock; each incoming echo's t_reply yields one more.
//                Duplicates are deduplicated by (peer, seq); ambiguous
//                reconstructions (window edge) are dropped and counted.
//   3. REPORT  — at the boundary `report_at`, send the per-direction
//                extremes (the Lemma 6.2/6.5 sufficient statistic) to the
//                leader as a canonical full-width frame: bit-exact doubles,
//                so the leader's pipeline input equals what an offline
//                recompute from the same table sees.
//   4. COMPUTE — the leader folds all reports into LinkStats, runs
//                mls_graph_from_stats → synchronize_mls (root = leader),
//                and floods [precision, x_0 … x_{n-1}] to every agent.
//   5. ACK     — followers acknowledge; everything REPORT-and-later is
//                retried on a timer, so any single datagram may be lost.
//
// The control plane (reports, corrections, acks) rides the same socket as
// the probe plane but is out of band with respect to the analyzed instance:
// only probe/echo traffic is banked, mirroring how the trace tooling keeps
// control traffic out of views.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/metrics.hpp"
#include "common/time.hpp"
#include "core/synchronizer.hpp"
#include "net/address.hpp"
#include "net/event_loop.hpp"
#include "net/wire.hpp"

namespace cs::net {

/// Control-plane tags carried in Full frames (disjoint from the runtime's
/// live tags; these never enter views).
inline constexpr std::uint32_t kTagNetReport = 40;
inline constexpr std::uint32_t kTagNetCorrections = 41;
inline constexpr std::uint32_t kTagNetAck = 42;

/// Extremes of one incoming direction peer → reporter.
struct DirectionExtremes {
  ProcessorId peer{0};
  double dmin{0.0};
  double dmax{0.0};
  std::uint64_t count{0};

  bool operator==(const DirectionExtremes&) const = default;
};

/// One agent's report: every incoming direction it observed.
struct ReportedExtremes {
  ProcessorId agent{0};
  std::vector<DirectionExtremes> dirs;

  bool operator==(const ReportedExtremes&) const = default;
};

/// Report payload codec (doubles are exact for the values involved):
///   [dir_count, (peer, dmin, dmax, count) ...]
std::vector<double> encode_extremes(const std::vector<DirectionExtremes>& dirs);
bool decode_extremes(std::span<const double> data,
                     std::vector<DirectionExtremes>& out);

/// The leader's compute step as a pure function: LinkStats from the
/// reported extremes → mls_graph_from_stats → synchronize_mls(root).
/// Exposed so harnesses can recompute offline from a daemon's collected
/// table and compare bit-for-bit against the corrections it flooded.
SyncOutcome synchronize_from_extremes(const SystemModel& model,
                                      std::span<const ReportedExtremes> reports,
                                      ProcessorId root);

struct NetDaemonConfig {
  /// This daemon's agent id (index into `peers` and the model).
  ProcessorId id{0};
  /// Socket address of every agent, indexed by id; peers[id] is this
  /// daemon's bind address (port 0 = ephemeral, see local_address()).
  std::vector<SocketAddress> peers;
  ProcessorId leader{0};
  /// System assumptions (G, A); must outlive the daemon.  Probing follows
  /// the topology's links; peers.size() must equal processor_count().
  const SystemModel* model{nullptr};

  /// Shared clock origin in base_clock units: all daemons of one run use
  /// the same value (the harness picks e.g. now + 1s), so their schedules
  /// align without any in-band coordination.
  double base{0.0};
  /// This daemon's start offset S_p; local clock = base_clock − base − S_p.
  Duration start_offset{0.0};
  /// Wall clock shared across processes; default CLOCK_REALTIME seconds.
  std::function<double()> base_clock;

  // Schedule, in local clock seconds.
  Duration warmup{0.3};     ///< first probe round
  Duration spacing{0.05};   ///< between probe rounds
  std::size_t rounds{8};
  Duration report_at{1.2};  ///< boundary: snapshot extremes, start REPORT
  Duration retry{0.1};      ///< report / corrections resend interval
  Duration linger{0.4};     ///< follower lifetime after acking (re-acks)
  Duration deadline{15.0};  ///< hard stop, converged or not
  /// Reconstruction guard band (timestamp.hpp).
  std::int64_t guard_ticks{kDefaultGuardTicks};
  /// Refuse Hellos whose full-width stamp differs by more than this.
  std::int64_t max_hello_skew_ticks{kTimestampHalfWindow / 2};
  /// Flush pending echo samples once this many accumulate (otherwise they
  /// piggyback on the next probe datagram to that peer).
  std::size_t echo_flush_batch{8};

  LoopBackend backend{LoopBackend::kAuto};
  Metrics* metrics{nullptr};  ///< must outlive the daemon; nullptr = off
};

struct NetDaemonReport {
  /// Followers: corrections received.  Leader: outcome computed.
  bool converged{false};
  /// Leader only: all n reports arrived and the pipeline ran.
  bool computed{false};
  /// Leader only: the pipeline rejected the traffic (InvalidAssumption) —
  /// the §8 detection outcome surfaced over the network.
  bool detected{false};
  /// A peer's Hello fell outside the compact-stamp window contract.
  bool window_violation{false};

  double precision{0.0};           ///< claimed Ã^max (+inf if unbounded)
  std::vector<double> corrections;  ///< x_p per agent, empty until converged

  /// Leader: every agent's report (the offline cross-check input).
  /// Followers: just their own.
  std::vector<ReportedExtremes> collected;

  std::uint64_t probes_sent{0};
  std::uint64_t probe_obs{0};        ///< banked forward observations
  std::uint64_t echo_obs{0};         ///< banked reverse (t_reply) observations
  std::uint64_t ambiguous_dropped{0};
  std::uint64_t report_retries{0};
};

class NetDaemon {
 public:
  /// Binds peers[id] (throws cs::Error on failure or malformed config —
  /// including a schedule whose boundary precedes the last probe round).
  explicit NetDaemon(NetDaemonConfig config);
  ~NetDaemon();

  NetDaemon(const NetDaemon&) = delete;
  NetDaemon& operator=(const NetDaemon&) = delete;

  /// Bound address with the kernel-resolved port (rewrite peers[id] with
  /// this when using ephemeral ports, before constructing the *other*
  /// daemons of an in-process run).
  SocketAddress local_address() const { return local_; }

  /// Runs the protocol to completion (converged + settled, or deadline).
  /// Blocking; in-process multi-daemon harnesses call this from one thread
  /// per daemon.
  NetDaemonReport run();

 private:
  struct PeerState {
    bool neighbor{false};
    bool hello_acked{false};
    std::uint64_t echo_seq{0};
    std::unordered_set<std::uint64_t> seen_probe;
    std::unordered_set<std::uint64_t> seen_echo;
    std::vector<EchoSample> pending_echo;
  };

  double local_clock() const {
    return base_clock_() - config_.base - config_.start_offset.sec;
  }
  void on_socket(bool readable, bool writable);
  void handle_datagram(std::span<const std::uint8_t> bytes);
  void handle_frame(const Frame& frame, double now);
  void handle_full(const FullMessage& full);
  void bank(ProcessorId peer, double delay);
  void send_frames(ProcessorId to, std::span<const Frame> frames);
  void send_frame(ProcessorId to, const Frame& frame) {
    send_frames(to, std::span<const Frame>(&frame, 1));
  }
  void send_probe_round(double now);
  void flush_echoes(ProcessorId q, double now);
  void boundary(double now);
  void leader_try_compute();
  void send_report();
  void send_corrections(ProcessorId to);
  void on_timers(double now);
  double next_due(double now) const;
  bool finished(double now) const;

  NetDaemonConfig config_;
  std::function<double()> base_clock_;
  std::size_t n_{0};
  SocketAddress local_;
  int fd_{-1};
  EventLoop loop_;
  std::vector<PeerState> peers_;
  std::vector<ProcessorId> neighbors_;
  std::vector<std::uint8_t> recv_buf_;

  // Estimator state (direction peer → self), ordered for deterministic
  // report layout.
  std::map<ProcessorId, DirectedStats> incoming_;

  // Protocol state machine.
  std::size_t round_{0};
  std::uint64_t next_seq_{0};
  std::uint64_t next_msg_id_{1};
  bool reported_{false};
  double next_retry_{0.0};
  double linger_end_{0.0};
  bool done_{false};
  std::unordered_set<ProcessorId> acks_;  ///< leader: who acked corrections

  NetDaemonReport report_;
};

}  // namespace cs::net
