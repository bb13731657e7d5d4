// In-memory spans for traced runs.
//
// A span is a named interval around one call into a library layer, with the
// id of the epoch or probe it belongs to and the span that caused it.  Spans
// stay in memory while the workload runs and are written out at exit in
// Chrome trace-event format (chrome://tracing, Perfetto).  A disabled tracer
// records nothing and every call is a branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name{""};
  std::uint64_t id{0};      ///< epoch or probe this span belongs to
  std::uint32_t parent{0};  ///< handle of the causing span; 0 = root
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its handle (0 when disabled or `name` is null,
  /// which records nothing).
  std::uint32_t open(const char* name, std::uint64_t id,
                     std::uint32_t parent = 0) {
    if (!enabled_ || name == nullptr) return 0;
    spans_.push_back(Span{name, id, parent, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t handle) {
    if (handle != 0) spans_[handle - 1].end_ns = now_ns();
  }
  /// Duration of a closed span in seconds (0 for handle 0).
  double seconds(std::uint32_t handle) const {
    if (handle == 0) return 0.0;
    const Span& s = spans_[handle - 1];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id,
          std::uint32_t parent = 0)
        : tracer_(tracer), handle_(tracer.open(name, id, parent)) {}
    ~Scope() { tracer_.close(handle_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint32_t handle() const { return handle_; }

   private:
    Tracer& tracer_;
    std::uint32_t handle_;
  };

  /// Self time of every span in seconds, index-aligned with spans(): its
  /// duration minus the part of its interval that child spans cover.
  std::vector<double> self_seconds() const;

  /// Self-time samples grouped by span name.
  std::map<std::string, std::vector<double>> self_seconds_by_name() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// args carry the id, the span's own handle and its parent.
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
