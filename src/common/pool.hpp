// Work-stealing parallel executor for independent task lists.
//
// The executor runs `count` independent tasks identified by dense indices
// [0, count).  Indices are dealt round-robin into per-worker deques; a
// worker pops its own deque from the back (LIFO keeps its cache warm) and,
// when empty, steals from a sibling's front (FIFO steals take the oldest —
// and typically largest remaining — batch head).  Each deque is guarded by
// its own mutex: contention is one uncontended lock per task in the common
// case, which is noise next to a simulate() + synchronize() task body.
//
// Determinism: the pool imposes *no* ordering semantics at all.  Task
// bodies must derive everything from their index and write only to their
// own slot of a pre-sized result vector; then results are byte-identical
// for any thread count and any steal interleaving.  The pool itself only
// reports scheduling telemetry ("lab.pool.*" counters), which is explicitly
// excluded from deterministic campaign output.
//
// This lived in src/lab (campaign fan-out was its first customer); it moved
// here so per-epoch pipeline stages in src/core can shard over it without a
// core -> lab dependency edge.  The counter names keep their historical
// "lab.pool." prefix so recorded metrics stay comparable.
#pragma once

#include <cstddef>
#include <functional>

#include "common/metrics.hpp"

namespace cs {

struct PoolOptions {
  /// Worker count; 0 = std::thread::hardware_concurrency().
  std::size_t threads{0};

  /// Scheduling telemetry sink ("lab.pool.tasks", "lab.pool.steals",
  /// "lab.pool.threads").  May be null.  Must be thread-safe (cs::Metrics
  /// is); the pool shares it across workers.
  Metrics* metrics{nullptr};
};

/// Resolved worker count for the given request (never 0).
std::size_t resolve_threads(std::size_t requested);

/// Runs fn(0) ... fn(count - 1), each exactly once, across the pool.
/// `fn` must be safe to call concurrently from different threads for
/// different indices.  With threads == 1 everything runs on the calling
/// thread in index order.  If any task throws, the first exception (in
/// completion order) is rethrown after all workers have drained.
void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn,
                 const PoolOptions& options = {});

}  // namespace cs
