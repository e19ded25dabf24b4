#ifndef STRIP_OBS_TRACE_RING_H_
#define STRIP_OBS_TRACE_RING_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "strip/common/clock.h"
#include "strip/common/spin_lock.h"

namespace strip {

/// A point in a transaction/task lifecycle (§6.2 Figure 15 flow):
/// submit -> (delayed ->) ready -> start -> commit/abort/restart -> finish,
/// plus merge events for firings batched into queued unique tasks.
enum class TraceEventKind : uint8_t {
  kSubmit,    // task handed to the executor
  kDelayed,   // parked in the delay queue (future release time)
  kReady,     // entered a ready queue
  kStart,     // task body began executing
  kFinish,    // task body done (result recorded)
  kCommit,    // a transaction committed (id = txn id)
  kAbort,     // a transaction aborted (id = txn id)
  kRestart,   // action transaction killed by wait-die, retrying
  kMerge,     // a firing merged into an already-queued unique task
};

const char* TraceEventKindName(TraceEventKind k);

/// One lifecycle record. `ts` is the owning executor's clock (virtual in
/// simulated mode); `wall_ts` is process wall time, so traces from the
/// simulated executor still interleave correctly with real time.
struct TraceEvent {
  uint64_t id = 0;  // task id (lifecycle) or transaction id (commit/abort)
  uint64_t trace_id = 0;  // causal trace this event belongs to (0 = untraced)
  Timestamp ts = 0;
  Timestamp wall_ts = 0;
  TraceEventKind kind = TraceEventKind::kSubmit;
  char name[23] = {0};  // function / label, truncated
};

/// Fixed-capacity ring of the most recent lifecycle events. Appends from
/// any thread; a spinlock guards the (tiny) slot write so snapshots are
/// race-free — the sections are a memcpy of ~48 bytes, far below the cost
/// of the SQL work between events.
class TraceRing {
 public:
  /// capacity == 0 disables the ring: Record() becomes a cheap no-op.
  explicit TraceRing(size_t capacity);

  /// Appends `count` copies of one event under a single lock and clock
  /// read (a firing merged into several queued tasks records one per
  /// task).
  void Record(TraceEventKind kind, uint64_t id, Timestamp ts,
              const char* name = "", uint64_t trace_id = 0,
              size_t count = 1);

  bool enabled() const { return capacity_ != 0; }
  size_t capacity() const { return capacity_; }
  /// Events recorded over the ring's lifetime (>= capacity once wrapped).
  uint64_t total_recorded() const;
  /// Events silently evicted because writers outran the ring: every write
  /// past capacity overwrites (drops) the oldest retained event. Relaxed
  /// read — safe from any thread, exported as `trace.dropped_events`.
  uint64_t total_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// The retained events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}): start->finish pairs
  /// become complete ("X") slices on one track per task; the remaining
  /// lifecycle points become instant ("i") events. Load via
  /// chrome://tracing or https://ui.perfetto.dev.
  ///
  /// `pid` / `process_name` label the track: the cluster exports each
  /// engine's ring under its own process ("shard0".."shardN", "merge") so a
  /// routed record's causal trace reads across engine lanes. Pass
  /// `bare = true` to emit only the event array items (no enclosing
  /// document), letting the cluster splice several rings into one file.
  std::string ToChromeJson(int pid = 1,
                           const std::string& process_name = "",
                           bool bare = false) const;

  /// Monotonic process wall clock shared by every ring (micros since the
  /// first use in the process).
  static Timestamp WallMicros();

 private:
  const size_t capacity_;
  mutable SpinLock lock_;
  std::vector<TraceEvent> slots_;
  uint64_t next_ = 0;  // total appended; next_ % capacity_ is the write slot
  std::atomic<uint64_t> dropped_{0};  // overwritten (evicted) events
};

}  // namespace strip

#endif  // STRIP_OBS_TRACE_RING_H_
