#ifndef STRIP_TXN_TASK_H_
#define STRIP_TXN_TASK_H_

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "strip/common/clock.h"
#include "strip/common/spin_lock.h"
#include "strip/common/status.h"
#include "strip/obs/trace_context.h"
#include "strip/storage/bound_table_set.h"
#include "strip/storage/value.h"

namespace strip {

class TaskControlBlock;

/// The body of a task. Receives its own TCB so rule-action functions can
/// read their bound tables.
using TaskFn = std::function<Status(TaskControlBlock&)>;

constexpr Timestamp kNoDeadline = std::numeric_limits<Timestamp>::max();

/// Task control block (§6.2-6.3): the unit of scheduling in STRIP. Tasks
/// flow through the delay queue (future release time), ready queue, and a
/// process pool. Rule-triggered tasks additionally carry bound tables, the
/// user function name, and — for unique transactions — the unique key the
/// rule system hashes on.
class TaskControlBlock {
 public:
  explicit TaskControlBlock(uint64_t id) : id_(id) {}

  TaskControlBlock(const TaskControlBlock&) = delete;
  TaskControlBlock& operator=(const TaskControlBlock&) = delete;

  uint64_t id() const { return id_; }

  // --- scheduling parameters -------------------------------------------
  Timestamp release_time = 0;      // earliest start (delay window, §2)
  Timestamp deadline = kNoDeadline;  // for earliest-deadline-first
  double value = 1.0;                // for value-density-first

  // --- rule-task payload ------------------------------------------------
  /// User function this task runs ("" for plain application tasks).
  std::string function_name;
  /// Bound tables visible to the task (§6.3); may be empty.
  BoundTableSet bound_tables;
  /// Values of the unique columns for `unique on` tasks (empty vector for
  /// coarse `unique`); meaningless when `is_unique` is false.
  std::vector<Value> unique_key;
  bool is_unique = false;

  /// Work to perform; set by the engine (runs the user function inside a
  /// fresh transaction) or directly by application code.
  TaskFn work;

  // --- execution bookkeeping --------------------------------------------
  /// Guards the started flag + bound-table merges: once a unique task has
  /// started, its bound tables are fixed and merges must fail (§2).
  SpinLock merge_lock;
  bool started = false;

  /// If >= 0, the simulated executor advances virtual time by this many
  /// micros instead of the measured execution time (deterministic tests).
  Timestamp fixed_cost_micros = -1;

  // --- staleness probe (rule-action tasks; see src/strip/obs/) ----------
  /// Feed-arrival times of the oldest / newest base-table change batched
  /// into this task (-1 until the creating firing stamps them). Merges of
  /// later firings update them under merge_lock, so at commit the task
  /// knows the age of the oldest change it consumed — the paper's
  /// staleness cost of batching (§7).
  Timestamp oldest_change_time = -1;
  Timestamp newest_change_time = -1;
  /// Rule firings folded into this task: 1 at creation, +1 per merge.
  /// Guarded by merge_lock, like the bound tables it counts.
  uint32_t batched_firings = 1;
  /// Stamped by the engine when the action transaction commits: age of the
  /// oldest batched change at commit time (-1 = never committed / not a
  /// rule action).
  Timestamp commit_staleness_micros = -1;

  // --- causal tracing (see src/strip/obs/trace_context.h) ---------------
  /// Trace context this task runs under: the feed importer stamps a root
  /// context per record, rule firings mint children of the triggering
  /// transaction's context, and action transactions mint children of this.
  /// Written once before Submit; read-only afterwards.
  TraceContext trace;
  /// Trace ids of firings merged into this queued unique task after
  /// creation (§6.3): the causal links that would otherwise vanish when
  /// MergeFiring folds a firing away. Guarded by merge_lock.
  std::vector<uint64_t> merged_parent_traces;

  // --- per-rule cost attribution ----------------------------------------
  // Plain fields: each is written only by the single thread currently
  // executing the task (executors hand a task to exactly one worker) and
  // read after finish, same contract as start_time/cpu_micros below.
  /// Micros the task's transactions spent blocked in lock acquisition.
  Timestamp lock_wait_micros = 0;
  /// Wait-die restarts the task's action transactions suffered.
  uint64_t lock_restarts = 0;
  /// Rows visited by batched table scans on behalf of this task.
  uint64_t rows_scanned = 0;
  /// Group deltas netted away by FoldGroupDeltas (input minus output
  /// deltas), credited by the view-maintenance functions.
  uint64_t deltas_folded = 0;

  // Filled in by the executor.
  Timestamp enqueue_time = 0;
  Timestamp start_time = 0;    // when execution began (executor clock)
  Timestamp finish_time = 0;
  Timestamp cpu_micros = 0;    // measured (or fixed) execution cost
  int64_t cpu_nanos = 0;       // measured cost at full clock resolution
  Status result;

  /// Marks the task started; returns false if it had already started.
  /// Called by executors under merge_lock before running `work`.
  bool TryStart() {
    SpinLockGuard g(merge_lock);
    if (started) return false;
    started = true;
    return true;
  }

 private:
  uint64_t id_;
};

using TaskPtr = std::shared_ptr<TaskControlBlock>;

}  // namespace strip

#endif  // STRIP_TXN_TASK_H_
