#ifndef STRIP_TXN_EXECUTOR_H_
#define STRIP_TXN_EXECUTOR_H_

#include <cstdint>
#include <functional>

#include "strip/common/clock.h"
#include "strip/obs/metrics.h"
#include "strip/txn/task.h"

namespace strip {

class RuleCostTracker;
class TraceRing;

/// Aggregate execution counters: the registry's `executor.*` counters,
/// resolved once. Workers add to them with one relaxed increment each;
/// readers load them. The registry holds the only copy of each count.
struct ExecutorStats {
  explicit ExecutorStats(MetricsRegistry& metrics);
  Counter& tasks_run;
  Counter& tasks_failed;  // task body returned non-OK
  Counter& busy_micros;   // sum of task execution costs
};

/// Optional observability hooks shared by both executors: a lifecycle
/// trace ring and latency histograms (see src/strip/obs/). All pointers
/// may be null (hooks off); the hot paths pay one branch each. Install
/// via Executor::set_obs BEFORE the first Submit — the executors read the
/// struct without further synchronization.
struct ExecutorObs {
  TraceRing* trace = nullptr;
  Histogram* queue_wait_us = nullptr;  // max(enqueue, release) -> start
  Histogram* run_us = nullptr;         // task body execution cost
  /// Per-rule latency breakdown + cost counters, fed at task finish for
  /// tasks that carry a function name (see src/strip/obs/rule_cost.h).
  RuleCostTracker* rule_cost = nullptr;
};

/// Called after each task finishes (stats collection in benchmarks).
using TaskObserver = std::function<void(const TaskControlBlock&)>;

/// Abstract task execution service (§6.2 Figure 15): accepts tasks, parks
/// future-released ones in a delay queue, orders eligible ones in a ready
/// queue, runs them. Two implementations:
///   - SimulatedExecutor: deterministic discrete-event simulation on a
///     virtual clock (benchmarks; see DESIGN.md §4),
///   - ThreadedExecutor: a real process/thread pool on the wall clock.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Enqueues a task. Tasks with release_time > Now() wait in the delay
  /// queue; the rest become ready immediately.
  virtual void Submit(TaskPtr task) = 0;

  /// Current time on this executor's clock.
  virtual Timestamp Now() const = 0;

  virtual const ExecutorStats& stats() const = 0;

  /// Installs a per-task completion hook (may be empty).
  virtual void set_task_observer(TaskObserver observer) = 0;

  /// Installs the observability hooks. Call before the first Submit (the
  /// executors read the struct from worker threads without locking).
  void set_obs(const ExecutorObs& obs) { obs_ = obs; }
  const ExecutorObs& obs() const { return obs_; }

 protected:
  ExecutorObs obs_;
};

/// Runs a task body, records timing into the TCB, updates `stats`, and
/// feeds the obs hooks (start trace event, queue-wait and run-time
/// histograms). Shared by both executors. `now` is the executor-clock
/// start time. Returns the execution cost in micros (fixed cost if the
/// task set one). The caller records the finish event after stamping
/// finish_time.
Timestamp ExecuteTaskBody(TaskControlBlock& task, Timestamp now,
                          ExecutorStats& stats, const ExecutorObs& obs);

}  // namespace strip

#endif  // STRIP_TXN_EXECUTOR_H_
