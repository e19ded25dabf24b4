#ifndef STRIP_TXN_SIMULATED_EXECUTOR_H_
#define STRIP_TXN_SIMULATED_EXECUTOR_H_

#include <functional>

#include "strip/common/clock.h"
#include "strip/txn/executor.h"
#include "strip/txn/task_queues.h"

namespace strip {

class FaultInjector;

/// Discrete-event, single-server executor on a virtual clock.
///
/// The paper replays a 30-minute market trace in real time; we instead
/// drive the identical computation under simulated time so runs are
/// deterministic and laptop-scale (DESIGN.md §4). Task bodies are really
/// executed and their wall-clock cost measured; by default the virtual
/// clock advances by each task's measured (or fixed) cost, modeling a
/// single CPU — so queueing, delay windows, and utilization behave like the
/// real system's.
class SimulatedExecutor final : public Executor {
 public:
  /// Counts into `metrics` (see ExecutorStats).
  explicit SimulatedExecutor(MetricsRegistry& metrics,
                             SchedulingPolicy policy = SchedulingPolicy::kFifo,
                             bool advance_clock_by_cost = true)
      : ready_(policy),
        advance_clock_by_cost_(advance_clock_by_cost),
        stats_(metrics) {}

  void Submit(TaskPtr task) override;
  Timestamp Now() const override { return clock_.Now(); }
  const ExecutorStats& stats() const override { return stats_; }
  void set_task_observer(TaskObserver observer) override {
    observer_ = std::move(observer);
  }

  VirtualClock& clock() { return clock_; }

  /// Runs every task that becomes eligible at or before virtual time `t`,
  /// including tasks those tasks spawn, then advances the clock to `t`.
  void RunUntil(Timestamp t);

  /// Runs until both queues are empty (tasks may spawn tasks; all delays
  /// are honored by advancing the clock).
  void RunUntilQuiescent();

  /// Runs exactly one task (advancing the clock to its release first if
  /// the ready queue was empty); returns false — running nothing — once
  /// both queues are empty. The chaos harness drives the executor with
  /// this so it can run the invariant checker between steps, when no task
  /// is mid-flight.
  bool RunOneStep();

  /// Installs a chaos fault injector (testing/): Submit may assign
  /// deterministic task costs and late timer promotions, and each step may
  /// stall in virtual time before running its task. Install before the
  /// first Submit; pass nullptr to remove.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Visits every queued (delayed or ready, not started) task — audit API
  /// for the chaos invariant checker. Call only between steps.
  void ForEachQueuedTask(const std::function<void(const TaskPtr&)>& fn) const {
    delay_.ForEach(fn);
    ready_.ForEach(fn);
  }

  size_t num_delayed() const { return delay_.size(); }
  size_t num_ready() const { return ready_.size(); }

 private:
  /// Runs ready tasks and releases delayed ones while anything is eligible
  /// at a virtual time <= `horizon`.
  void Drain(Timestamp horizon);

  /// Moves due delayed tasks to the ready queue, then runs the best ready
  /// task if there is one. Shared step body of Drain and RunOneStep.
  bool StepOnce();

  VirtualClock clock_;
  DelayQueue delay_;
  ReadyQueue ready_;
  bool advance_clock_by_cost_;
  ExecutorStats stats_;
  TaskObserver observer_;
  FaultInjector* injector_ = nullptr;
};

}  // namespace strip

#endif  // STRIP_TXN_SIMULATED_EXECUTOR_H_
