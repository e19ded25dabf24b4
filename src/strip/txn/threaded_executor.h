#ifndef STRIP_TXN_THREADED_EXECUTOR_H_
#define STRIP_TXN_THREADED_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "strip/common/clock.h"
#include "strip/txn/executor.h"
#include "strip/txn/task_queues.h"

namespace strip {

/// Real-time executor: a pool of worker threads servicing the ready queue,
/// with a delay queue for future-released tasks (§6.2 Figure 15). This is
/// the process-pool analogue of STRIP's task service and the system's
/// primary execution mode; the benchmarks and examples run on it.
///
/// Contention design (one lock per concern, never one lock for all):
///   - The ready queue is sharded one shard per worker, each with its own
///     mutex; Submit round-robins across shards and a worker drains its own
///     shard first, stealing from siblings only when it is empty. Workers
///     dequeue in batches (up to dequeue_batch tasks per lock acquisition).
///   - A dedicated timer thread owns the delay queue and promotes due
///     tasks into the ready shards, so workers never touch the delay heap.
///   - ExecutorStats are registry counters the executing worker adds to.
///   - Drain() watches a single atomic in-flight counter (submitted tasks
///     not yet finished, wherever they sit), not the queue structures.
///
/// Scheduling-policy ordering is preserved per shard; across shards it is
/// approximate (as in any multi-queue scheduler). With one worker there is
/// one shard and ordering is exact.
class ThreadedExecutor final : public Executor {
 public:
  static constexpr int kDefaultDequeueBatch = 8;

  /// Counts into `metrics` (see ExecutorStats).
  ThreadedExecutor(MetricsRegistry& metrics, int num_workers,
                   SchedulingPolicy policy = SchedulingPolicy::kFifo,
                   int dequeue_batch = kDefaultDequeueBatch);
  ~ThreadedExecutor() override;

  void Submit(TaskPtr task) override;
  Timestamp Now() const override { return clock_.Now(); }
  const ExecutorStats& stats() const override { return stats_; }
  void set_task_observer(TaskObserver observer) override;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Blocks until every submitted task (including tasks they spawn) has
  /// finished and the queues are empty.
  void Drain();

  /// Stops accepting work and joins workers. Ready tasks still queued are
  /// run to completion; tasks still in the delay queue are dropped.
  /// Idempotent; called by the destructor.
  void Shutdown();

 private:
  /// One ready-queue partition, cache-line padded so shard mutexes don't
  /// false-share.
  struct alignas(64) ReadyShard {
    explicit ReadyShard(SchedulingPolicy policy) : queue(policy) {}
    std::mutex mu;
    ReadyQueue queue;
  };

  void WorkerLoop(size_t worker_index);
  void TimerLoop();

  /// Routes a due task to a ready shard and wakes a worker if any sleep.
  void PushReady(TaskPtr task);

  /// Fills `out` with up to dequeue_batch_ tasks, draining the worker's
  /// home shard first and stealing from siblings otherwise. Returns the
  /// number taken.
  size_t PopBatch(size_t home, std::vector<TaskPtr>& out);

  /// Marks one submitted task as finished (run, dropped, or merged-dead)
  /// and wakes Drain() when the in-flight count reaches zero.
  void TaskDone();

  RealClock clock_;
  const size_t dequeue_batch_;

  std::vector<std::unique_ptr<ReadyShard>> shards_;
  std::atomic<uint64_t> next_shard_{0};   // round-robin enqueue cursor
  std::atomic<int64_t> ready_count_{0};   // tasks sitting in ready shards
  std::atomic<int64_t> in_flight_{0};     // submitted, not yet finished
  std::atomic<bool> shutdown_{false};

  std::mutex delay_mu_;
  std::condition_variable delay_cv_;      // timer thread waits here
  DelayQueue delay_;

  std::mutex idle_mu_;
  std::condition_variable work_cv_;       // idle workers wait here
  std::atomic<int> num_idle_{0};

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;      // Drain() waits here

  std::mutex observer_mu_;
  TaskObserver observer_;

  ExecutorStats stats_;
  std::vector<std::thread> workers_;
  std::thread timer_;
  std::mutex shutdown_mu_;                // serializes Shutdown() calls
};

}  // namespace strip

#endif  // STRIP_TXN_THREADED_EXECUTOR_H_
