#include "strip/txn/threaded_executor.h"

#include <algorithm>
#include <chrono>

#include "strip/obs/trace_ring.h"

namespace strip {

ThreadedExecutor::ThreadedExecutor(MetricsRegistry& metrics, int num_workers,
                                   SchedulingPolicy policy, int dequeue_batch)
    : dequeue_batch_(static_cast<size_t>(std::max(1, dequeue_batch))),
      stats_(metrics) {
  int n = std::max(1, num_workers);
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<ReadyShard>(policy));
  }
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
  timer_ = std::thread([this] { TimerLoop(); });
}

ThreadedExecutor::~ThreadedExecutor() { Shutdown(); }

void ThreadedExecutor::Submit(TaskPtr task) {
  task->enqueue_time = clock_.Now();
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (obs_.trace != nullptr) {
    obs_.trace->Record(TraceEventKind::kSubmit, task->id(), clock_.Now(),
                       task->function_name.c_str(), task->trace.trace_id);
  }
  if (task->release_time > clock_.Now()) {
    if (obs_.trace != nullptr) {
      obs_.trace->Record(TraceEventKind::kDelayed, task->id(),
                         task->release_time, "", task->trace.trace_id);
    }
    {
      std::lock_guard<std::mutex> lk(delay_mu_);
      delay_.Push(std::move(task));
    }
    delay_cv_.notify_all();
  } else {
    PushReady(std::move(task));
  }
}

void ThreadedExecutor::set_task_observer(TaskObserver observer) {
  std::lock_guard<std::mutex> lk(observer_mu_);
  observer_ = std::move(observer);
}

void ThreadedExecutor::PushReady(TaskPtr task) {
  if (obs_.trace != nullptr) {
    obs_.trace->Record(TraceEventKind::kReady, task->id(), clock_.Now(), "",
                       task->trace.trace_id);
  }
  size_t idx = next_shard_.fetch_add(1, std::memory_order_relaxed) %
               shards_.size();
  {
    std::lock_guard<std::mutex> lk(shards_[idx]->mu);
    shards_[idx]->queue.Push(std::move(task));
  }
  // seq_cst so the count increment is ordered against the idle check below
  // and against a sleeping worker's predicate read (see WorkerLoop).
  ready_count_.fetch_add(1);
  if (num_idle_.load() > 0) {
    // Lock/unlock pairs this notify with the waiter's predicate check,
    // closing the window between "worker saw an empty queue" and "worker
    // started waiting".
    std::lock_guard<std::mutex> lk(idle_mu_);
    work_cv_.notify_all();
  }
}

size_t ThreadedExecutor::PopBatch(size_t home, std::vector<TaskPtr>& out) {
  if (ready_count_.load(std::memory_order_relaxed) == 0) return 0;
  size_t taken = 0;
  const size_t n = shards_.size();
  for (size_t i = 0; i < n && taken == 0; ++i) {
    ReadyShard& shard = *shards_[(home + i) % n];
    std::lock_guard<std::mutex> lk(shard.mu);
    taken = shard.queue.PopBatch(dequeue_batch_, out);
  }
  if (taken > 0) {
    ready_count_.fetch_sub(static_cast<int64_t>(taken));
  }
  return taken;
}

void ThreadedExecutor::TaskDone() {
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Pair with Drain()'s predicate check under drain_mu_.
    std::lock_guard<std::mutex> lk(drain_mu_);
    drain_cv_.notify_all();
  }
}

void ThreadedExecutor::WorkerLoop(size_t worker_index) {
  std::vector<TaskPtr> batch;
  batch.reserve(dequeue_batch_);
  for (;;) {
    batch.clear();
    if (PopBatch(worker_index, batch) == 0) {
      if (shutdown_.load(std::memory_order_acquire)) return;
      std::unique_lock<std::mutex> lk(idle_mu_);
      num_idle_.fetch_add(1);
      // The timeout is a belt-and-braces backstop (and a steal
      // opportunity); the num_idle_/ready_count_ handshake with PushReady
      // makes lost wakeups impossible in the first place.
      work_cv_.wait_for(lk, std::chrono::milliseconds(10), [this] {
        return ready_count_.load() > 0 ||
               shutdown_.load(std::memory_order_acquire);
      });
      num_idle_.fetch_sub(1);
      continue;
    }
    TaskObserver observer;
    {
      std::lock_guard<std::mutex> lk(observer_mu_);
      observer = observer_;
    }
    for (TaskPtr& task : batch) {
      if (task->TryStart()) {
        ExecuteTaskBody(*task, clock_.Now(), stats_, obs_);
        task->finish_time = clock_.Now();
        if (obs_.trace != nullptr) {
          obs_.trace->Record(TraceEventKind::kFinish, task->id(),
                             task->finish_time,
                             task->function_name.c_str(),
                             task->trace.trace_id);
        }
        if (observer) observer(*task);
      }
      TaskDone();
    }
  }
}

void ThreadedExecutor::TimerLoop() {
  std::unique_lock<std::mutex> lk(delay_mu_);
  for (;;) {
    if (shutdown_.load(std::memory_order_acquire)) return;
    Timestamp next = delay_.NextRelease();
    if (next == kNoDeadline) {
      delay_cv_.wait(lk);
      continue;
    }
    Timestamp now = clock_.Now();
    if (next > now) {
      // Woken early by an earlier-releasing Submit or by Shutdown; loop to
      // re-evaluate either way.
      delay_cv_.wait_for(lk, std::chrono::microseconds(next - now));
      continue;
    }
    std::vector<TaskPtr> due = delay_.PopReleased(now);
    lk.unlock();
    for (TaskPtr& t : due) {
      PushReady(std::move(t));
    }
    lk.lock();
  }
}

void ThreadedExecutor::Drain() {
  std::unique_lock<std::mutex> lk(drain_mu_);
  drain_cv_.wait(lk, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadedExecutor::Shutdown() {
  std::lock_guard<std::mutex> lk(shutdown_mu_);
  if (!shutdown_.exchange(true, std::memory_order_acq_rel)) {
    {
      std::lock_guard<std::mutex> g(idle_mu_);
    }
    work_cv_.notify_all();
    {
      std::lock_guard<std::mutex> g(delay_mu_);
    }
    delay_cv_.notify_all();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (timer_.joinable()) timer_.join();
}

}  // namespace strip
