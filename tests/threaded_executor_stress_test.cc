// ThreadedExecutor stress tests: the sharded ready queues, batch dequeue,
// dedicated timer thread, and atomic drain accounting under loads the
// basic executor tests don't reach — tasks spawning tasks, Drain racing
// submission, delay-queue promotion ordering, and Shutdown mid-storm.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "strip/obs/metrics.h"
#include "strip/txn/threaded_executor.h"
#include "tests/test_util.h"

namespace strip {
namespace {

TaskPtr MakeTask(uint64_t id, Timestamp release = 0) {
  auto t = std::make_shared<TaskControlBlock>(id);
  t->release_time = release;
  return t;
}

TEST(ThreadedExecutorStressTest, TasksSpawningTasksAllDrain) {
  // A tree of tasks three levels deep: Drain must wait for work submitted
  // BY running tasks, not just the initially submitted set (the in-flight
  // counter covers children because they are counted before their parent
  // finishes).
  MetricsRegistry metrics;
  ThreadedExecutor ex(metrics, 4);
  std::atomic<int> runs{0};
  std::atomic<uint64_t> ids{1000};
  std::function<void(int)> spawn = [&](int depth) {
    auto t = MakeTask(ids.fetch_add(1));
    t->work = [&, depth](TaskControlBlock&) {
      ++runs;
      if (depth > 0) {
        spawn(depth - 1);
        spawn(depth - 1);
      }
      return Status::OK();
    };
    ex.Submit(std::move(t));
  };
  for (int i = 0; i < 8; ++i) spawn(2);  // 8 roots * (1 + 2 + 4) = 56
  ex.Drain();
  EXPECT_EQ(runs.load(), 56);
  EXPECT_EQ(ex.stats().tasks_run.load(), 56u);
  ex.Shutdown();
}

TEST(ThreadedExecutorStressTest, ManyProducersManyTasks) {
  // External producer threads race Submit against the workers; every task
  // must run exactly once and the stats must add up.
  MetricsRegistry metrics;
  ThreadedExecutor ex(metrics, 4, SchedulingPolicy::kFifo, /*dequeue_batch=*/4);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<int> runs{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        auto t = MakeTask(static_cast<uint64_t>(p * kPerProducer + i));
        t->work = [&](TaskControlBlock&) {
          ++runs;
          return Status::OK();
        };
        ex.Submit(std::move(t));
      }
    });
  }
  for (auto& p : producers) p.join();
  ex.Drain();
  EXPECT_EQ(runs.load(), kProducers * kPerProducer);
  EXPECT_EQ(ex.stats().tasks_run.load(),
            static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(ex.stats().tasks_failed.load(), 0u);
  ex.Shutdown();
}

TEST(ThreadedExecutorStressTest, DelayedTasksPromoteInReleaseOrder) {
  // With one worker (one shard, exact ordering) delayed tasks must run in
  // release-time order even when submitted shuffled: the timer thread
  // promotes them from the delay heap as their times arrive.
  MetricsRegistry metrics;
  ThreadedExecutor ex(metrics, 1);
  std::mutex mu;
  std::vector<uint64_t> order;
  Timestamp base = ex.Now() + SecondsToMicros(0.05);
  const Timestamp gaps[] = {30000, 0, 20000, 10000};  // ids 0..3 shuffled
  for (uint64_t i = 0; i < 4; ++i) {
    auto t = MakeTask(i, base + gaps[i]);
    t->work = [&, i](TaskControlBlock&) {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(i);
      return Status::OK();
    };
    ex.Submit(std::move(t));
  }
  ex.Drain();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(order[3], 0u);
  ex.Shutdown();
}

TEST(ThreadedExecutorStressTest, MixedImmediateAndDelayedDrain) {
  // Drain must cover tasks sitting in the delay queue too: a delayed task
  // is in flight from Submit, so Drain cannot return before it runs.
  MetricsRegistry metrics;
  ThreadedExecutor ex(metrics, 2);
  std::atomic<int> runs{0};
  for (int i = 0; i < 20; ++i) {
    Timestamp release =
        (i % 2 == 0) ? 0 : ex.Now() + SecondsToMicros(0.02 + 0.001 * i);
    auto t = MakeTask(static_cast<uint64_t>(i), release);
    t->work = [&](TaskControlBlock&) {
      ++runs;
      return Status::OK();
    };
    ex.Submit(std::move(t));
  }
  ex.Drain();
  EXPECT_EQ(runs.load(), 20);
  ex.Shutdown();
}

TEST(ThreadedExecutorStressTest, ConcurrentDrainCallers) {
  // Several threads Drain() at once while work is in progress; all must
  // return, and only after every task ran.
  MetricsRegistry metrics;
  ThreadedExecutor ex(metrics, 2);
  std::atomic<int> runs{0};
  for (int i = 0; i < 100; ++i) {
    auto t = MakeTask(static_cast<uint64_t>(i));
    t->work = [&](TaskControlBlock&) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++runs;
      return Status::OK();
    };
    ex.Submit(std::move(t));
  }
  std::vector<std::thread> drainers;
  for (int d = 0; d < 4; ++d) {
    drainers.emplace_back([&] {
      ex.Drain();
      EXPECT_EQ(runs.load(), 100);
    });
  }
  for (auto& d : drainers) d.join();
  ex.Shutdown();
}

TEST(ThreadedExecutorStressTest, ShutdownRunsQueuedReadyTasks) {
  // Shutdown's contract: ready tasks still queued are run to completion,
  // delayed tasks are dropped. Stress it with a full set of ready tasks
  // racing the shutdown.
  std::atomic<int> runs{0};
  std::atomic<int> dropped_runs{0};
  {
    MetricsRegistry metrics;
    ThreadedExecutor ex(metrics, 2);
    for (int i = 0; i < 200; ++i) {
      auto t = MakeTask(static_cast<uint64_t>(i));
      t->work = [&](TaskControlBlock&) {
        ++runs;
        return Status::OK();
      };
      ex.Submit(std::move(t));
    }
    auto delayed = MakeTask(999, ex.Now() + SecondsToMicros(30));
    delayed->work = [&](TaskControlBlock&) {
      ++dropped_runs;
      return Status::OK();
    };
    ex.Submit(std::move(delayed));
    ex.Shutdown();
  }
  EXPECT_EQ(runs.load(), 200);
  EXPECT_EQ(dropped_runs.load(), 0);
}

TEST(ThreadedExecutorStressTest, ObserverSeesEveryFinishedTask) {
  // The task observer runs on worker threads; a mutex-guarded recorder
  // must observe each task exactly once with its finish time stamped.
  MetricsRegistry metrics;
  ThreadedExecutor ex(metrics, 4);
  std::mutex mu;
  std::vector<uint64_t> seen;
  ex.set_task_observer([&](const TaskControlBlock& t) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_GT(t.finish_time, 0);
    seen.push_back(t.id());
  });
  for (int i = 0; i < 64; ++i) {
    auto t = MakeTask(static_cast<uint64_t>(i));
    t->work = [](TaskControlBlock&) { return Status::OK(); };
    ex.Submit(std::move(t));
  }
  ex.Drain();
  ex.set_task_observer(nullptr);
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 64u);
  for (uint64_t i = 0; i < 64; ++i) EXPECT_EQ(seen[i], i);
  ex.Shutdown();
}

TEST(ThreadedExecutorStressTest, FailedTasksCounted) {
  MetricsRegistry metrics;
  ThreadedExecutor ex(metrics, 2);
  for (int i = 0; i < 10; ++i) {
    auto t = MakeTask(static_cast<uint64_t>(i));
    t->work = [i](TaskControlBlock&) {
      return i % 2 == 0 ? Status::OK() : Status::Internal("boom");
    };
    ex.Submit(std::move(t));
  }
  ex.Drain();
  EXPECT_EQ(ex.stats().tasks_run.load(), 10u);
  EXPECT_EQ(ex.stats().tasks_failed.load(), 5u);
  ex.Shutdown();
}

}  // namespace
}  // namespace strip
