// Task queue, scheduling policy, and executor tests: delay/ready queue
// ordering, FIFO / EDF / value-density policies, the discrete-event
// executor's clock semantics, and the threaded executor's worker pool.

#include <gtest/gtest.h>

#include <atomic>

#include "strip/obs/metrics.h"
#include "strip/txn/simulated_executor.h"
#include "strip/txn/task_queues.h"
#include "strip/txn/threaded_executor.h"
#include "tests/test_util.h"

namespace strip {
namespace {

TaskPtr MakeTask(uint64_t id, Timestamp release = 0) {
  auto t = std::make_shared<TaskControlBlock>(id);
  t->release_time = release;
  return t;
}

TEST(DelayQueueTest, ReleasesInTimeOrder) {
  DelayQueue q;
  q.Push(MakeTask(1, 300));
  q.Push(MakeTask(2, 100));
  q.Push(MakeTask(3, 200));
  EXPECT_EQ(q.NextRelease(), 100);
  auto released = q.PopReleased(250);
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0]->id(), 2u);
  EXPECT_EQ(released[1]->id(), 3u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.NextRelease(), 300);
  EXPECT_TRUE(q.PopReleased(299).empty());
}

TEST(DelayQueueTest, EmptyQueueHasNoDeadline) {
  DelayQueue q;
  EXPECT_EQ(q.NextRelease(), kNoDeadline);
  EXPECT_TRUE(q.empty());
}

TEST(ReadyQueueTest, FifoOrder) {
  ReadyQueue q(SchedulingPolicy::kFifo);
  q.Push(MakeTask(5));
  q.Push(MakeTask(3));
  q.Push(MakeTask(9));
  EXPECT_EQ(q.Pop()->id(), 5u);
  EXPECT_EQ(q.Pop()->id(), 3u);
  EXPECT_EQ(q.Pop()->id(), 9u);
  EXPECT_EQ(q.Pop(), nullptr);
}

TEST(ReadyQueueTest, EarliestDeadlineFirst) {
  ReadyQueue q(SchedulingPolicy::kEarliestDeadlineFirst);
  auto a = MakeTask(1);
  a->deadline = 300;
  auto b = MakeTask(2);
  b->deadline = 100;
  auto c = MakeTask(3);  // no deadline -> last
  q.Push(a);
  q.Push(b);
  q.Push(c);
  EXPECT_EQ(q.Pop()->id(), 2u);
  EXPECT_EQ(q.Pop()->id(), 1u);
  EXPECT_EQ(q.Pop()->id(), 3u);
}

TEST(ReadyQueueTest, ValueDensityFirst) {
  ReadyQueue q(SchedulingPolicy::kValueDensityFirst);
  auto a = MakeTask(1);
  a->value = 1.0;
  auto b = MakeTask(2);
  b->value = 10.0;
  auto c = MakeTask(3);
  c->value = 10.0;  // tie with b -> FIFO between them
  q.Push(a);
  q.Push(b);
  q.Push(c);
  EXPECT_EQ(q.Pop()->id(), 2u);
  EXPECT_EQ(q.Pop()->id(), 3u);
  EXPECT_EQ(q.Pop()->id(), 1u);
}

TEST(SchedulerTest, PolicyNames) {
  EXPECT_STREQ(SchedulingPolicyName(SchedulingPolicy::kFifo), "fifo");
  EXPECT_STREQ(SchedulingPolicyName(SchedulingPolicy::kEarliestDeadlineFirst),
               "edf");
  EXPECT_STREQ(SchedulingPolicyName(SchedulingPolicy::kValueDensityFirst),
               "value-density");
}

// ---------------------------------------------------------------------------
// SimulatedExecutor
// ---------------------------------------------------------------------------

TEST(SimulatedExecutorTest, HonorsReleaseTimes) {
  MetricsRegistry metrics;
  SimulatedExecutor ex(metrics, SchedulingPolicy::kFifo,
                       /*advance_clock_by_cost=*/false);
  std::vector<std::pair<uint64_t, Timestamp>> runs;
  auto submit = [&](uint64_t id, Timestamp release) {
    auto t = MakeTask(id, release);
    t->work = [&runs, &ex, id](TaskControlBlock&) {
      runs.emplace_back(id, ex.Now());
      return Status::OK();
    };
    ex.Submit(t);
  };
  submit(1, 1000);
  submit(2, 0);
  submit(3, 500);
  ex.RunUntil(400);
  ASSERT_EQ(runs.size(), 1u);  // only the immediate task
  EXPECT_EQ(runs[0].first, 2u);
  ex.RunUntilQuiescent();
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[1].first, 3u);
  EXPECT_EQ(runs[1].second, 500);
  EXPECT_EQ(runs[2].first, 1u);
  EXPECT_EQ(runs[2].second, 1000);
}

TEST(SimulatedExecutorTest, FixedCostAdvancesVirtualClock) {
  MetricsRegistry metrics;
  SimulatedExecutor ex(metrics, SchedulingPolicy::kFifo,
                       /*advance_clock_by_cost=*/true);
  for (int i = 0; i < 3; ++i) {
    auto t = MakeTask(static_cast<uint64_t>(i));
    t->fixed_cost_micros = 100;
    t->work = [](TaskControlBlock&) { return Status::OK(); };
    ex.Submit(t);
  }
  ex.RunUntilQuiescent();
  EXPECT_EQ(ex.clock().Now(), 300);
  EXPECT_EQ(ex.stats().tasks_run.load(), 3u);
  EXPECT_EQ(ex.stats().busy_micros.load(), 300u);
}

TEST(SimulatedExecutorTest, BusyCpuDelaysLaterTasks) {
  // Single-server semantics: a long task occupies the (virtual) CPU, so a
  // task released meanwhile starts late.
  MetricsRegistry metrics;
  SimulatedExecutor ex(metrics, SchedulingPolicy::kFifo, true);
  auto heavy = MakeTask(1, 0);
  heavy->fixed_cost_micros = 1000;
  heavy->work = [](TaskControlBlock&) { return Status::OK(); };
  ex.Submit(heavy);
  Timestamp light_started = -1;
  auto light = MakeTask(2, 100);  // released while heavy runs
  light->fixed_cost_micros = 10;
  light->work = [&](TaskControlBlock&) {
    light_started = ex.Now();
    return Status::OK();
  };
  ex.Submit(light);
  ex.RunUntilQuiescent();
  EXPECT_EQ(light_started, 1000);
}

TEST(SimulatedExecutorTest, TasksCanSpawnTasks) {
  MetricsRegistry metrics;
  SimulatedExecutor ex(metrics, SchedulingPolicy::kFifo, false);
  std::atomic<int> runs{0};
  std::function<void(int)> spawn = [&](int depth) {
    auto t = MakeTask(static_cast<uint64_t>(depth), ex.Now() + 100);
    t->work = [&, depth](TaskControlBlock&) {
      ++runs;
      if (depth < 5) spawn(depth + 1);
      return Status::OK();
    };
    ex.Submit(t);
  };
  spawn(1);
  ex.RunUntilQuiescent();
  EXPECT_EQ(runs.load(), 5);
  EXPECT_EQ(ex.clock().Now(), 500);
}

TEST(SimulatedExecutorTest, ObserverSeesResultsAndFailures) {
  MetricsRegistry metrics;
  SimulatedExecutor ex(metrics);
  int observed = 0, failed = 0;
  ex.set_task_observer([&](const TaskControlBlock& t) {
    ++observed;
    if (!t.result.ok()) ++failed;
  });
  auto ok = MakeTask(1);
  ok->work = [](TaskControlBlock&) { return Status::OK(); };
  auto bad = MakeTask(2);
  bad->work = [](TaskControlBlock&) { return Status::Internal("boom"); };
  ex.Submit(ok);
  ex.Submit(bad);
  ex.RunUntilQuiescent();
  EXPECT_EQ(observed, 2);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(ex.stats().tasks_failed.load(), 1u);
}

TEST(SimulatedExecutorTest, EdfPolicyOrdersSimultaneousReleases) {
  MetricsRegistry metrics;
  SimulatedExecutor ex(metrics, SchedulingPolicy::kEarliestDeadlineFirst,
                       false);
  std::vector<uint64_t> order;
  auto submit = [&](uint64_t id, Timestamp deadline) {
    auto t = MakeTask(id, 100);
    t->deadline = deadline;
    t->work = [&order, id](TaskControlBlock&) {
      order.push_back(id);
      return Status::OK();
    };
    ex.Submit(t);
  };
  submit(1, 900);
  submit(2, 300);
  submit(3, 600);
  ex.RunUntilQuiescent();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 1u);
}

// ---------------------------------------------------------------------------
// ThreadedExecutor
// ---------------------------------------------------------------------------

TEST(ThreadedExecutorTest, RunsAllTasksAndDrains) {
  MetricsRegistry metrics;
  ThreadedExecutor ex(metrics, 3);
  std::atomic<int> runs{0};
  for (int i = 0; i < 50; ++i) {
    auto t = MakeTask(static_cast<uint64_t>(i));
    t->work = [&](TaskControlBlock&) {
      ++runs;
      return Status::OK();
    };
    ex.Submit(t);
  }
  ex.Drain();
  EXPECT_EQ(runs.load(), 50);
  EXPECT_EQ(ex.stats().tasks_run.load(), 50u);
  ex.Shutdown();
}

TEST(ThreadedExecutorTest, DelayedTaskWaitsForWallClock) {
  MetricsRegistry metrics;
  ThreadedExecutor ex(metrics, 1);
  std::atomic<bool> ran{false};
  auto t = MakeTask(1, ex.Now() + SecondsToMicros(0.08));
  t->work = [&](TaskControlBlock&) {
    ran = true;
    return Status::OK();
  };
  StopWatch watch;
  ex.Submit(t);
  ex.Drain();
  EXPECT_TRUE(ran.load());
  EXPECT_GE(watch.ElapsedMicros(), 70000);  // ~80 ms minus scheduling slop
  ex.Shutdown();
}

TEST(ThreadedExecutorTest, WorkersRunConcurrently) {
  MetricsRegistry metrics;
  ThreadedExecutor ex(metrics, 4);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 16; ++i) {
    auto t = MakeTask(static_cast<uint64_t>(i));
    t->work = [&](TaskControlBlock&) {
      int now = ++inside;
      int old_peak = peak.load();
      while (now > old_peak && !peak.compare_exchange_weak(old_peak, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      --inside;
      return Status::OK();
    };
    ex.Submit(t);
  }
  ex.Drain();
  EXPECT_GT(peak.load(), 1);  // at least two workers overlapped
  ex.Shutdown();
}

TEST(ThreadedExecutorTest, ShutdownIsIdempotent) {
  MetricsRegistry metrics;
  ThreadedExecutor ex(metrics, 2);
  ex.Shutdown();
  ex.Shutdown();
}

}  // namespace
}  // namespace strip
