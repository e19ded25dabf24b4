// End-to-end rule-system tests on the THREADED executor: real worker
// threads, wall-clock delay windows, concurrent update transactions with
// wait-die retries, unique-transaction batching under contention.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "strip/engine/database.h"
#include "strip/market/pta_runner.h"
#include "tests/test_util.h"

namespace strip {
namespace {

Database::Options Threaded(int workers) {
  Database::Options o;
  o.mode = ExecutorMode::kThreaded;
  o.num_workers = workers;
  return o;
}

TEST(ThreadedIntegrationTest, BatchedRuleMaintainsTotals) {
  Database db(Threaded(2));
  ASSERT_OK(db.ExecuteScript(R"(
    create table accounts (id int, branch string, balance double);
    create index on accounts (id);
    create table totals (branch string, total double);
    insert into accounts values
      (1, 'n', 10.0), (2, 'n', 20.0), (3, 's', 30.0);
    insert into totals values ('n', 30.0), ('s', 30.0);
  )"));
  ASSERT_OK(db.RegisterFunction("fold", [](FunctionContext& ctx) -> Status {
    const TempTable* d = ctx.BoundTable("delta");
    if (d->size() == 0) return Status::OK();
    double change = 0;
    for (size_t i = 0; i < d->size(); ++i) {
      change += d->Get(i, 2).as_double() - d->Get(i, 1).as_double();
    }
    return ctx.Exec("update totals set total += " + std::to_string(change) +
                    " where branch = '" + d->Get(0, 0).as_string() + "'")
        .status();
  }));
  ASSERT_OK(db.Execute(R"(
    create rule r on accounts when updated balance
    if select new.branch as branch, old.balance as ob, new.balance as nb
       from new, old where new.execute_order = old.execute_order
       bind as delta
    then execute fold unique on branch after 0.03 seconds
  )").status());

  // Concurrent updaters hammer the accounts; wait-die aborts are retried.
  std::atomic<int> applied{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&db, &applied, w] {
      for (int i = 0; i < 20; ++i) {
        int id = 1 + (w + i) % 3;
        for (;;) {
          auto r = db.Execute("update accounts set balance += 1.0 "
                              "where id = " + std::to_string(id));
          if (r.ok()) break;
          ASSERT_EQ(r.status().code(), StatusCode::kAborted)
              << r.status().ToString();
          std::this_thread::yield();
        }
        ++applied;
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(applied.load(), 60);
  // Wait out the delay window and drain the recompute tasks (they may
  // cascade, so drain until quiescent).
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  db.threaded()->Drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  db.threaded()->Drain();

  // 60 updates of +1 split across branches: n got updates to ids 1,2;
  // s to id 3. Totals must equal a from-scratch recompute.
  auto maintained = db.Execute("select branch, total from totals "
                               "order by branch");
  auto fresh = db.Execute(
      "select branch, sum(balance) as total from accounts group by branch "
      "order by branch");
  ASSERT_OK(maintained.status());
  ASSERT_OK(fresh.status());
  ASSERT_EQ(maintained->num_rows(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(maintained->rows[i][1].as_double(),
                fresh->rows[i][1].as_double(), 1e-9);
  }
  // Batching happened: far fewer recompute tasks than updates.
  EXPECT_LT(db.rules().stats().tasks_created.load(), 60u);
  EXPECT_GT(db.rules().stats().firings_merged.load(), 0u);
}

TEST(ThreadedIntegrationTest, EveryUniqueFiringCountedOnceCreatedOrMerged) {
  // Concurrent commits fire one unique rule whose long window batches
  // them: each firing either creates the window's task or merges into
  // it, and each outcome is counted exactly once however commits race.
  Database db(Threaded(2));
  ASSERT_OK(db.ExecuteScript(R"(
    create table ticks (id int, v double);
    create index on ticks (id);
    insert into ticks values (0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0);
  )"));
  ASSERT_OK(db.RegisterFunction(
      "noop", [](FunctionContext&) -> Status { return Status::OK(); }));
  ASSERT_OK(db.Execute(R"(
    create rule r on ticks when updated v
    if select new.id as id from new bind as d
    then execute noop unique after 0.5 seconds
  )").status());

  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 25;
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&db, w] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        for (;;) {
          auto r = db.Execute("update ticks set v += 1.0 where id = " +
                              std::to_string(w));
          if (r.ok()) break;
          ASSERT_EQ(r.status().code(), StatusCode::kAborted)
              << r.status().ToString();
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  db.threaded()->Drain();

  const RuleStats& stats = db.rules().stats();
  EXPECT_GT(stats.firings_merged.load(), 0u);
  EXPECT_EQ(stats.tasks_created.load() + stats.firings_merged.load(),
            static_cast<uint64_t>(kThreads * kCommitsPerThread));
}

TEST(ThreadedIntegrationTest, RulePlansRebuildUnderConcurrentDdl) {
  // Commits fire a unique rule while DDL keeps changing the catalog
  // generation, so firings race to rebuild the rule's cached plans: one
  // index on the table the condition joins, then a side table created
  // with an index and dropped, over and over. (There is no DROP INDEX.)
  // Every firing still creates or merges exactly once and the actions see
  // every row.
  Database db(Threaded(2));
  ASSERT_OK(db.ExecuteScript(R"(
    create table ticks (id int, v double);
    create index on ticks (id);
    create table names (id int, name string);
    insert into ticks values (0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0);
    insert into names values (0, 'a'), (1, 'b'), (2, 'c'), (3, 'd');
  )"));
  std::atomic<uint64_t> rows_seen{0};
  ASSERT_OK(db.RegisterFunction("count_rows", [&](FunctionContext& ctx) {
    rows_seen += ctx.BoundTable("d")->size();
    return Status::OK();
  }));
  ASSERT_OK(db.Execute(R"(
    create rule r on ticks when updated v
    if select name, new.v as v from new, names where names.id = new.id
       bind as d
    then execute count_rows unique on name after 0.01 seconds
  )").status());

  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 25;
  std::atomic<bool> stop{false};
  std::thread ddl([&db, &stop] {
    bool indexed = false;
    for (int i = 0; !stop.load(); ++i) {
      if (!indexed) {
        ASSERT_OK(db.Execute("create index on names (id)").status());
        indexed = true;
      }
      ASSERT_OK(db.ExecuteScript(
          "create table churn (k int); create index on churn (k); "
          "drop table churn"));
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&db, w] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        for (;;) {
          auto r = db.Execute("update ticks set v += 1.0 where id = " +
                              std::to_string(w));
          if (r.ok()) break;
          ASSERT_EQ(r.status().code(), StatusCode::kAborted)
              << r.status().ToString();
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop = true;
  ddl.join();
  db.threaded()->Drain();

  const RuleStats& stats = db.rules().stats();
  EXPECT_EQ(stats.tasks_created.load() + stats.firings_merged.load(),
            static_cast<uint64_t>(kThreads * kCommitsPerThread));
  EXPECT_EQ(rows_seen.load(),
            static_cast<uint64_t>(kThreads * kCommitsPerThread));
  EXPECT_EQ(db.executor().stats().tasks_failed.load(), 0u);
}

TEST(ThreadedIntegrationTest, ActionRetriesAfterWaitDieAbort) {
  // A rule action that conflicts with a long-running older transaction
  // must retry (fresh, younger transaction each time) and eventually
  // succeed.
  Database db(Threaded(2));
  ASSERT_OK(db.ExecuteScript(R"(
    create table src (v int);
    create table dst (v int);
  )"));
  std::atomic<int> attempts{0};
  ASSERT_OK(db.RegisterFunction("copy", [&](FunctionContext& ctx) -> Status {
    ++attempts;
    return ctx.Exec("insert into dst values (1)").status();
  }));
  ASSERT_OK(db.Execute(
      "create rule r on src when inserted then execute copy").status());

  // An older transaction holds X on dst while the action fires.
  ASSERT_OK_AND_ASSIGN(Transaction * blocker, db.Begin());
  ASSERT_OK(db.ExecuteInTxn(blocker, "insert into dst values (0)").status());

  ASSERT_OK(db.Execute("insert into src values (7)").status());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Release the blocker; the retried action can now commit.
  ASSERT_OK(db.Commit(blocker));
  db.threaded()->Drain();

  auto rs = db.Execute("select count(*) as n from dst");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs->rows[0][0], Value::Int(2));  // blocker's row + action's row
  EXPECT_GE(attempts.load(), 1);
}

TEST(ThreadedIntegrationTest, DelayWindowObservedOnWallClock) {
  Database db(Threaded(1));
  ASSERT_OK(db.ExecuteScript(R"(
    create table t (v int);
    create table marks (at int);
  )"));
  ASSERT_OK(db.RegisterFunction("mark", [&db](FunctionContext& ctx) {
    return ctx.Exec("insert into marks values (" +
                    std::to_string(db.Now()) + ")")
        .status();
  }));
  ASSERT_OK(db.Execute(
      "create rule r on t when inserted then execute mark unique "
      "after 0.08 seconds").status());
  Timestamp before = db.Now();
  ASSERT_OK(db.Execute("insert into t values (1)").status());
  db.threaded()->Drain();
  auto rs = db.Execute("select at from marks");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_GE(rs->rows[0][0].as_int() - before, SecondsToMicros(0.07));
}

TEST(ThreadedIntegrationTest, ThreadedPtaHarnessRuns) {
  // Smoke test of the scale-up benchmark harness at a tiny scale: every
  // composite fires exactly once (merging is deterministic because the
  // delay window outlasts the burst), no task fails, and the lock /
  // executor counters add up.
  ThreadedPtaOptions opts;
  opts.num_workers = 2;
  opts.scale = 0.005;  // 8 composites (the floor), ~300 updates
  opts.delay_seconds = 1.0;
  opts.order_latency_micros = 0;  // no stall: keep the test fast
  auto r = RunThreadedPta(opts);
  ASSERT_OK(r.status());
  EXPECT_EQ(r->num_workers, 2);
  EXPECT_GT(r->num_updates, 0u);
  EXPECT_EQ(r->num_firings, 8u);  // one per composite
  EXPECT_EQ(r->failed_tasks, 0u);
  EXPECT_EQ(r->tasks_failed, 0u);
  EXPECT_GT(r->firings_merged, 0u);
  EXPECT_GT(r->firings_per_second, 0.0);
  EXPECT_GT(r->p99_firing_latency_micros, 0.0);
  EXPECT_GE(r->p99_firing_latency_micros, r->p50_firing_latency_micros);
  EXPECT_GT(r->lock_acquires, 0u);
  // Every submitted task ran: updates + firings (merged firings never
  // became tasks).
  EXPECT_EQ(r->tasks_run, r->num_updates + r->num_firings);
}

}  // namespace
}  // namespace strip
