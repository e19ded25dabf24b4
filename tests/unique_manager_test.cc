// Unique-transaction machinery tests: the Appendix A bound-table
// partitioning semantics and the per-function hash table of queued tasks
// (§6.3), including concurrent merge/start races.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "strip/rules/unique_manager.h"
#include "tests/test_util.h"

namespace strip {
namespace {

/// Builds a fully materialized bound table with the given columns/rows.
TempTable MakeBound(const std::string& name,
                    const std::vector<std::string>& columns,
                    const std::vector<std::vector<Value>>& rows) {
  Schema s;
  for (const auto& c : columns) s.AddColumn(c, ValueType::kString);
  TempTable t = TempTable::Materialized(name, std::move(s));
  for (const auto& row : rows) {
    t.Append(TempTuple{{}, row});
  }
  return t;
}

std::vector<Value> Strs(std::initializer_list<const char*> vs) {
  std::vector<Value> out;
  for (const char* v : vs) out.push_back(Value::Str(v));
  return out;
}

TEST(PartitionTest, EmptyUniqueColumnsGivesOnePartition) {
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("m", {"comp"}, {Strs({"c1"}), Strs({"c2"})})));
  ASSERT_OK_AND_ASSIGN(auto parts,
                       PartitionByUniqueColumns(std::move(set), {}));
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_TRUE(parts[0].first.empty());
  EXPECT_EQ(parts[0].second.Find("m")->size(), 2u);
}

TEST(PartitionTest, SingleTablePartitionsByDistinctValues) {
  // The Figure 5(c) scenario: matches rows split per composite.
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("matches", {"comp", "sym"},
                              {Strs({"c1", "s1"}), Strs({"c2", "s1"}),
                               Strs({"c2", "s2"})})));
  ASSERT_OK_AND_ASSIGN(auto parts,
                       PartitionByUniqueColumns(std::move(set), {"comp"}));
  ASSERT_EQ(parts.size(), 2u);
  size_t c1 = parts[0].first[0] == Value::Str("c1") ? 0 : 1;
  size_t c2 = 1 - c1;
  EXPECT_EQ(parts[c1].second.Find("matches")->size(), 1u);
  EXPECT_EQ(parts[c2].second.Find("matches")->size(), 2u);
}

TEST(PartitionTest, TablesWithoutUniqueColumnsArePassedWhole) {
  // Appendix A: T^a tables go to every partition in full.
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("m", {"comp"}, {Strs({"c1"}), Strs({"c2"})})));
  ASSERT_OK(set.Add(MakeBound("aux", {"x"}, {Strs({"a"}), Strs({"b"})})));
  ASSERT_OK_AND_ASSIGN(auto parts,
                       PartitionByUniqueColumns(std::move(set), {"comp"}));
  ASSERT_EQ(parts.size(), 2u);
  for (const auto& [key, tables] : parts) {
    EXPECT_EQ(tables.Find("m")->size(), 1u);
    EXPECT_EQ(tables.Find("aux")->size(), 2u);
  }
}

TEST(PartitionTest, MultiColumnKeyWithinOneTable) {
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("m", {"a", "b"},
                              {Strs({"x", "1"}), Strs({"x", "2"}),
                               Strs({"x", "1"})})));
  ASSERT_OK_AND_ASSIGN(auto parts,
                       PartitionByUniqueColumns(std::move(set), {"a", "b"}));
  ASSERT_EQ(parts.size(), 2u);
  for (const auto& [key, tables] : parts) {
    ASSERT_EQ(key.size(), 2u);
    if (key[1] == Value::Str("1")) {
      EXPECT_EQ(tables.Find("m")->size(), 2u);
    } else {
      EXPECT_EQ(tables.Find("m")->size(), 1u);
    }
  }
}

TEST(PartitionTest, UniqueColumnsSpanningTwoTablesCrossProduct) {
  // Appendix A: the key space is the projection of the product B of the
  // tables holding unique columns.
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("m1", {"a"}, {Strs({"x"}), Strs({"y"})})));
  ASSERT_OK(set.Add(MakeBound("m2", {"b"}, {Strs({"1"}), Strs({"2"})})));
  ASSERT_OK_AND_ASSIGN(auto parts,
                       PartitionByUniqueColumns(std::move(set), {"a", "b"}));
  ASSERT_EQ(parts.size(), 4u);  // {x,y} x {1,2}
  for (const auto& [key, tables] : parts) {
    EXPECT_EQ(tables.Find("m1")->size(), 1u);
    EXPECT_EQ(tables.Find("m2")->size(), 1u);
  }
}

TEST(PartitionTest, KeyOrderFollowsUniqueColumnsDeclaration) {
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("m", {"a", "b"}, {Strs({"x", "1"})})));
  ASSERT_OK_AND_ASSIGN(auto parts,
                       PartitionByUniqueColumns(std::move(set), {"b", "a"}));
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].first[0], Value::Str("1"));  // b first
  EXPECT_EQ(parts[0].first[1], Value::Str("x"));
}

TEST(PartitionTest, EmptyUniqueTableYieldsNoPartitions) {
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("m", {"comp"}, {})));
  ASSERT_OK_AND_ASSIGN(auto parts,
                       PartitionByUniqueColumns(std::move(set), {"comp"}));
  EXPECT_TRUE(parts.empty());
}

TEST(PartitionTest, Errors) {
  {
    BoundTableSet set;
    ASSERT_OK(set.Add(MakeBound("m", {"a"}, {Strs({"x"})})));
    EXPECT_EQ(PartitionByUniqueColumns(std::move(set), {"nope"})
                  .status().code(),
              StatusCode::kNotFound);
  }
  {
    BoundTableSet set;
    ASSERT_OK(set.Add(MakeBound("m1", {"a"}, {Strs({"x"})})));
    ASSERT_OK(set.Add(MakeBound("m2", {"a"}, {Strs({"y"})})));
    EXPECT_EQ(PartitionByUniqueColumns(std::move(set), {"a"})
                  .status().code(),
              StatusCode::kInvalidArgument);  // ambiguous column home
  }
}

// ---------------------------------------------------------------------------
// UniqueTxnManager
// ---------------------------------------------------------------------------

class UniqueTxnManagerTest : public ::testing::Test {
 protected:
  BoundTableSet OneRowSet(const char* comp) {
    BoundTableSet set;
    Status st = set.Add(MakeBound("m", {"comp"}, {Strs({comp})}));
    EXPECT_TRUE(st.ok());
    return set;
  }

  UniqueTxnManager::TaskFactory Factory() {
    return [this](const std::vector<Value>&, BoundTableSet&& tables) {
      auto task = std::make_shared<TaskControlBlock>(next_id_++);
      task->function_name = "fn";
      task->bound_tables = std::move(tables);
      return task;
    };
  }

  UniqueTxnManager mgr_;
  uint64_t next_id_ = 1;
};

TEST_F(UniqueTxnManagerTest, FirstFiringCreatesTask) {
  ASSERT_OK_AND_ASSIGN(
      TaskPtr t, mgr_.MergeOrCreate("fn", {Value::Str("c1")},
                                    OneRowSet("c1"), 0, Factory()));
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->is_unique);
  EXPECT_EQ(t->unique_key[0], Value::Str("c1"));
  EXPECT_EQ(mgr_.NumQueued("fn"), 1u);
}

TEST_F(UniqueTxnManagerTest, SecondFiringMergesIntoQueuedTask) {
  ASSERT_OK_AND_ASSIGN(
      TaskPtr t1, mgr_.MergeOrCreate("fn", {Value::Str("c1")},
                                     OneRowSet("c1"), 0, Factory()));
  ASSERT_OK_AND_ASSIGN(
      TaskPtr t2, mgr_.MergeOrCreate("fn", {Value::Str("c1")},
                                     OneRowSet("c1"), 0, Factory()));
  EXPECT_EQ(t2, nullptr);  // merged, nothing to submit
  EXPECT_EQ(t1->bound_tables.Find("m")->size(), 2u);
  EXPECT_EQ(mgr_.NumQueued("fn"), 1u);
}

TEST_F(UniqueTxnManagerTest, DifferentKeysGetDifferentTasks) {
  ASSERT_OK_AND_ASSIGN(
      TaskPtr t1, mgr_.MergeOrCreate("fn", {Value::Str("c1")},
                                     OneRowSet("c1"), 0, Factory()));
  ASSERT_OK_AND_ASSIGN(
      TaskPtr t2, mgr_.MergeOrCreate("fn", {Value::Str("c2")},
                                     OneRowSet("c2"), 0, Factory()));
  EXPECT_NE(t1, nullptr);
  EXPECT_NE(t2, nullptr);
  EXPECT_NE(t1, t2);
  EXPECT_EQ(mgr_.NumQueued("fn"), 2u);
}

TEST_F(UniqueTxnManagerTest, DifferentFunctionsAreIndependent) {
  ASSERT_OK_AND_ASSIGN(
      TaskPtr t1, mgr_.MergeOrCreate("fn_a", {}, OneRowSet("c"), 0, Factory()));
  ASSERT_OK_AND_ASSIGN(
      TaskPtr t2, mgr_.MergeOrCreate("fn_b", {}, OneRowSet("c"), 0, Factory()));
  EXPECT_NE(t1, nullptr);
  EXPECT_NE(t2, nullptr);
  EXPECT_EQ(mgr_.NumQueued("fn_a"), 1u);
  EXPECT_EQ(mgr_.NumQueued("fn_b"), 1u);
}

TEST_F(UniqueTxnManagerTest, StartedTaskNoLongerAcceptsMerges) {
  ASSERT_OK_AND_ASSIGN(
      TaskPtr t1, mgr_.MergeOrCreate("fn", {Value::Str("c1")},
                                     OneRowSet("c1"), 0, Factory()));
  ASSERT_TRUE(t1->TryStart());  // executor picks it up
  // A firing after the start must create a FRESH task (§2).
  ASSERT_OK_AND_ASSIGN(
      TaskPtr t2, mgr_.MergeOrCreate("fn", {Value::Str("c1")},
                                     OneRowSet("c1"), 0, Factory()));
  ASSERT_NE(t2, nullptr);
  EXPECT_NE(t1, t2);
  EXPECT_EQ(t1->bound_tables.Find("m")->size(), 1u);  // untouched
}

TEST_F(UniqueTxnManagerTest, OnTaskStartRemovesHashEntry) {
  ASSERT_OK_AND_ASSIGN(
      TaskPtr t1, mgr_.MergeOrCreate("fn", {Value::Str("c1")},
                                     OneRowSet("c1"), 0, Factory()));
  mgr_.OnTaskStart(*t1);
  EXPECT_EQ(mgr_.NumQueued("fn"), 0u);
  mgr_.OnTaskStart(*t1);  // idempotent
  // Next firing creates a new task.
  ASSERT_OK_AND_ASSIGN(
      TaskPtr t2, mgr_.MergeOrCreate("fn", {Value::Str("c1")},
                                     OneRowSet("c1"), 0, Factory()));
  EXPECT_NE(t2, nullptr);
  // OnTaskStart for a superseded task must not remove the new entry.
  mgr_.OnTaskStart(*t1);
  EXPECT_EQ(mgr_.NumQueued("fn"), 1u);
}

TEST_F(UniqueTxnManagerTest, ConcurrentMergesNeverLoseRows) {
  // Threads fire the same (function, key) repeatedly while another thread
  // keeps starting the queued tasks. Every fired row must end up in
  // exactly one task's bound table.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<uint64_t> ids{1};
  std::atomic<long> rows_in_tasks{0};
  SpinLock tasks_lock;
  std::vector<TaskPtr> created;

  auto factory = [&](const std::vector<Value>&, BoundTableSet&& tables) {
    auto task = std::make_shared<TaskControlBlock>(ids.fetch_add(1));
    task->function_name = "fn";
    task->bound_tables = std::move(tables);
    return task;
  };

  std::atomic<bool> stop{false};
  std::thread starter([&] {
    while (!stop.load()) {
      TaskPtr victim;
      {
        SpinLockGuard g(tasks_lock);
        for (auto& t : created) {
          SpinLockGuard tg(t->merge_lock);
          if (!t->started) {
            victim = t;
            break;
          }
        }
      }
      if (victim != nullptr && victim->TryStart()) {
        mgr_.OnTaskStart(*victim);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> firers;
  for (int t = 0; t < kThreads; ++t) {
    firers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto r = mgr_.MergeOrCreate("fn", {Value::Str("k")},
                                    OneRowSet("k"), 0, factory);
        ASSERT_TRUE(r.ok());
        // Like the rule engine's submit, a created task reaches the
        // starter only once MergeOrCreate has finished initializing it.
        if (*r != nullptr) {
          SpinLockGuard g(tasks_lock);
          created.push_back(*r);
        }
      }
    });
  }
  for (auto& t : firers) t.join();
  stop = true;
  starter.join();

  long total = 0;
  for (auto& t : created) {
    total += static_cast<long>(t->bound_tables.Find("m")->size());
  }
  EXPECT_EQ(total, kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// COW record pinning (§6.1, chaos satellite): bound tables pin superseded
// record versions; when a unique task retires — whether its firings were
// merged-then-fired or merged-then-superseded — every pin must be dropped
// exactly once. use_count is the ground truth.
// ---------------------------------------------------------------------------

/// A bound table whose single column reads through a record slot, pinning
/// `rec` the way real transition-table-derived bound tables do.
TempTable RecordBacked(const std::string& name, const RecordRef& rec) {
  Schema s;
  s.AddColumn("comp", ValueType::kString);
  TempTable t(name, std::move(s), {TempColumnMap{0, 0}}, /*num_slots=*/1,
              /*num_extra=*/0);
  t.Append(TempTuple{{rec}, {}});
  return t;
}

TEST_F(UniqueTxnManagerTest, MergedThenFiredUnpinsExactlyOnce) {
  RecordRef r1 = MakeRecord({Value::Str("c1")});
  RecordRef r2 = MakeRecord({Value::Str("c1")});
  {
    BoundTableSet s1;
    ASSERT_OK(s1.Add(RecordBacked("m", r1)));
    ASSERT_OK_AND_ASSIGN(
        TaskPtr task, mgr_.MergeOrCreate("fn", {Value::Str("c1")},
                                         std::move(s1), 0, Factory()));
    ASSERT_NE(task, nullptr);
    BoundTableSet s2;
    ASSERT_OK(s2.Add(RecordBacked("m", r2)));
    ASSERT_OK_AND_ASSIGN(
        TaskPtr merged, mgr_.MergeOrCreate("fn", {Value::Str("c1")},
                                           std::move(s2), 0, Factory()));
    EXPECT_EQ(merged, nullptr);
    // One pin each: ours plus exactly one inside the queued task — the
    // merge must MOVE the second firing's tuples, not copy them.
    EXPECT_EQ(r1.use_count(), 2);
    EXPECT_EQ(r2.use_count(), 2);
    EXPECT_EQ(task->bound_tables.Find("m")->size(), 2u);
    // Fire and retire.
    ASSERT_TRUE(task->TryStart());
    mgr_.OnTaskStart(*task);
  }
  // The task was the last owner; both versions fully unpinned.
  EXPECT_EQ(r1.use_count(), 1);
  EXPECT_EQ(r2.use_count(), 1);
}

TEST_F(UniqueTxnManagerTest, MergedThenSupersededUnpinsExactlyOnce) {
  RecordRef r1 = MakeRecord({Value::Str("c1")});
  RecordRef r2 = MakeRecord({Value::Str("c1")});
  RecordRef r3 = MakeRecord({Value::Str("c1")});
  {
    BoundTableSet s1;
    ASSERT_OK(s1.Add(RecordBacked("m", r1)));
    ASSERT_OK_AND_ASSIGN(
        TaskPtr t1, mgr_.MergeOrCreate("fn", {Value::Str("c1")},
                                       std::move(s1), 0, Factory()));
    BoundTableSet s2;
    ASSERT_OK(s2.Add(RecordBacked("m", r2)));
    ASSERT_OK_AND_ASSIGN(
        TaskPtr merged, mgr_.MergeOrCreate("fn", {Value::Str("c1")},
                                           std::move(s2), 0, Factory()));
    EXPECT_EQ(merged, nullptr);

    // The task starts; a firing racing the start must not land in it.
    ASSERT_TRUE(t1->TryStart());
    BoundTableSet s3;
    ASSERT_OK(s3.Add(RecordBacked("m", r3)));
    ASSERT_OK_AND_ASSIGN(
        TaskPtr t2, mgr_.MergeOrCreate("fn", {Value::Str("c1")},
                                       std::move(s3), 0, Factory()));
    ASSERT_NE(t2, nullptr);  // superseding task
    mgr_.OnTaskStart(*t1);

    // r3 is pinned by the superseding task only — never copied into t1.
    EXPECT_EQ(t1->bound_tables.Find("m")->size(), 2u);
    EXPECT_EQ(t2->bound_tables.Find("m")->size(), 1u);
    EXPECT_EQ(r1.use_count(), 2);
    EXPECT_EQ(r2.use_count(), 2);
    EXPECT_EQ(r3.use_count(), 2);

    ASSERT_TRUE(t2->TryStart());
    mgr_.OnTaskStart(*t2);
  }
  EXPECT_EQ(r1.use_count(), 1);
  EXPECT_EQ(r2.use_count(), 1);
  EXPECT_EQ(r3.use_count(), 1);
}

}  // namespace
}  // namespace strip
