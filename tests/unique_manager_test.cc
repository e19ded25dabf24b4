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

/// Resolves `unique_columns` against `set`'s tables and partitions it, as
/// the rule engine does across a plan generation and a firing.
Result<UniquePartition> Partition(
    const BoundTableSet& set, const std::vector<std::string>& unique_columns) {
  std::vector<const Schema*> schemas;
  for (const TempTable& t : set.tables()) schemas.push_back(&t.schema());
  STRIP_ASSIGN_OR_RETURN(std::vector<UniqueColumnHome> homes,
                         ResolveUniqueColumns(schemas, unique_columns));
  return PartitionByUniqueColumns(set, homes);
}

/// Key `k` of `parts`, and the rows table `t` hands it, as vectors.
std::vector<Value> KeyOf(const UniquePartition& parts, size_t k) {
  return {parts.Key(k).begin(), parts.Key(k).end()};
}
std::vector<uint32_t> RowsOf(const UniquePartition& parts, size_t k,
                             size_t t) {
  return {parts.Rows(k, t).begin(), parts.Rows(k, t).end()};
}

/// Rows bound table `name` of `set` contributes to key `k` of `parts`.
size_t RowsOf(const UniquePartition& parts, const BoundTableSet& set,
              size_t k, const std::string& name) {
  for (size_t t = 0; t < set.tables().size(); ++t) {
    if (set.tables()[t].name() == name) return parts.Rows(k, t).size();
  }
  ADD_FAILURE() << "no bound table " << name;
  return 0;
}

TEST(PartitionTest, EmptyUniqueColumnsGivesOnePartition) {
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("m", {"comp"}, {Strs({"c1"}), Strs({"c2"})})));
  ASSERT_OK_AND_ASSIGN(UniquePartition parts,
                       Partition(set, {}));
  ASSERT_EQ(parts.num_keys, 1u);
  EXPECT_TRUE(parts.Key(0).empty());
  EXPECT_EQ(RowsOf(parts, set, 0, "m"), 2u);
}

TEST(PartitionTest, SingleTablePartitionsByDistinctValues) {
  // The Figure 5(c) scenario: matches rows split per composite.
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("matches", {"comp", "sym"},
                              {Strs({"c1", "s1"}), Strs({"c2", "s1"}),
                               Strs({"c2", "s2"})})));
  ASSERT_OK_AND_ASSIGN(UniquePartition parts,
                       Partition(set, {"comp"}));
  ASSERT_EQ(parts.num_keys, 2u);
  size_t c1 = parts.Key(0)[0] == Value::Str("c1") ? 0 : 1;
  size_t c2 = 1 - c1;
  EXPECT_EQ(RowsOf(parts, set, c1, "matches"), 1u);
  EXPECT_EQ(RowsOf(parts, set, c2, "matches"), 2u);
}

TEST(PartitionTest, TablesWithoutUniqueColumnsArePassedWhole) {
  // Appendix A: T^a tables go to every partition in full.
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("m", {"comp"}, {Strs({"c1"}), Strs({"c2"})})));
  ASSERT_OK(set.Add(MakeBound("aux", {"x"}, {Strs({"a"}), Strs({"b"})})));
  ASSERT_OK_AND_ASSIGN(UniquePartition parts,
                       Partition(set, {"comp"}));
  ASSERT_EQ(parts.num_keys, 2u);
  for (size_t k = 0; k < parts.num_keys; ++k) {
    EXPECT_EQ(RowsOf(parts, set, k, "m"), 1u);
    EXPECT_EQ(RowsOf(parts, set, k, "aux"), 2u);
  }
}

TEST(PartitionTest, MultiColumnKeyWithinOneTable) {
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("m", {"a", "b"},
                              {Strs({"x", "1"}), Strs({"x", "2"}),
                               Strs({"x", "1"})})));
  ASSERT_OK_AND_ASSIGN(UniquePartition parts,
                       Partition(set, {"a", "b"}));
  ASSERT_EQ(parts.num_keys, 2u);
  for (size_t k = 0; k < parts.num_keys; ++k) {
    const std::vector<Value> key = KeyOf(parts, k);
    ASSERT_EQ(key.size(), 2u);
    if (key[1] == Value::Str("1")) {
      EXPECT_EQ(RowsOf(parts, set, k, "m"), 2u);
    } else {
      EXPECT_EQ(RowsOf(parts, set, k, "m"), 1u);
    }
  }
}

TEST(PartitionTest, UniqueColumnsSpanningTwoTablesCrossProduct) {
  // Appendix A: the key space is the projection of the product B of the
  // tables holding unique columns.
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("m1", {"a"}, {Strs({"x"}), Strs({"y"})})));
  ASSERT_OK(set.Add(MakeBound("m2", {"b"}, {Strs({"1"}), Strs({"2"})})));
  ASSERT_OK_AND_ASSIGN(UniquePartition parts,
                       Partition(set, {"a", "b"}));
  ASSERT_EQ(parts.num_keys, 4u);  // {x,y} x {1,2}
  for (size_t k = 0; k < parts.num_keys; ++k) {
    EXPECT_EQ(RowsOf(parts, set, k, "m1"), 1u);
    EXPECT_EQ(RowsOf(parts, set, k, "m2"), 1u);
  }
}

TEST(PartitionTest, KeyOrderFollowsUniqueColumnsDeclaration) {
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("m", {"a", "b"}, {Strs({"x", "1"})})));
  ASSERT_OK_AND_ASSIGN(UniquePartition parts,
                       Partition(set, {"b", "a"}));
  ASSERT_EQ(parts.num_keys, 1u);
  EXPECT_EQ(parts.Key(0)[0], Value::Str("1"));  // b first
  EXPECT_EQ(parts.Key(0)[1], Value::Str("x"));
}

TEST(PartitionTest, EmptyUniqueTableYieldsNoPartitions) {
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("m", {"comp"}, {})));
  ASSERT_OK_AND_ASSIGN(UniquePartition parts,
                       Partition(set, {"comp"}));
  EXPECT_EQ(parts.num_keys, 0u);
}

TEST(PartitionTest, Errors) {
  {
    BoundTableSet set;
    ASSERT_OK(set.Add(MakeBound("m", {"a"}, {Strs({"x"})})));
    EXPECT_EQ(Partition(set, {"nope"}).status().code(),
              StatusCode::kNotFound);
  }
  {
    BoundTableSet set;
    ASSERT_OK(set.Add(MakeBound("m1", {"a"}, {Strs({"x"})})));
    ASSERT_OK(set.Add(MakeBound("m2", {"a"}, {Strs({"y"})})));
    EXPECT_EQ(Partition(set, {"a"}).status().code(),
              StatusCode::kInvalidArgument);  // ambiguous column home
  }
}

TEST(PartitionTest, GroupsKeepTableOrderAndNameTheirLastKey) {
  // Rows of one key keep their order in the firing (compute_options2
  // reads later rows as superseding earlier ones); a group shared by
  // several keys of the cross product is moved into the last of them.
  BoundTableSet set;
  ASSERT_OK(set.Add(MakeBound("m1", {"a", "n"},
                              {Strs({"x", "1"}), Strs({"y", "2"}),
                               Strs({"x", "3"})})));
  ASSERT_OK(set.Add(MakeBound("m2", {"b"}, {Strs({"p"}), Strs({"q"})})));
  ASSERT_OK_AND_ASSIGN(UniquePartition parts,
                       Partition(set, {"a", "b"}));
  ASSERT_EQ(parts.num_keys, 4u);
  // First table varies fastest: (x,p) (y,p) (x,q) (y,q).
  EXPECT_EQ(KeyOf(parts, 0), Strs({"x", "p"}));
  EXPECT_EQ(KeyOf(parts, 1), Strs({"y", "p"}));
  EXPECT_EQ(KeyOf(parts, 2), Strs({"x", "q"}));
  EXPECT_EQ(KeyOf(parts, 3), Strs({"y", "q"}));
  EXPECT_EQ(RowsOf(parts, 0, 0), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(RowsOf(parts, 1, 0), (std::vector<uint32_t>{1}));
  EXPECT_EQ(parts.tables[0].last_key, (std::vector<uint32_t>{2, 3}));
  EXPECT_EQ(parts.tables[1].last_key, (std::vector<uint32_t>{1, 3}));
}

// ---------------------------------------------------------------------------
// UniqueTxnManager
// ---------------------------------------------------------------------------

/// Partitions, checks and merges one firing the way the rule engine does;
/// returns the task it created for its single key, or nullptr when the
/// firing merged into the queued one.
TaskPtr FireOnce(UniqueTxnManager& mgr, const std::string& fn,
                 BoundTableSet tables,
                 const std::vector<std::string>& unique_columns,
                 const UniqueTxnManager::TaskFactory& factory) {
  auto parts = Partition(tables, unique_columns);
  EXPECT_TRUE(parts.ok()) << parts.status().ToString();
  if (!parts.ok()) return nullptr;
  UniqueTxnManager::FunctionQueue* queue = mgr.EnsureFunction(fn);
  const uint64_t layout = BoundLayoutId(tables);
  EXPECT_OK(mgr.CheckMergeable(queue, layout, *parts));
  std::vector<TaskPtr> created;
  mgr.MergeFiring(queue, layout, std::move(tables), *parts,
                  /*change_time=*/0,
                  /*parent_trace_id=*/0, factory, created);
  EXPECT_LE(created.size(), 1u);
  return created.empty() ? nullptr : created[0];
}

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

  /// One firing of `tables` for `fn`, keyed on the `comp` column (or on
  /// nothing, for coarse `unique`).
  TaskPtr Fire(const std::string& fn, BoundTableSet tables,
               std::vector<std::string> unique_columns = {"comp"}) {
    return FireOnce(mgr_, fn, std::move(tables), unique_columns, Factory());
  }

  UniqueTxnManager mgr_;
  uint64_t next_id_ = 1;
};

TEST_F(UniqueTxnManagerTest, FirstFiringCreatesTask) {
  TaskPtr t = Fire("fn", OneRowSet("c1"));
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->is_unique);
  EXPECT_EQ(t->unique_key[0], Value::Str("c1"));
  EXPECT_EQ(mgr_.NumQueued("fn"), 1u);
}

TEST_F(UniqueTxnManagerTest, SecondFiringMergesIntoQueuedTask) {
  TaskPtr t1 = Fire("fn", OneRowSet("c1"));
  TaskPtr t2 = Fire("fn", OneRowSet("c1"));
  EXPECT_EQ(t2, nullptr);  // merged, nothing to submit
  EXPECT_EQ(t1->bound_tables.Find("m")->size(), 2u);
  EXPECT_EQ(mgr_.NumQueued("fn"), 1u);
}

TEST_F(UniqueTxnManagerTest, DifferentKeysGetDifferentTasks) {
  TaskPtr t1 = Fire("fn", OneRowSet("c1"));
  TaskPtr t2 = Fire("fn", OneRowSet("c2"));
  EXPECT_NE(t1, nullptr);
  EXPECT_NE(t2, nullptr);
  EXPECT_NE(t1, t2);
  EXPECT_EQ(mgr_.NumQueued("fn"), 2u);
}

TEST_F(UniqueTxnManagerTest, DifferentFunctionsAreIndependent) {
  TaskPtr t1 = Fire("fn_a", OneRowSet("c"), {});
  TaskPtr t2 = Fire("fn_b", OneRowSet("c"), {});
  EXPECT_NE(t1, nullptr);
  EXPECT_NE(t2, nullptr);
  EXPECT_EQ(mgr_.NumQueued("fn_a"), 1u);
  EXPECT_EQ(mgr_.NumQueued("fn_b"), 1u);
}

TEST_F(UniqueTxnManagerTest, StartedTaskNoLongerAcceptsMerges) {
  TaskPtr t1 = Fire("fn", OneRowSet("c1"));
  ASSERT_TRUE(t1->TryStart());  // executor picks it up
  // A firing after the start must create a FRESH task (§2).
  TaskPtr t2 = Fire("fn", OneRowSet("c1"));
  ASSERT_NE(t2, nullptr);
  EXPECT_NE(t1, t2);
  EXPECT_EQ(t1->bound_tables.Find("m")->size(), 1u);  // untouched
}

TEST_F(UniqueTxnManagerTest, OnTaskStartRemovesHashEntry) {
  TaskPtr t1 = Fire("fn", OneRowSet("c1"));
  mgr_.OnTaskStart(*t1);
  EXPECT_EQ(mgr_.NumQueued("fn"), 0u);
  mgr_.OnTaskStart(*t1);  // idempotent
  // Next firing creates a new task.
  TaskPtr t2 = Fire("fn", OneRowSet("c1"));
  EXPECT_NE(t2, nullptr);
  // OnTaskStart for a superseded task must not remove the new entry.
  mgr_.OnTaskStart(*t1);
  EXPECT_EQ(mgr_.NumQueued("fn"), 1u);
}

TEST_F(UniqueTxnManagerTest, OneFiringMergesEachKeyInOrder) {
  // The PTA shape: one firing carries rows for several keys, each already
  // queued. Every key merges (no task created) and its rows land after the
  // queued ones, in firing order.
  auto firing = [](std::vector<std::vector<Value>> rows) {
    BoundTableSet set;
    Status st = set.Add(MakeBound("m", {"comp", "seq"}, rows));
    EXPECT_TRUE(st.ok());
    return set;
  };
  auto fire = [&](BoundTableSet set, std::vector<TaskPtr>& created) {
    auto parts = Partition(set, {"comp"});
    EXPECT_TRUE(parts.ok());
    UniqueTxnManager::FunctionQueue* queue = mgr_.EnsureFunction("fn");
    const uint64_t layout = BoundLayoutId(set);
    EXPECT_OK(mgr_.CheckMergeable(queue, layout, *parts));
    return mgr_.MergeFiring(queue, layout, std::move(set), *parts, 0, 0,
                            Factory(), created);
  };
  std::vector<TaskPtr> created;
  EXPECT_EQ(fire(firing({Strs({"c1", "0"}), Strs({"c2", "0"})}), created),
            0u);
  ASSERT_EQ(created.size(), 2u);
  std::vector<TaskPtr> none;
  EXPECT_EQ(fire(firing({Strs({"c2", "1"}), Strs({"c1", "2"}),
                         Strs({"c2", "3"})}),
                 none),
            2u);
  EXPECT_TRUE(none.empty());
  auto seqs = [](const TaskPtr& t) {
    std::vector<Value> out;
    const TempTable* m = t->bound_tables.Find("m");
    for (size_t i = 0; i < m->size(); ++i) out.push_back(m->Get(i, 1));
    return out;
  };
  EXPECT_EQ(seqs(created[0]), Strs({"0", "2"}));
  EXPECT_EQ(seqs(created[1]), Strs({"0", "1", "3"}));
  EXPECT_EQ(created[1]->batched_firings, 2u);
}

TEST_F(UniqueTxnManagerTest, LayoutMismatchFailsTheCheckNotTheMerge) {
  // A queued task whose bound tables differ in layout cannot take the
  // firing's rows: the check fails before anything merges, and a merge
  // that meets such a task anyway replaces it with a fresh one.
  TaskPtr t1 = Fire("fn", OneRowSet("c1"));
  ASSERT_NE(t1, nullptr);
  BoundTableSet wide;
  ASSERT_OK(wide.Add(MakeBound("m", {"comp", "extra"},
                               {Strs({"c1", "x"})})));
  ASSERT_OK_AND_ASSIGN(UniquePartition parts,
                       Partition(wide, {"comp"}));
  UniqueTxnManager::FunctionQueue* queue = mgr_.EnsureFunction("fn");
  const uint64_t layout = BoundLayoutId(wide);
  EXPECT_NE(layout, BoundLayoutId(OneRowSet("c1")));
  EXPECT_EQ(mgr_.CheckMergeable(queue, layout, parts).code(),
            StatusCode::kInternal);
  std::vector<TaskPtr> created;
  EXPECT_EQ(mgr_.MergeFiring(queue, layout, std::move(wide), parts, 0, 0,
                             Factory(), created),
            0u);
  ASSERT_EQ(created.size(), 1u);
  EXPECT_NE(created[0], t1);
  EXPECT_EQ(t1->bound_tables.Find("m")->size(), 1u);  // untouched
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
        TaskPtr t = FireOnce(mgr_, "fn", OneRowSet("k"), {"comp"}, factory);
        // Like the rule engine's submit, a created task reaches the
        // starter only once MergeFiring has finished initializing it.
        if (t != nullptr) {
          SpinLockGuard g(tasks_lock);
          created.push_back(t);
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
    TaskPtr task = Fire("fn", std::move(s1));
    ASSERT_NE(task, nullptr);
    BoundTableSet s2;
    ASSERT_OK(s2.Add(RecordBacked("m", r2)));
    TaskPtr merged = Fire("fn", std::move(s2));
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

TEST_F(UniqueTxnManagerTest, CrossProductCopiesOnlySharedTuples) {
  // A row under one key is moved into that key's task. A row of a table
  // holding no unique column goes to every key (Appendix A): copied to all
  // keys but the last, moved into the last.
  RecordRef c1 = MakeRecord({Value::Str("c1")});
  RecordRef c2 = MakeRecord({Value::Str("c2")});
  RecordRef aux = MakeRecord({Value::Str("a")});
  {
    BoundTableSet firing;
    TempTable m = RecordBacked("m", c1);
    m.Append(TempTuple{{c2}, {}});
    ASSERT_OK(firing.Add(std::move(m)));
    Schema s;
    s.AddColumn("x", ValueType::kString);
    TempTable other("aux", std::move(s), {TempColumnMap{0, 0}},
                    /*num_slots=*/1, /*num_extra=*/0);
    other.Append(TempTuple{{aux}, {}});
    ASSERT_OK(firing.Add(std::move(other)));
    ASSERT_OK_AND_ASSIGN(UniquePartition parts,
                         Partition(firing, {"comp"}));
    ASSERT_EQ(parts.num_keys, 2u);
    std::vector<TaskPtr> created;
    const uint64_t layout = BoundLayoutId(firing);
    mgr_.MergeFiring(mgr_.EnsureFunction("fn"), layout, std::move(firing),
                     parts, 0, 0, Factory(), created);
    ASSERT_EQ(created.size(), 2u);
    EXPECT_EQ(c1.use_count(), 2);   // ours + key c1's task
    EXPECT_EQ(c2.use_count(), 2);   // ours + key c2's task
    EXPECT_EQ(aux.use_count(), 3);  // ours + one per key
    for (const TaskPtr& t : created) {
      EXPECT_EQ(t->bound_tables.Find("m")->size(), 1u);
      EXPECT_EQ(t->bound_tables.Find("aux")->size(), 1u);
      ASSERT_TRUE(t->TryStart());
      mgr_.OnTaskStart(*t);
    }
  }
  EXPECT_EQ(c1.use_count(), 1);
  EXPECT_EQ(aux.use_count(), 1);
}

TEST_F(UniqueTxnManagerTest, MergedThenSupersededUnpinsExactlyOnce) {
  RecordRef r1 = MakeRecord({Value::Str("c1")});
  RecordRef r2 = MakeRecord({Value::Str("c1")});
  RecordRef r3 = MakeRecord({Value::Str("c1")});
  {
    BoundTableSet s1;
    ASSERT_OK(s1.Add(RecordBacked("m", r1)));
    TaskPtr t1 = Fire("fn", std::move(s1));
    BoundTableSet s2;
    ASSERT_OK(s2.Add(RecordBacked("m", r2)));
    TaskPtr merged = Fire("fn", std::move(s2));
    EXPECT_EQ(merged, nullptr);

    // The task starts; a firing racing the start must not land in it.
    ASSERT_TRUE(t1->TryStart());
    BoundTableSet s3;
    ASSERT_OK(s3.Add(RecordBacked("m", r3)));
    TaskPtr t2 = Fire("fn", std::move(s3));
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
