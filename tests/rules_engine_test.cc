// Rule engine semantics tests: rule DDL validation, event detection,
// transition tables (no net-effect reduction, execute_order), condition
// evaluation, the evaluate clause, bound-table construction, commit_time,
// cascading rules, shared user functions, de/re-activation.

#include <gtest/gtest.h>

#include <algorithm>

#include "strip/engine/database.h"
#include "tests/test_util.h"

namespace strip {
namespace {

/// Logical-time database plus a "spy" user function that materializes what
/// it sees into an audit table.
class RulesEngineTest : public ::testing::Test {
 protected:
  RulesEngineTest() : db_(MakeOptions()) {}

  static Database::Options MakeOptions() {
    Database::Options o;
    o.mode = ExecutorMode::kSimulated;
    o.advance_clock_by_cost = false;
    return o;
  }

  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(R"(
      create table t (k string, v int);
      create table audit (what string, k string, v int, seq int);
    )"));
    // `spy` copies its bound table `seen` into audit.
    ASSERT_OK(db_.RegisterFunction("spy", [this](FunctionContext& ctx) {
      return CopyBound(ctx, "seen");
    }));
  }

  static Status CopyBound(FunctionContext& ctx, const std::string& name) {
    const TempTable* seen = ctx.BoundTable(name);
    if (seen == nullptr) return Status::NotFound("no bound table");
    for (size_t i = 0; i < seen->size(); ++i) {
      std::vector<Value> row = seen->MaterializeRow(i);
      std::string sql = "insert into audit values ('" +
                        row[0].as_string() + "', '" + row[1].as_string() +
                        "', " + row[2].ToString() + ", " +
                        row[3].ToString() + ")";
      STRIP_RETURN_IF_ERROR(ctx.Exec(sql).status());
    }
    return Status::OK();
  }

  ResultSet Audit() {
    auto rs = db_.Execute("select what, k, v, seq from audit order by seq");
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return rs.ok() ? rs.take() : ResultSet{};
  }

  Database db_;
};

TEST_F(RulesEngineTest, InsertEventBuildsInsertedTable) {
  ASSERT_OK(db_.Execute(R"(
    create rule r on t when inserted
    if select 'ins' as what, k, v, execute_order as seq from inserted
       bind as seen
    then execute spy
  )").status());
  ASSERT_OK(db_.Execute("insert into t values ('a', 1), ('b', 2)").status());
  db_.simulated()->RunUntilQuiescent();
  ResultSet a = Audit();
  ASSERT_EQ(a.num_rows(), 2u);
  EXPECT_EQ(a.rows[0][1], Value::Str("a"));
  EXPECT_EQ(a.rows[0][3], Value::Int(1));  // execute_order
  EXPECT_EQ(a.rows[1][3], Value::Int(2));
}

TEST_F(RulesEngineTest, DeleteEventBuildsDeletedTable) {
  ASSERT_OK(db_.Execute("insert into t values ('a', 1), ('b', 2)").status());
  ASSERT_OK(db_.Execute(R"(
    create rule r on t when deleted
    if select 'del' as what, k, v, execute_order as seq from deleted
       bind as seen
    then execute spy
  )").status());
  ASSERT_OK(db_.Execute("delete from t where k = 'a'").status());
  db_.simulated()->RunUntilQuiescent();
  ResultSet a = Audit();
  ASSERT_EQ(a.num_rows(), 1u);
  EXPECT_EQ(a.rows[0][0], Value::Str("del"));
  EXPECT_EQ(a.rows[0][1], Value::Str("a"));
}

TEST_F(RulesEngineTest, UpdatedColumnFilterSuppressesOtherColumns) {
  ASSERT_OK(db_.Execute("insert into t values ('a', 1)").status());
  ASSERT_OK(db_.Execute(R"(
    create rule r on t when updated v
    if select 'upd' as what, new.k as k, new.v as v,
              new.execute_order as seq from new
       bind as seen
    then execute spy
  )").status());
  // Update that does NOT change v: rule must not fire.
  ASSERT_OK(db_.Execute("update t set k = 'z' where k = 'a'").status());
  db_.simulated()->RunUntilQuiescent();
  EXPECT_EQ(Audit().num_rows(), 0u);
  // Update that changes v: fires.
  ASSERT_OK(db_.Execute("update t set v = 7 where k = 'z'").status());
  db_.simulated()->RunUntilQuiescent();
  ASSERT_EQ(Audit().num_rows(), 1u);
  EXPECT_EQ(Audit().rows[0][2], Value::Int(7));
}

TEST_F(RulesEngineTest, NoNetEffectReduction) {
  // A tuple inserted and deleted within one transaction appears in BOTH
  // transition tables (§2).
  ASSERT_OK(db_.Execute(R"(
    create rule r on t when inserted deleted
    if select 'ins' as what, k, v, execute_order as seq from inserted
         bind as seen,
       select 'del' as what, k, v, execute_order as seq from deleted
         bind as seen2
    then execute spy2
  )").status());
  ASSERT_OK(db_.RegisterFunction("spy2", [](FunctionContext& ctx) -> Status {
    STRIP_RETURN_IF_ERROR(CopyBound(ctx, "seen"));
    return CopyBound(ctx, "seen2");
  }));
  ASSERT_OK_AND_ASSIGN(Transaction * txn, db_.Begin());
  ASSERT_OK(db_.ExecuteInTxn(txn, "insert into t values ('x', 1)").status());
  ASSERT_OK(db_.ExecuteInTxn(txn, "delete from t where k = 'x'").status());
  ASSERT_OK(db_.Commit(txn));
  db_.simulated()->RunUntilQuiescent();
  ResultSet a = Audit();
  ASSERT_EQ(a.num_rows(), 2u);
  EXPECT_EQ(a.rows[0][0], Value::Str("ins"));
  EXPECT_EQ(a.rows[0][3], Value::Int(1));
  EXPECT_EQ(a.rows[1][0], Value::Str("del"));
  EXPECT_EQ(a.rows[1][3], Value::Int(2));
}

TEST_F(RulesEngineTest, ConditionFalseSuppressesAction) {
  ASSERT_OK(db_.Execute(R"(
    create rule r on t when inserted
    if select 'i' as what, k, v, execute_order as seq from inserted
         where v > 100
       bind as seen
    then execute spy
  )").status());
  ASSERT_OK(db_.Execute("insert into t values ('small', 5)").status());
  db_.simulated()->RunUntilQuiescent();
  EXPECT_EQ(Audit().num_rows(), 0u);
  EXPECT_EQ(db_.rules().stats().rules_triggered.load(), 1u);
  EXPECT_EQ(db_.rules().stats().conditions_true.load(), 0u);
  ASSERT_OK(db_.Execute("insert into t values ('big', 500)").status());
  db_.simulated()->RunUntilQuiescent();
  EXPECT_EQ(Audit().num_rows(), 1u);
}

TEST_F(RulesEngineTest, AllConditionQueriesMustReturnRows) {
  // Condition = conjunction: every query needs >= 1 row (§2).
  ASSERT_OK(db_.ExecuteScript("create table gate (open int)"));
  ASSERT_OK(db_.Execute(R"(
    create rule r on t when inserted
    if select 'i' as what, k, v, execute_order as seq from inserted
         bind as seen,
       select open from gate where open = 1
    then execute spy
  )").status());
  ASSERT_OK(db_.Execute("insert into t values ('a', 1)").status());
  db_.simulated()->RunUntilQuiescent();
  EXPECT_EQ(Audit().num_rows(), 0u);  // gate closed
  ASSERT_OK(db_.Execute("insert into gate values (1)").status());
  ASSERT_OK(db_.Execute("insert into t values ('b', 2)").status());
  db_.simulated()->RunUntilQuiescent();
  EXPECT_EQ(Audit().num_rows(), 1u);
}

TEST_F(RulesEngineTest, EvaluateClauseBindsExtraData) {
  // The evaluate clause passes data without affecting the condition (§2).
  ASSERT_OK(db_.ExecuteScript(
      "create table extra (k string, v int); "
      "insert into extra values ('e', 42)"));
  ASSERT_OK(db_.Execute(R"(
    create rule r on t when inserted
    then
      evaluate select 'x' as what, k, v, 0 as seq from extra bind as seen
      execute spy
  )").status());
  ASSERT_OK(db_.Execute("insert into t values ('a', 1)").status());
  db_.simulated()->RunUntilQuiescent();
  ResultSet a = Audit();
  ASSERT_EQ(a.num_rows(), 1u);
  EXPECT_EQ(a.rows[0][1], Value::Str("e"));
  EXPECT_EQ(a.rows[0][2], Value::Int(42));
}

TEST_F(RulesEngineTest, CommitTimePseudoColumn) {
  db_.simulated()->clock().AdvanceTo(SecondsToMicros(5));
  ASSERT_OK(db_.Execute(R"(
    create rule r on t when inserted
    if select 'ct' as what, k, v, commit_time as seq from inserted
       bind as seen
    then execute spy
  )").status());
  ASSERT_OK(db_.Execute("insert into t values ('a', 1)").status());
  db_.simulated()->RunUntilQuiescent();
  ResultSet a = Audit();
  ASSERT_EQ(a.num_rows(), 1u);
  EXPECT_EQ(a.rows[0][3], Value::Int(SecondsToMicros(5)));
}

TEST_F(RulesEngineTest, CascadingRules) {
  // The action's own transaction triggers further rules (its commit is
  // event-checked like any other).
  ASSERT_OK(db_.ExecuteScript("create table l2 (k string)"));
  ASSERT_OK(db_.RegisterFunction("promote", [](FunctionContext& ctx) {
    return ctx.Exec("insert into l2 values ('cascaded')").status();
  }));
  ASSERT_OK(db_.Execute(
      "create rule r1 on t when inserted then execute promote").status());
  ASSERT_OK(db_.Execute(R"(
    create rule r2 on l2 when inserted
    if select 'l2' as what, k, k as v, execute_order as seq from inserted
       bind as seen
    then execute spy_l2
  )").status());
  ASSERT_OK(db_.RegisterFunction("spy_l2", [](FunctionContext& ctx) -> Status {
    const TempTable* seen = ctx.BoundTable("seen");
    return ctx.Exec("insert into audit values ('l2', '" +
                    seen->Get(0, 1).as_string() + "', 0, 9)")
        .status();
  }));
  ASSERT_OK(db_.Execute("insert into t values ('a', 1)").status());
  db_.simulated()->RunUntilQuiescent();
  ResultSet a = Audit();
  ASSERT_EQ(a.num_rows(), 1u);
  EXPECT_EQ(a.rows[0][1], Value::Str("cascaded"));
}

TEST_F(RulesEngineTest, DeactivatedRuleDoesNotFire) {
  ASSERT_OK(db_.Execute(R"(
    create rule r on t when inserted
    if select 'i' as what, k, v, execute_order as seq from inserted
       bind as seen
    then execute spy
  )").status());
  ASSERT_OK(db_.rules().SetRuleEnabled("r", false));
  ASSERT_OK(db_.Execute("insert into t values ('a', 1)").status());
  db_.simulated()->RunUntilQuiescent();
  EXPECT_EQ(Audit().num_rows(), 0u);
  ASSERT_OK(db_.rules().SetRuleEnabled("r", true));
  ASSERT_OK(db_.Execute("insert into t values ('b', 2)").status());
  db_.simulated()->RunUntilQuiescent();
  EXPECT_EQ(Audit().num_rows(), 1u);
}

TEST_F(RulesEngineTest, DropRuleStopsFiring) {
  ASSERT_OK(db_.Execute(
      "create rule r on t when inserted then execute spy").status());
  ASSERT_OK(db_.Execute("drop rule r").status());
  EXPECT_EQ(db_.rules().FindRule("r"), nullptr);
  ASSERT_OK(db_.Execute("insert into t values ('a', 1)").status());
  db_.simulated()->RunUntilQuiescent();
  EXPECT_EQ(db_.rules().stats().rules_triggered.load(), 0u);
}

// --- validation ------------------------------------------------------------

TEST_F(RulesEngineTest, ValidationRejectsBadRules) {
  // Unknown table.
  EXPECT_EQ(db_.Execute("create rule r on nosuch when inserted "
                        "then execute f").status().code(),
            StatusCode::kNotFound);
  // Unknown updated column.
  EXPECT_EQ(db_.Execute("create rule r on t when updated nope "
                        "then execute f").status().code(),
            StatusCode::kNotFound);
  // Bound name colliding with a catalog table (§2: names chosen for bound
  // tables should not be used elsewhere).
  EXPECT_EQ(db_.Execute("create rule r on t when inserted "
                        "if select k from inserted bind as audit "
                        "then execute f").status().code(),
            StatusCode::kAlreadyExists);
  // Reserved transition-table name as bind target.
  EXPECT_EQ(db_.Execute("create rule r on t when inserted "
                        "if select k from inserted bind as new "
                        "then execute f").status().code(),
            StatusCode::kInvalidArgument);
  // unique on without any bound table.
  EXPECT_EQ(db_.Execute("create rule r on t when inserted "
                        "then execute f unique on k after 1 seconds")
                .status().code(),
            StatusCode::kInvalidArgument);
  // unique column not produced by any bound query.
  EXPECT_EQ(db_.Execute("create rule r on t when inserted "
                        "if select k from inserted bind as b "
                        "then execute f unique on zzz after 1 seconds")
                .status().code(),
            StatusCode::kNotFound);
  // Duplicate rule name.
  ASSERT_OK(db_.Execute(
      "create rule dup on t when inserted then execute spy").status());
  EXPECT_EQ(db_.Execute(
                "create rule dup on t when inserted then execute spy")
                .status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(RulesEngineTest, SharedFunctionRequiresIdenticalBindings) {
  // Two rules executing the same function must define their bound tables
  // identically (§2).
  ASSERT_OK(db_.Execute(R"(
    create rule r1 on t when inserted
    if select k, v from inserted bind as b
    then execute shared unique after 1 seconds
  )").status());
  // Identical definition: accepted.
  ASSERT_OK(db_.Execute(R"(
    create rule r2 on t when deleted
    if select k, v from inserted bind as b
    then execute shared unique after 1 seconds
  )").status());
  // Different definition of `b`: rejected.
  EXPECT_EQ(db_.Execute(R"(
    create rule r3 on t when updated
    if select k from inserted bind as b
    then execute shared unique after 1 seconds
  )").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RulesEngineTest, TwoRulesSameFunctionShareUniqueTask) {
  // Firings of DIFFERENT rules executing the same function batch into the
  // same queued transaction (§2).
  ASSERT_OK(db_.ExecuteScript("create table t2 (k string, v int)"));
  ASSERT_OK(db_.RegisterFunction("shared_spy", [](FunctionContext& ctx) {
    return CopyBound(ctx, "seen");
  }));
  const char* kRule = R"(
    create rule %s on %s when inserted
    if select '%s' as what, k, v, execute_order as seq from inserted
       bind as seen
    then execute shared_spy unique after 1 seconds
  )";
  char buf[512];
  std::snprintf(buf, sizeof(buf), kRule, "ra", "t", "x");
  ASSERT_OK(db_.Execute(buf).status());
  // A different defining query for `seen` is rejected (§2)...
  std::snprintf(buf, sizeof(buf), kRule, "rbad", "t2", "DIFFERENT");
  EXPECT_EQ(db_.Execute(buf).status().code(), StatusCode::kInvalidArgument);
  // ...an identical one is accepted, and firings of BOTH rules merge into
  // one queued unique transaction.
  std::snprintf(buf, sizeof(buf), kRule, "rb", "t2", "x");
  ASSERT_OK(db_.Execute(buf).status());
  ASSERT_OK(db_.Execute("insert into t values ('a', 1)").status());
  ASSERT_OK(db_.Execute("insert into t2 values ('b', 2)").status());
  db_.simulated()->RunUntilQuiescent();
  EXPECT_EQ(db_.rules().stats().tasks_created.load(), 1u);
  EXPECT_EQ(db_.rules().stats().firings_merged.load(), 1u);
  ResultSet a = Audit();
  ASSERT_EQ(a.num_rows(), 2u);  // both firings' rows in one batch
}

TEST_F(RulesEngineTest, SelectStarOverTransitionTable) {
  // `select * from inserted` binds the entire transition table (the
  // paper's `foo` example in §2) — including execute_order.
  ASSERT_OK(db_.Execute(R"(
    create rule foo on t when inserted
    then evaluate select * from inserted bind as my_inserted
    execute my_function
  )").status());
  ASSERT_OK(db_.RegisterFunction("my_function", [](FunctionContext& ctx)
                                     -> Status {
    const TempTable* mine = ctx.BoundTable("my_inserted");
    if (mine == nullptr) return Status::NotFound("missing");
    if (mine->schema().FindColumn("execute_order") < 0) {
      return Status::Internal("no execute_order");
    }
    return ctx.Exec("insert into audit values ('star', 'x', " +
                    std::to_string(mine->size()) + ", 1)")
        .status();
  }));
  ASSERT_OK(db_.Execute("insert into t values ('a', 1), ('b', 2)").status());
  db_.simulated()->RunUntilQuiescent();
  ResultSet a = Audit();
  ASSERT_EQ(a.num_rows(), 1u);
  EXPECT_EQ(a.rows[0][2], Value::Int(2));
}

TEST_F(RulesEngineTest, FailedCommitLeavesNoOrphanedUniqueTask) {
  // A commit whose later rule fails must not leave an earlier rule's
  // unique task registered: nothing would ever submit it, every later
  // firing for its key would merge into it, and the key's action would
  // never run again.
  ASSERT_OK(db_.ExecuteScript("create table x (k string)"));
  ASSERT_OK(db_.RegisterFunction(
      "noop", [](FunctionContext&) { return Status::OK(); }));
  ASSERT_OK(db_.Execute(R"(
    create rule ra on t when inserted
    if select 'ra' as what, k, v, execute_order as seq from inserted
       bind as seen
    then execute spy unique on k after 1 seconds
  )").status());
  ASSERT_OK(db_.Execute(R"(
    create rule rb on t when inserted
    if select k from x
    then execute noop
  )").status());
  ASSERT_OK(db_.ExecuteScript("drop table x"));
  EXPECT_EQ(db_.Execute("insert into t values ('a', 1)").status().code(),
            StatusCode::kNotFound);
  ASSERT_OK(db_.ExecuteScript("create table x (k string)"));
  ASSERT_OK(db_.Execute("insert into t values ('a', 2)").status());
  db_.simulated()->RunUntilQuiescent();

  ResultSet a = Audit();
  ASSERT_EQ(a.num_rows(), 1u);
  EXPECT_EQ(a.rows[0][1], Value::Str("a"));
  EXPECT_EQ(a.rows[0][2], Value::Int(2));
  EXPECT_EQ(db_.rules().stats().firings_merged.load(), 0u);
  EXPECT_EQ(db_.rules().unique_manager().NumQueued("spy"), 0u);
}

TEST_F(RulesEngineTest, ConditionOnMissingTableFailsUntilItExists) {
  // The rule's plans are rebuilt per catalog generation, and a build error
  // is kept: every commit fails with it until DDL brings the table back.
  ASSERT_OK(db_.ExecuteScript("create table x (k string)"));
  ASSERT_OK(db_.Execute(R"(
    create rule r on t when inserted
    if select 'r' as what, inserted.k as k, inserted.v as v,
              execute_order as seq
       from inserted, x where inserted.k = x.k
       bind as seen
    then execute spy
  )").status());
  ASSERT_OK(db_.ExecuteScript("drop table x"));
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(db_.Execute("insert into t values ('a', 1)").status().code(),
              StatusCode::kNotFound);
  }
  ASSERT_OK(db_.ExecuteScript(R"(
    create table x (k string);
    insert into x values ('a');
  )"));
  ASSERT_OK(db_.Execute("insert into t values ('a', 2)").status());
  db_.simulated()->RunUntilQuiescent();
  ResultSet a = Audit();
  ASSERT_EQ(a.num_rows(), 1u);  // the failed commits left nothing behind
  EXPECT_EQ(a.rows[0][2], Value::Int(2));
  EXPECT_EQ(db_.rules().stats().conditions_true.load(), 1u);
}

TEST_F(RulesEngineTest, MultiColumnUniqueOnSpansTwoBoundTables) {
  // `unique on a, b` with a in one bound table and b in another: each
  // firing is split over the cross product of their groups (Appendix A),
  // and a later firing for one of those keys merges into its task.
  std::vector<std::string> ran;  // per task: key, then rows per table
  ASSERT_OK(db_.RegisterFunction("pair_fn", [&](FunctionContext& ctx) {
    std::string line;
    for (const Value& v : ctx.task().unique_key) line += v.ToString() + ",";
    line += std::to_string(ctx.BoundTable("lhs")->size()) + "/" +
            std::to_string(ctx.BoundTable("rhs")->size());
    ran.push_back(line);
    return Status::OK();
  }));
  ASSERT_OK(db_.Execute(R"(
    create rule r on t when inserted
    if select k as a, v as av from inserted bind as lhs
    then evaluate select k as b, v as bv from inserted bind as rhs
    execute pair_fn unique on a, b after 1 seconds
  )").status());
  ASSERT_OK(db_.Execute("insert into t values ('x', 1), ('y', 2)").status());
  ASSERT_OK(db_.Execute("insert into t values ('x', 3)").status());
  db_.simulated()->RunUntilQuiescent();
  EXPECT_EQ(db_.rules().stats().tasks_created.load(), 4u);
  EXPECT_EQ(db_.rules().stats().firings_merged.load(), 1u);
  // One task per (a, b) pair; (x, x) also took the second firing's rows.
  std::sort(ran.begin(), ran.end());
  EXPECT_EQ(ran, (std::vector<std::string>{"x,x,2/2", "x,y,1/1", "y,x,1/1",
                                           "y,y,1/1"}));
}

TEST_F(RulesEngineTest, UniquePathFollowsPlanRebuildsAfterDdl) {
  // The unique path is resolved per plan generation. DDL that reshapes a
  // bound `select *` query must never let a firing merge into a task
  // queued under the old layout, and a unique column the new shape puts
  // in no bound table, or in two, fails the firing as it always did —
  // but only a firing: a commit whose condition is false still succeeds.
  ASSERT_OK(db_.RegisterFunction(
      "uf", [](FunctionContext&) { return Status::OK(); }));
  ASSERT_OK(db_.ExecuteScript(R"(
    create table m1 (k string, x int);
    create table m2 (y int);
    insert into m1 values ('a', 1);
    insert into m2 values (7);
  )"));
  ASSERT_OK(db_.Execute(R"(
    create rule r on t when inserted
    if select * from m1 bind as b1
    then evaluate select * from m2 bind as b2
    execute uf unique on k after 1 seconds
  )").status());
  ASSERT_OK(db_.Execute("insert into t values ('a', 1)").status());
  ASSERT_EQ(db_.rules().unique_manager().NumQueued("uf"), 1u);
  ASSERT_OK(db_.ExecuteScript(R"(
    drop table m2;
    create table m2 (y int, z int);
    insert into m2 values (7, 8);
  )"));
  // Key 'a' is queued with a one-column b2: the reshaped firing fails its
  // merge check and leaves the queued task alone.
  EXPECT_EQ(db_.Execute("insert into t values ('a', 2)").status().code(),
            StatusCode::kInternal);
  EXPECT_EQ(db_.rules().stats().firings_merged.load(), 0u);
  db_.simulated()->RunUntilQuiescent();
  ASSERT_OK(db_.Execute("insert into t values ('a', 3)").status());
  db_.simulated()->RunUntilQuiescent();
  EXPECT_EQ(db_.rules().stats().tasks_created.load(), 2u);

  // k in both bound tables.
  ASSERT_OK(db_.ExecuteScript(R"(
    drop table m2;
    create table m2 (k string);
    insert into m2 values ('b');
  )"));
  EXPECT_EQ(db_.Execute("insert into t values ('a', 4)").status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_OK(db_.Execute("delete from m1").status());
  ASSERT_OK(db_.Execute("insert into t values ('a', 5)").status());

  // k in neither.
  ASSERT_OK(db_.ExecuteScript(R"(
    drop table m1;
    create table m1 (j string, x int);
    insert into m1 values ('a', 1);
    drop table m2;
    create table m2 (y int);
  )"));
  EXPECT_EQ(db_.Execute("insert into t values ('a', 6)").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.rules().stats().tasks_created.load(), 2u);
  EXPECT_EQ(db_.rules().unique_manager().NumQueued("uf"), 0u);
}

}  // namespace
}  // namespace strip
