// Database facade behaviors not covered elsewhere: auto-transaction
// statement execution, error paths, rule failures aborting the triggering
// commit, rules on dropped tables, scheduling-policy options, script
// semantics, function registries.

#include <gtest/gtest.h>

#include "strip/engine/database.h"
#include "tests/test_util.h"

namespace strip {
namespace {

TEST(DatabaseMiscTest, ExecuteAutoAbortsFailedStatement) {
  Database db;
  ASSERT_OK(db.ExecuteScript(
      "create table t (v int); insert into t values (1)"));
  // Division by zero mid-update: the statement fails and its transaction
  // rolls back, leaving the table untouched.
  auto r = db.Execute("update t set v = 1 / (v - 1)");
  EXPECT_FALSE(r.ok());
  auto rs = db.Execute("select v from t");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs->rows[0][0], Value::Int(1));
}

TEST(DatabaseMiscTest, ExecuteScriptStopsAtFirstError) {
  Database db;
  Status st = db.ExecuteScript(R"(
    create table a (v int);
    create table a (v int);
    create table b (v int);
  )");
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(db.catalog().FindTable("a"), nullptr);
  EXPECT_EQ(db.catalog().FindTable("b"), nullptr);  // never reached
}

TEST(DatabaseMiscTest, RuleConditionErrorAbortsTriggeringTransaction) {
  // A rule whose condition query is broken (references a dropped table)
  // must fail the commit and roll the update back — conditions run inside
  // the triggering transaction (§2).
  Database::Options o;
  o.advance_clock_by_cost = false;
  Database db(o);
  ASSERT_OK(db.ExecuteScript(R"(
    create table t (v int);
    create table helper (x int);
    insert into t values (1);
  )"));
  ASSERT_OK(db.RegisterFunction("noop", [](FunctionContext&) {
    return Status::OK();
  }));
  ASSERT_OK(db.Execute(R"(
    create rule r on t when updated
    if select x from helper
    then execute noop
  )").status());
  ASSERT_OK(db.Execute("drop table helper").status());
  auto r = db.Execute("update t set v = 2");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  auto rs = db.Execute("select v from t");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs->rows[0][0], Value::Int(1));  // rolled back
}

TEST(DatabaseMiscTest, RuleOnDroppedTableIsSkipped) {
  Database::Options o;
  o.advance_clock_by_cost = false;
  Database db(o);
  ASSERT_OK(db.ExecuteScript(
      "create table t (v int); create table other (v int)"));
  ASSERT_OK(db.RegisterFunction("noop", [](FunctionContext&) {
    return Status::OK();
  }));
  ASSERT_OK(db.Execute(
      "create rule r on t when inserted then execute noop").status());
  ASSERT_OK(db.Execute("drop table t").status());
  // Commits against other tables still work; the orphaned rule is inert.
  ASSERT_OK(db.Execute("insert into other values (1)").status());
  db.simulated()->RunUntilQuiescent();
  EXPECT_EQ(db.rules().stats().tasks_created.load(), 0u);
}

TEST(DatabaseMiscTest, FailingActionCountsAsFailedTask) {
  Database::Options o;
  o.advance_clock_by_cost = false;
  Database db(o);
  ASSERT_OK(db.ExecuteScript("create table t (v int)"));
  ASSERT_OK(db.RegisterFunction("boom", [](FunctionContext&) {
    return Status::Internal("action failed");
  }));
  ASSERT_OK(db.Execute(
      "create rule r on t when inserted then execute boom").status());
  ASSERT_OK(db.Execute("insert into t values (1)").status());
  db.simulated()->RunUntilQuiescent();
  EXPECT_EQ(db.executor().stats().tasks_failed.load(), 1u);
}

TEST(DatabaseMiscTest, UnknownActionFunctionFailsAtRunTimeNotCommit) {
  // Rules are validated structurally at creation; functions are black
  // boxes linked in separately, so a missing one surfaces when the task
  // runs (§2).
  Database::Options o;
  o.advance_clock_by_cost = false;
  Database db(o);
  ASSERT_OK(db.ExecuteScript("create table t (v int)"));
  ASSERT_OK(db.Execute(
      "create rule r on t when inserted then execute ghost").status());
  ASSERT_OK(db.Execute("insert into t values (1)").status());
  db.simulated()->RunUntilQuiescent();
  EXPECT_EQ(db.executor().stats().tasks_failed.load(), 1u);
}

TEST(DatabaseMiscTest, DuplicateRegistrationsRejected) {
  Database db;
  ASSERT_OK(db.RegisterFunction("f", [](FunctionContext&) {
    return Status::OK();
  }));
  EXPECT_EQ(db.RegisterFunction("F", [](FunctionContext&) {
              return Status::OK();
            }).code(),
            StatusCode::kAlreadyExists);
  ASSERT_OK(db.RegisterScalarFunction(
      "g", [](const std::vector<Value>&) -> Result<Value> {
        return Value::Int(1);
      }));
  EXPECT_EQ(db.RegisterScalarFunction(
                  "g", [](const std::vector<Value>&) -> Result<Value> {
                    return Value::Int(2);
                  })
                .code(),
            StatusCode::kAlreadyExists);
  // Registered scalar functions are reachable from SQL immediately.
  ASSERT_OK(db.ExecuteScript("create table t (v int); "
                             "insert into t values (5)"));
  auto rs = db.Execute("select g() + v as x from t");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs->rows[0][0], Value::Int(6));
}

TEST(DatabaseMiscTest, ValueDensityPolicyOrdersApplicationTasks) {
  Database::Options o;
  o.policy = SchedulingPolicy::kValueDensityFirst;
  o.advance_clock_by_cost = false;
  Database db(o);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    TaskPtr t = db.NewTask();
    t->release_time = 100;  // all release together
    t->value = static_cast<double>(i);
    t->work = [&order, i](TaskControlBlock&) {
      order.push_back(i);
      return Status::OK();
    };
    db.Submit(t);
  }
  db.simulated()->RunUntilQuiescent();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2);  // highest value first
  EXPECT_EQ(order[2], 0);
}

TEST(DatabaseMiscTest, ResultSetToStringFormatsHeaderAndRows) {
  Database db;
  ASSERT_OK(db.ExecuteScript("create table t (a int, b string); "
                             "insert into t values (1, 'x')"));
  auto rs = db.Execute("select a, b from t");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs->ToString(), "a\tb\n1\tx\n");
}

TEST(DatabaseMiscTest, NowAdvancesWithVirtualClock) {
  Database::Options o;
  o.advance_clock_by_cost = false;
  Database db(o);
  EXPECT_EQ(db.Now(), 0);
  db.simulated()->RunUntil(SecondsToMicros(3));
  EXPECT_EQ(db.Now(), SecondsToMicros(3));
}

}  // namespace
}  // namespace strip
