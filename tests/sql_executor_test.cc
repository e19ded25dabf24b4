// SQL executor tests beyond the basics: join strategies and their
// equivalence (property-swept over index configurations), multi-way joins,
// bound-table resolution order, pointer-backed output layouts, prepared
// parameters, and DML through indexes.

#include <gtest/gtest.h>

#include "strip/engine/database.h"
#include "strip/sql/executor.h"
#include "strip/sql/parser.h"
#include "tests/test_util.h"

namespace strip {
namespace {

class SqlExecutorTest : public ::testing::Test {
 protected:
  ResultSet MustQuery(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? r.take() : ResultSet{};
  }

  Database db_;
};

TEST_F(SqlExecutorTest, ThreeWayJoin) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table a (k string, x int);
    create table b (k string, j string);
    create table c (j string, y int);
    insert into a values ('k1', 1), ('k2', 2);
    insert into b values ('k1', 'j1'), ('k2', 'j2'), ('k1', 'j2');
    insert into c values ('j1', 10), ('j2', 20);
  )"));
  ResultSet rs = MustQuery(
      "select a.k, x, y from a, b, c "
      "where a.k = b.k and b.j = c.j order by x, y");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.rows[0][1], Value::Int(1));
  EXPECT_EQ(rs.rows[0][2], Value::Int(10));
  EXPECT_EQ(rs.rows[1][2], Value::Int(20));  // k1-j2 path
  EXPECT_EQ(rs.rows[2][1], Value::Int(2));
}

TEST_F(SqlExecutorTest, CrossJoinWhenNoPredicate) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table l (x int); create table r (y int);
    insert into l values (1), (2);
    insert into r values (10), (20), (30);
  )"));
  ResultSet rs = MustQuery("select x, y from l, r");
  EXPECT_EQ(rs.num_rows(), 6u);
}

TEST_F(SqlExecutorTest, NonEquiJoinPredicate) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table l (x int); create table r (y int);
    insert into l values (1), (2), (3);
    insert into r values (2), (3);
  )"));
  ResultSet rs = MustQuery("select x, y from l, r where x < y order by x, y");
  // (1,2) (1,3) (2,3)
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.rows[2][0], Value::Int(2));
}

TEST_F(SqlExecutorTest, SelfJoinViaAliases) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (id int, parent int);
    insert into t values (1, 0), (2, 1), (3, 1);
  )"));
  ResultSet rs = MustQuery(
      "select c.id, p.id from t c, t p where c.parent = p.id order by c.id");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(2));
  EXPECT_EQ(rs.rows[0][1], Value::Int(1));
}

TEST_F(SqlExecutorTest, ExpressionJoinKeys) {
  // Equi-join where one side is an expression, not a bare column.
  ASSERT_OK(db_.ExecuteScript(R"(
    create table l (x int); create table r (y int);
    insert into l values (1), (2), (3);
    insert into r values (2), (4);
  )"));
  ResultSet rs = MustQuery("select x, y from l, r where x * 2 = y order by x");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(1));
  EXPECT_EQ(rs.rows[1][0], Value::Int(2));
}

/// Property sweep: the same join must produce identical results whatever
/// indexes exist (index-nested-loop vs hash join vs scans).
class JoinEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinEquivalenceTest, IndexConfigurationDoesNotChangeResults) {
  int config = GetParam();
  Database db;
  ASSERT_OK(db.ExecuteScript(R"(
    create table f (k string, v int);
    create table d (k string, w int);
  )"));
  // Deterministic pseudo-random content with duplicates and dangling keys.
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(db.Execute("insert into f values ('k" +
                         std::to_string(i % 7) + "', " + std::to_string(i) +
                         ")")
                  .status());
  }
  for (int i = 0; i < 25; ++i) {
    ASSERT_OK(db.Execute("insert into d values ('k" +
                         std::to_string(i % 9) + "', " +
                         std::to_string(100 + i) + ")")
                  .status());
  }
  if (config & 1) ASSERT_OK(db.Execute("create index on f (k)").status());
  if (config & 2) ASSERT_OK(db.Execute("create index on d (k)").status());
  if (config & 4) {
    ASSERT_OK(
        db.Execute("create index on f (v) using tree").status());
  }
  auto rs = db.Execute(
      "select f.k, v, w from f, d where f.k = d.k and v > 10 "
      "order by v, w");
  ASSERT_OK(rs.status());
  // Golden counts computed by hand: f rows with v>10 are 29 (v=11..39);
  // keys k0..k6 cycle; d has keys k0..k8 with 25 rows: k0..k6 have 3 rows
  // each except k7,k8 (2). Every f key matches 3 d rows.
  EXPECT_EQ(rs->num_rows(), 29u * 3u);
  // Cross-check against an unindexed reference database.
  static std::string reference;
  std::string flat = rs->ToString();
  if (config == 0) {
    reference = flat;
  } else if (!reference.empty()) {
    EXPECT_EQ(flat, reference) << "config " << config;
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, JoinEquivalenceTest,
                         ::testing::Range(0, 8));

TEST_F(SqlExecutorTest, UpdateThroughIndexMatchesScan) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table a (k string, v int);
    create table b (k string, v int);
    create index on a (k);
  )"));
  for (int i = 0; i < 20; ++i) {
    std::string row = "('k" + std::to_string(i % 5) + "', " +
                      std::to_string(i) + ")";
    ASSERT_OK(db_.Execute("insert into a values " + row).status());
    ASSERT_OK(db_.Execute("insert into b values " + row).status());
  }
  ResultSet ra = MustQuery("update a set v += 100 where k = 'k3' and v < 10");
  ResultSet rb = MustQuery("update b set v += 100 where k = 'k3' and v < 10");
  EXPECT_EQ(ra.rows[0][0], rb.rows[0][0]);  // same rows affected
  EXPECT_EQ(MustQuery("select v from a order by v").ToString(),
            MustQuery("select v from b order by v").ToString());
}

TEST_F(SqlExecutorTest, DeleteThroughIndex) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (k string, v int);
    create index on t (k);
    insert into t values ('a', 1), ('b', 2), ('a', 3);
  )"));
  ResultSet rs = MustQuery("delete from t where k = 'a'");
  EXPECT_EQ(rs.rows[0][0], Value::Int(2));
  EXPECT_EQ(MustQuery("select count(*) as n from t").rows[0][0],
            Value::Int(1));
  // Index reflects the deletes.
  EXPECT_EQ(MustQuery("select count(*) as n from t where k = 'a'").rows[0][0],
            Value::Int(0));
}

TEST_F(SqlExecutorTest, PreparedStatementWithParameters) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (k string, v double);
    create index on t (k);
    insert into t values ('a', 1.0), ('b', 2.0);
  )"));
  ASSERT_OK_AND_ASSIGN(
      Statement stmt,
      Parser::ParseStatement("update t set v += ? where k = ?"));
  ASSERT_OK_AND_ASSIGN(Transaction * txn, db_.Begin());
  ASSERT_OK_AND_ASSIGN(
      int n, db_.ExecuteDml(txn, stmt, {Value::Double(5), Value::Str("a")}));
  EXPECT_EQ(n, 1);
  ASSERT_OK_AND_ASSIGN(
      n, db_.ExecuteDml(txn, stmt, {Value::Double(7), Value::Str("b")}));
  EXPECT_EQ(n, 1);
  ASSERT_OK(db_.Commit(txn));
  EXPECT_DOUBLE_EQ(
      MustQuery("select v from t where k = 'a'").rows[0][0].as_double(), 6.0);
  EXPECT_DOUBLE_EQ(
      MustQuery("select v from t where k = 'b'").rows[0][0].as_double(), 9.0);
}

TEST_F(SqlExecutorTest, SelectWithParameterInWhere) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (k string, v int);
    insert into t values ('a', 1), ('b', 2);
  )"));
  ASSERT_OK_AND_ASSIGN(Statement stmt,
                       Parser::ParseStatement("select v from t where k = ?"));
  ASSERT_OK_AND_ASSIGN(Transaction * txn, db_.Begin());
  std::vector<Value> params = {Value::Str("b")};
  ASSERT_OK_AND_ASSIGN(
      TempTable result,
      db_.Query(txn, std::get<SelectStmt>(stmt), nullptr, &params));
  ASSERT_OK(db_.Commit(txn));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.Get(0, 0), Value::Int(2));
}

TEST_F(SqlExecutorTest, OrderByOutputAliasOfExpression) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (a int, b int);
    insert into t values (1, 9), (2, 1), (3, 5);
  )"));
  ResultSet rs = MustQuery("select a, a + b as s from t order by s");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(2));  // s=3
  EXPECT_EQ(rs.rows[1][0], Value::Int(3));  // s=8
  EXPECT_EQ(rs.rows[2][0], Value::Int(1));  // s=10
}

TEST_F(SqlExecutorTest, GroupByExpression) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (g int, v int);
    insert into t values (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6);
  )"));
  // Group by parity (an expression, not a bare column).
  ResultSet rs = MustQuery(
      "select g - 2 * floor(g / 2) as parity, sum(v) as s from t "
      "group by g - 2 * floor(g / 2) order by parity");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(rs.rows[0][1].as_double(), 12.0);  // evens 2+4+6
  EXPECT_DOUBLE_EQ(rs.rows[1][1].as_double(), 9.0);   // odds 1+3+5
}

TEST_F(SqlExecutorTest, AggregateInsideExpression) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (g string, v double);
    insert into t values ('a', 2.0), ('a', 4.0), ('b', 10.0);
  )"));
  ResultSet rs = MustQuery(
      "select g, sum(v) / count(*) as mean, 2 * sum(v) as twice from t "
      "group by g order by g");
  EXPECT_DOUBLE_EQ(rs.rows[0][1].as_double(), 3.0);
  EXPECT_DOUBLE_EQ(rs.rows[0][2].as_double(), 12.0);
  EXPECT_DOUBLE_EQ(rs.rows[1][1].as_double(), 10.0);
}

TEST_F(SqlExecutorTest, DuplicateRowsPreserved) {
  // No implicit DISTINCT anywhere.
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (v int);
    insert into t values (1), (1), (1);
  )"));
  EXPECT_EQ(MustQuery("select v from t").num_rows(), 3u);
}

// Errors with a fixed expected status. Each runs through the plan cache
// (Execute(sql)) and through per-call planning (Execute(Statement)).

/// The statuses of `sql` through both entry points (they must agree).
StatusCode RunBoth(Database& db, const std::string& sql, int* rows = nullptr) {
  auto cached = db.Execute(sql);
  auto stmt = Parser::ParseStatement(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto planned = db.Execute(*stmt);
  EXPECT_EQ(cached.status().code(), planned.status().code()) << sql;
  if (rows != nullptr && cached.ok()) {
    *rows = static_cast<int>(cached->rows[0][0].as_int());
  }
  return cached.status().code();
}

TEST(SqlErrorsTest, DivisionByZeroIsInvalidArgument) {
  Database db;
  ASSERT_OK(db.ExecuteScript("create table t (k string, v int)"));
  // Errors are raised per evaluated row: an empty table raises none.
  EXPECT_EQ(RunBoth(db, "select 1 / 0 from t"), StatusCode::kOk);
  ASSERT_OK(db.Execute("insert into t values ('a', 0)").status());
  EXPECT_EQ(RunBoth(db, "select 1 / 0 from t"), StatusCode::kInvalidArgument);
  EXPECT_EQ(RunBoth(db, "select 2.5 / v from t"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunBoth(db, "update t set v = 1 / v"),
            StatusCode::kInvalidArgument);
}

TEST(SqlErrorsTest, UnknownColumnInDmlIsALazyError) {
  Database db;
  ASSERT_OK(db.ExecuteScript("create table t (k string, v int)"));
  int rows = -1;
  EXPECT_EQ(RunBoth(db, "update t set v = 1 where bogus = 1", &rows),
            StatusCode::kOk);
  EXPECT_EQ(rows, 0);
  EXPECT_EQ(RunBoth(db, "delete from t where bogus = 1", &rows),
            StatusCode::kOk);
  EXPECT_EQ(rows, 0);
  ASSERT_OK(db.Execute("insert into t values ('a', 1)").status());
  EXPECT_EQ(RunBoth(db, "update t set v = 1 where bogus = 1"),
            StatusCode::kNotFound);
  EXPECT_EQ(RunBoth(db, "delete from t where bogus = 1"),
            StatusCode::kNotFound);
  // Behind a short-circuited operand the bad reference never runs.
  EXPECT_EQ(RunBoth(db, "update t set v = 2 where v = 0 and bogus = 1", &rows),
            StatusCode::kOk);
  EXPECT_EQ(rows, 0);
  // A SELECT resolves its columns when it binds, so it fails even here.
  EXPECT_EQ(RunBoth(db, "select k from t where v = 0 and bogus = 1"),
            StatusCode::kNotFound);
}

TEST(SqlErrorsTest, EmptyGlobalGroupReadsNullColumns) {
  Database db;
  ASSERT_OK(db.ExecuteScript(
      "create table t (k string, v int); insert into t values ('a', 1);"));
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       db.Execute("select max(v), k from t where v > 100"));
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_TRUE(rs.rows[0][0].is_null());
  EXPECT_TRUE(rs.rows[0][1].is_null());
  ASSERT_OK_AND_ASSIGN(
      rs, db.Execute("select count(*), v + 1 from t where v > 100"));
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(0));
  EXPECT_TRUE(rs.rows[0][1].is_null());
}

// ---------------------------------------------------------------------------
// Join-pipeline edge cases: shapes the PTA rule conditions never reach.
// Join rows hold references (a table row per standard input, a tuple per
// temp input); these pin what reading through them must give.
// ---------------------------------------------------------------------------

/// A temp table of (k, v) rows, k pointer-backed through its own records
/// and v materialized, like a rule's bound table.
TempTable KeyedTemp(const std::string& name,
                    const std::vector<std::pair<Value, int64_t>>& rows) {
  Schema s;
  s.AddColumn("k", ValueType::kString);
  s.AddColumn("v", ValueType::kInt);
  TempTable t(name, s,
              {TempColumnMap{0, 0},
               TempColumnMap{TempColumnMap::kMaterializedSlot, 0}},
              /*num_slots=*/1, /*num_extra=*/1);
  for (const auto& [k, v] : rows) {
    t.Append(TempTuple{{MakeRecord({k})}, {Value::Int(v)}});
  }
  return t;
}

/// Plans `sql` with `temps` bound by position as temp inputs named after
/// them, then executes it once.
Result<TempTable> RunOverTemps(Database& db, const std::string& sql,
                               const std::vector<const TempTable*>& temps) {
  STRIP_ASSIGN_OR_RETURN(Statement stmt, Parser::ParseStatement(sql));
  std::vector<SelectPlan::TempSource> sources;
  for (const TempTable* t : temps) {
    sources.push_back(SelectPlan::TempSource{t->name(), &t->schema()});
  }
  const SelectStmt& select = std::get<SelectStmt>(stmt);
  STRIP_ASSIGN_OR_RETURN(
      SelectPlan plan,
      SelectPlan::Build(select, &db.catalog(), sources, nullptr, nullptr));
  ExecContext ctx;
  ctx.catalog = &db.catalog();
  SqlExecutor executor(ctx);
  return executor.Execute(plan, temps, "_result");
}

TEST(JoinPipelineTest, TwoTempInputsNeverJoinOnNullKeys) {
  Database db;
  TempTable a = KeyedTemp(
      "a", {{Value::Str("x"), 1}, {Value::Null(), 2}, {Value::Str("y"), 3}});
  TempTable b = KeyedTemp(
      "b", {{Value::Null(), 10}, {Value::Str("x"), 20}, {Value::Str("x"), 30}});
  ASSERT_OK_AND_ASSIGN(
      TempTable out,
      RunOverTemps(db,
                   "select a.k, a.v, b.v as w from a, b where a.k = b.k "
                   "order by w",
                   {&a, &b}));
  // Temp columns are materialized in the output, read through each
  // table's column map: the pointer-backed k as well as v.
  EXPECT_EQ(out.num_slots(), 0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.MaterializeRow(0),
            (std::vector<Value>{Value::Str("x"), Value::Int(1),
                                Value::Int(20)}));
  EXPECT_EQ(out.MaterializeRow(1),
            (std::vector<Value>{Value::Str("x"), Value::Int(1),
                                Value::Int(30)}));
}

TEST(JoinPipelineTest, CrossJoinOfTempAndTableWithResidualFilter) {
  Database db;
  ASSERT_OK(db.ExecuteScript(R"(
    create table t (n int);
    insert into t values (1), (2), (3);
  )"));
  TempTable a = KeyedTemp("a", {{Value::Str("p"), 10}, {Value::Str("q"), 20}});
  ASSERT_OK_AND_ASSIGN(
      TempTable out,
      RunOverTemps(db, "select k, n from a, t where v + n > 12 order by k, n",
                   {&a}));
  // (p,3) (q,1) (q,2) (q,3)
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.MaterializeRow(0),
            (std::vector<Value>{Value::Str("p"), Value::Int(3)}));
  EXPECT_EQ(out.MaterializeRow(3),
            (std::vector<Value>{Value::Str("q"), Value::Int(3)}));
  // n is a pointer column: it points into t's records.
  EXPECT_EQ(out.num_slots(), 1);
  ASSERT_OK_AND_ASSIGN(ResultSet cross,
                       db.Execute("select t.n, m.n from t, t m"));
  EXPECT_EQ(cross.num_rows(), 9u);
}

TEST_F(SqlExecutorTest, IndexProbeAppliesPushedDownFilters) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table l (k string, x int);
    create table r (k string, v int);
    create index on r (k);
    insert into l values ('a', 1), ('b', 2);
    insert into r values ('a', 1), ('a', 5), ('b', 7), ('a', 9);
  )"));
  // `col = const` probe plus a filter on the probed rows.
  ResultSet rs = MustQuery("select v from r where k = 'a' and v > 1 "
                           "order by v");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(5));
  EXPECT_EQ(rs.rows[1][0], Value::Int(9));
  // Index-nested-loop into r with r's own filter and a residual conjunct.
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> plan,
                       db_.Explain("select l.k, v from l, r "
                                   "where l.k = r.k and v < 9 and v > x"));
  bool inl = false;
  for (const std::string& line : plan) {
    inl |= line.find("index-nested-loop join r") != std::string::npos;
  }
  EXPECT_TRUE(inl);
  rs = MustQuery("select l.k, v from l, r where l.k = r.k and v < 9 "
                 "and v > x order by v");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][1], Value::Int(5));
  EXPECT_EQ(rs.rows[1][0], Value::Str("b"));
  EXPECT_EQ(rs.rows[1][1], Value::Int(7));
}

TEST(JoinPipelineTest, DistinctOrderLimitOverPointerColumns) {
  Database::Options o;
  o.advance_clock_by_cost = false;
  Database db(o);
  ASSERT_OK(db.ExecuteScript(R"(
    create table t (k string, v int);
    insert into t values ('a', 1), ('c', 2), ('b', 3), ('c', 4), ('a', 5);
  )"));
  ASSERT_OK_AND_ASSIGN(Transaction * txn, db.Begin());
  ASSERT_OK_AND_ASSIGN(Statement stmt,
                       Parser::ParseStatement(
                           "select distinct k from t order by k desc limit 2"));
  ASSERT_OK_AND_ASSIGN(TempTable out,
                       db.Query(txn, std::get<SelectStmt>(stmt)));
  ASSERT_OK(db.Commit(txn));
  EXPECT_EQ(out.num_slots(), 1);
  EXPECT_EQ(out.num_extra(), 0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.Get(0, 0), Value::Str("c"));
  EXPECT_EQ(out.Get(1, 0), Value::Str("b"));
  // Each output slot is a record of t.
  const Table* t = db.catalog().FindTable("t");
  for (const TempTuple& tuple : out.tuples()) {
    bool found = false;
    for (const Row& row : t->rows()) found |= row.rec == tuple.slots[0];
    EXPECT_TRUE(found);
  }
  ASSERT_OK_AND_ASSIGN(
      ResultSet rs, db.Execute("select k, v from t order by v desc limit 3"));
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.rows[2][1], Value::Int(3));
}

TEST(JoinPipelineTest, UncompilableColumnFailsOnlyWhenARowReachesIt) {
  Database db;
  ASSERT_OK(db.ExecuteScript(R"(
    create table l (k string); create table r (k string, v int);
    insert into l values ('a');
  )"));
  // nofn compiles to a deferred error: no joined row, no error.
  ASSERT_OK_AND_ASSIGN(
      ResultSet rs, db.Execute("select l.k, nofn(v) from l, r where l.k = r.k"));
  EXPECT_EQ(rs.num_rows(), 0u);
  ASSERT_OK(db.Execute("insert into r values ('a', 1)").status());
  EXPECT_EQ(db.Execute("select l.k, nofn(v) from l, r where l.k = r.k")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(JoinPipelineTest, OutputKeepsTheVersionItReadAfterALaterUpdate) {
  Database::Options o;
  o.advance_clock_by_cost = false;
  Database db(o);
  ASSERT_OK(db.ExecuteScript(R"(
    create table t (k string, v int);
    create table u (k string, w int);
    insert into t values ('a', 1), ('b', 2);
    insert into u values ('a', 10), ('b', 20);
  )"));
  ASSERT_OK_AND_ASSIGN(Transaction * txn, db.Begin());
  ASSERT_OK_AND_ASSIGN(Statement stmt,
                       Parser::ParseStatement(
                           "select t.k, v, w from t, u where t.k = u.k "
                           "order by v"));
  ASSERT_OK_AND_ASSIGN(TempTable out,
                       db.Query(txn, std::get<SelectStmt>(stmt)));
  ASSERT_OK(db.ExecuteInTxn(txn, "update t set v = v + 100").status());
  ASSERT_OK(db.ExecuteInTxn(txn, "delete from u where k = 'b'").status());
  ASSERT_OK(db.Commit(txn));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.MaterializeRow(0),
            (std::vector<Value>{Value::Str("a"), Value::Int(1),
                                Value::Int(10)}));
  EXPECT_EQ(out.MaterializeRow(1),
            (std::vector<Value>{Value::Str("b"), Value::Int(2),
                                Value::Int(20)}));
  ASSERT_OK_AND_ASSIGN(ResultSet now,
                       db.Execute("select v from t order by v"));
  EXPECT_EQ(now.rows[0][0], Value::Int(101));
}

}  // namespace
}  // namespace strip
