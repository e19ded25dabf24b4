// Prepared statements, the plan cache, and their DDL-invalidation
// behavior. Query results are checked against SQLite in
// sqlite_oracle_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "strip/common/string_util.h"
#include "strip/engine/database.h"
#include "tests/test_util.h"

namespace strip {
namespace {

void SeedTable(Database& db) {
  ASSERT_OK(db.ExecuteScript(
      "create table t (k string, v double);"
      "insert into t values ('a', 1.0), ('b', 2.0), ('c', 3.0);"));
}

TEST(PreparedStatementTest, ParamRebindingAcrossExecutions) {
  Database db;
  SeedTable(db);
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr update,
                       db.Prepare("update t set v = ? where k = ?"));
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr select,
                       db.Prepare("select v from t where k = ?"));

  // Same handle, different bindings, each execution independent.
  ASSERT_OK(update->Execute({Value::Double(10.0), Value::Str("a")}).status());
  ASSERT_OK(update->Execute({Value::Double(20.0), Value::Str("b")}).status());

  ASSERT_OK_AND_ASSIGN(ResultSet ra, select->Execute({Value::Str("a")}));
  ASSERT_EQ(ra.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(ra.rows[0][0].as_double(), 10.0);
  ASSERT_OK_AND_ASSIGN(ResultSet rb, select->Execute({Value::Str("b")}));
  ASSERT_EQ(rb.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rb.rows[0][0].as_double(), 20.0);
  ASSERT_OK_AND_ASSIGN(ResultSet rc, select->Execute({Value::Str("c")}));
  ASSERT_EQ(rc.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rc.rows[0][0].as_double(), 3.0);
}

TEST(PreparedStatementTest, UnboundParameterFailsCleanly) {
  Database db;
  SeedTable(db);
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr update,
                       db.Prepare("update t set v = ? where k = ?"));
  auto r = update->Execute({Value::Double(1.0)});  // ?2 missing
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("parameter"), std::string::npos)
      << r.status().ToString();
  // The failed execution must not leave a half-applied transaction.
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       db.Execute("select v from t where k = 'a'"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 1.0);
}

TEST(PreparedStatementTest, PlanCacheSharesHandlesAndNormalizes) {
  Database db;
  SeedTable(db);
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr h1,
                       db.Prepare("select v from t where k = 'a'"));
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr h2,
                       db.Prepare("select v from t where k = 'a'"));
  EXPECT_EQ(h1.get(), h2.get());
  // Case / whitespace variants normalize to the same cache key; quoted
  // literals stay case-sensitive.
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr h3,
                       db.Prepare("SELECT  v  FROM t\n WHERE k = 'a'"));
  EXPECT_EQ(h1.get(), h3.get());
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr h4,
                       db.Prepare("select v from t where k = 'A'"));
  EXPECT_NE(h1.get(), h4.get());

  std::map<std::string, uint64_t> counters = db.metrics().CounterValues();
  EXPECT_GE(counters.at("db.plan_cache.hits"), 2u);
  EXPECT_GE(counters.at("db.plan_cache.misses"), 2u);
  EXPECT_GE(db.metrics().GaugeValues().at("db.plan_cache.entries"), 2.0);
}

TEST(PreparedStatementTest, PlanCacheEvictsAtCapacity) {
  Database::Options opts;
  opts.plan_cache_capacity = 4;
  Database db(opts);
  SeedTable(db);
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(db.Execute(StrFormat("select v from t where v > %d", i))
                  .status());
  }
  EXPECT_LE(db.metrics().GaugeValues().at("db.plan_cache.entries"), 4.0);
}

TEST(PreparedStatementTest, CachedPlanSeesIndexCreatedLater) {
  Database db;
  SeedTable(db);
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr select,
                       db.Prepare("select v from t where k = ?"));
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr update,
                       db.Prepare("update t set v = ? where k = ?"));
  ASSERT_OK_AND_ASSIGN(bool sel_probe, select->UsesIndexProbe());
  ASSERT_OK_AND_ASSIGN(bool upd_probe, update->UsesIndexProbe());
  EXPECT_FALSE(sel_probe);
  EXPECT_FALSE(upd_probe);

  ASSERT_OK(db.Execute("create index t_k on t (k)").status());

  // The generation bump invalidates the frozen plans: both handles
  // re-resolve and now probe the new index — with unchanged results.
  ASSERT_OK_AND_ASSIGN(sel_probe, select->UsesIndexProbe());
  ASSERT_OK_AND_ASSIGN(upd_probe, update->UsesIndexProbe());
  EXPECT_TRUE(sel_probe);
  EXPECT_TRUE(upd_probe);
  ASSERT_OK(update->Execute({Value::Double(42.0), Value::Str("b")}).status());
  ASSERT_OK_AND_ASSIGN(ResultSet rs, select->Execute({Value::Str("b")}));
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 42.0);
}

TEST(PreparedStatementTest, DropTableFailsCleanlyAndRecreateRecovers) {
  Database db;
  SeedTable(db);
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr update,
                       db.Prepare("update t set v = ? where k = ?"));
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr select,
                       db.Prepare("select v from t where k = ?"));
  ASSERT_OK(update->Execute({Value::Double(5.0), Value::Str("a")}).status());

  ASSERT_OK(db.Execute("drop table t").status());
  auto u = update->Execute({Value::Double(6.0), Value::Str("a")});
  EXPECT_FALSE(u.ok());
  EXPECT_EQ(u.status().code(), StatusCode::kNotFound) << u.status().ToString();
  auto s = select->Execute({Value::Str("a")});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kNotFound) << s.status().ToString();

  // Recreating the table re-resolves the same cached handles against the
  // new catalog entry.
  SeedTable(db);
  ASSERT_OK(update->Execute({Value::Double(7.0), Value::Str("a")}).status());
  ASSERT_OK_AND_ASSIGN(ResultSet rs, select->Execute({Value::Str("a")}));
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 7.0);
}

TEST(PreparedStatementTest, TextualExecuteStaysCorrectAcrossDdl) {
  Database db;
  SeedTable(db);
  const std::string sql = "select k, v from t where k = 'b'";
  ASSERT_OK_AND_ASSIGN(ResultSet before, db.Execute(sql));
  ASSERT_OK(db.Execute("create index t_k on t (k)").status());
  ASSERT_OK_AND_ASSIGN(ResultSet after, db.Execute(sql));
  ASSERT_EQ(before.num_rows(), after.num_rows());
  EXPECT_EQ(before.rows[0][0].as_string(), after.rows[0][0].as_string());
  EXPECT_DOUBLE_EQ(before.rows[0][1].as_double(),
                   after.rows[0][1].as_double());
}

TEST(PreparedStatementTest, ConcurrentDdlAndCachedExecutionDontRace) {
  // Two-thread repro of the plan-cache DDL race: cached plans hold raw
  // Table* / Index* pointers, and DropTable frees the table immediately.
  // Without the DDL latch making check-generation-and-execute atomic, the
  // reader can execute a frozen plan against freed storage (a
  // use-after-free ASan catches, and a data race TSan catches). With it,
  // every execution either sees the old table, the new table, or a clean
  // NotFound — never freed memory.
  Database db;
  SeedTable(db);
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr select,
                       db.Prepare("select v from t where k = 'a'"));

  std::atomic<bool> stop{false};
  std::atomic<int> ok_reads{0}, clean_misses{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = select->Execute({});
      if (r.ok()) {
        ++ok_reads;
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
            << r.status().ToString();
        ++clean_misses;
      }
      // The textual plan-cache path races the same way.
      auto r2 = db.Execute("select v from t where k = 'a'");
      if (!r2.ok()) {
        EXPECT_EQ(r2.status().code(), StatusCode::kNotFound)
            << r2.status().ToString();
      }
    }
  });

  // Don't start churning until the reader is actually executing, or all
  // 60 DDL cycles can finish before the thread's first iteration and the
  // test races nothing.
  while (ok_reads.load() + clean_misses.load() == 0) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK(db.Execute("drop table t").status());
    ASSERT_OK(db.ExecuteScript(
        "create table t (k string, v double);"
        "insert into t values ('a', 1.0);"));
  }
  stop = true;
  reader.join();
  EXPECT_GT(ok_reads.load() + clean_misses.load(), 0);

  // The dust settles: cached handles re-resolve against the final table.
  ASSERT_OK_AND_ASSIGN(ResultSet rs, select->Execute({}));
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 1.0);
}

TEST(PreparedStatementTest, PlanNotesDescribeFastPath) {
  Database db;
  SeedTable(db);
  ASSERT_OK(db.Execute("create index t_k on t (k)").status());
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr update,
                       db.Prepare("update t set v = ? where k = ?"));
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> notes, update->PlanNotes());
  ASSERT_FALSE(notes.empty());
  EXPECT_NE(notes[0].find("index probe"), std::string::npos) << notes[0];
}

TEST(PreparedStatementTest, PreparedActionDmlCountsRowsScanned) {
  // A rule action's prepared full-scan UPDATE charges every row it visits
  // to the task and to rules.cost.rows_scanned.<fn>, exactly as the same
  // statement run unprepared does.
  constexpr int kRows = 40;
  Database db;
  ASSERT_OK(db.ExecuteScript(
      "create table t (k int, v int); create table trig (x int);"));
  for (int i = 0; i < kRows; ++i) {
    ASSERT_OK(db.Execute(StrFormat("insert into t values (%d, 0)", i))
                  .status());
  }
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr bump,
                       db.Prepare("update t set v = v + 1"));
  uint64_t scanned = 0;
  int updated = 0;
  ASSERT_OK(db.RegisterFunction("bump", [&](FunctionContext& ctx) -> Status {
    STRIP_ASSIGN_OR_RETURN(updated, ctx.Exec(*bump));
    scanned = ctx.task().rows_scanned;
    return Status::OK();
  }));
  ASSERT_OK(db.Execute("create rule r on trig when inserted then execute bump")
                .status());
  ASSERT_OK(db.Execute("insert into trig values (1)").status());
  db.simulated()->RunUntilQuiescent();

  EXPECT_EQ(updated, kRows);
  EXPECT_EQ(scanned, static_cast<uint64_t>(kRows));
  EXPECT_EQ(db.metrics().CounterValues()["rules.cost.rows_scanned.bump"],
            static_cast<uint64_t>(kRows));
}

}  // namespace
}  // namespace strip
