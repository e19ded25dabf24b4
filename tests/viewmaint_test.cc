// View manager + automatic rule generation (§8 future work) tests:
// materialized view creation / refresh, aggregation- and projection-shaped
// generated rules, unsupported-shape errors, and incremental-vs-recompute
// equivalence under randomized update streams.

#include <gtest/gtest.h>

#include "strip/common/rng.h"
#include "strip/engine/database.h"
#include "strip/rules/net_effect.h"
#include "strip/viewmaint/rule_gen.h"
#include "strip/viewmaint/view_def.h"
#include "tests/test_util.h"

namespace strip {
namespace {

Database::Options LogicalTime() {
  Database::Options o;
  o.mode = ExecutorMode::kSimulated;
  o.advance_clock_by_cost = false;
  return o;
}

class ViewManagerTest : public ::testing::Test {
 protected:
  ViewManagerTest() : db_(LogicalTime()) {}
  Database db_;
};

TEST_F(ViewManagerTest, MaterializedViewCreatesBackingTable) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (g string, v double);
    insert into t values ('a', 1.0), ('b', 2.0), ('a', 3.0);
    create materialized view mv as
      select g, sum(v) as total from t group by g;
  )"));
  EXPECT_NE(db_.catalog().FindTable("mv"), nullptr);
  EXPECT_NE(db_.views().Find("mv"), nullptr);
  EXPECT_TRUE(db_.views().Find("mv")->materialized);
  auto rs = db_.Execute("select total from mv order by g");
  ASSERT_OK(rs.status());
  EXPECT_DOUBLE_EQ(rs->rows[0][0].as_double(), 4.0);
}

TEST_F(ViewManagerTest, NonMaterializedViewHasNoTable) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (v int);
    create view plain as select v from t;
  )"));
  EXPECT_EQ(db_.catalog().FindTable("plain"), nullptr);
  EXPECT_NE(db_.views().Find("plain"), nullptr);
}

TEST_F(ViewManagerTest, RefreshRecomputesFromScratch) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (g string, v double);
    insert into t values ('a', 1.0);
    create materialized view mv as
      select g, sum(v) as total from t group by g;
  )"));
  // Base changes without any maintenance rule: view is stale.
  ASSERT_OK(db_.Execute("insert into t values ('a', 9.0)").status());
  auto rs = db_.Execute("select total from mv");
  ASSERT_OK(rs.status());
  EXPECT_DOUBLE_EQ(rs->rows[0][0].as_double(), 1.0);
  ASSERT_OK(db_.views().RefreshView("mv"));
  rs = db_.Execute("select total from mv");
  ASSERT_OK(rs.status());
  EXPECT_DOUBLE_EQ(rs->rows[0][0].as_double(), 10.0);
}

TEST_F(ViewManagerTest, ErrorsAndDrop) {
  ASSERT_OK(db_.ExecuteScript("create table t (v int)"));
  // Duplicate / colliding names.
  ASSERT_OK(db_.Execute("create view v1 as select v from t").status());
  EXPECT_EQ(db_.Execute("create view v1 as select v from t").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db_.Execute("create view t as select v from t").status().code(),
            StatusCode::kAlreadyExists);
  // Refresh of a non-materialized view.
  EXPECT_EQ(db_.views().RefreshView("v1").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_.views().RefreshView("zzz").code(), StatusCode::kNotFound);
  // Drop.
  ASSERT_OK(db_.views().DropView("v1"));
  EXPECT_EQ(db_.views().Find("v1"), nullptr);
  EXPECT_EQ(db_.views().DropView("v1").code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Rule generation (§8)
// ---------------------------------------------------------------------------

class RuleGenTest : public ::testing::Test {
 protected:
  RuleGenTest() : db_(LogicalTime()) {}

  void Quiesce() { db_.simulated()->RunUntilQuiescent(); }

  Database db_;
};

TEST_F(RuleGenTest, AggregationViewMaintainedIncrementally) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table sales (region string, amount double, qty int);
    create index on sales (region);
    insert into sales values ('eu', 10.0, 1), ('us', 20.0, 2);
    create materialized view rev as
      select region, sum(amount) as total from sales group by region;
  )"));
  RuleGenOptions gen;
  gen.delay_seconds = 0.5;
  ASSERT_OK_AND_ASSIGN(GeneratedRule rule,
                       GenerateMaintenanceRule(db_, "rev", "sales", gen));
  EXPECT_EQ(rule.rule_name, "do_maintain_rev");
  EXPECT_NE(db_.rules().FindRule(rule.rule_name), nullptr);
  // The generator picked the view key as the unit of batching (§8).
  EXPECT_EQ(db_.rules().FindRule(rule.rule_name)->unique_columns().size(),
            1u);

  ASSERT_OK(db_.Execute("update sales set amount += 5.0 where region = 'eu'")
                .status());
  ASSERT_OK(db_.Execute("update sales set amount = 50.0 where region = 'us'")
                .status());
  // Changing an unrelated column must NOT fire the rule (updated-columns
  // predicate derived from the sum argument).
  ASSERT_OK(db_.Execute("update sales set qty = 9").status());
  Quiesce();

  auto rs = db_.Execute("select region, total from rev order by region");
  ASSERT_OK(rs.status());
  EXPECT_DOUBLE_EQ(rs->rows[0][1].as_double(), 15.0);
  EXPECT_DOUBLE_EQ(rs->rows[1][1].as_double(), 50.0);
  EXPECT_EQ(db_.rules().stats().rules_triggered.load(), 2u);  // not the qty update
}

TEST_F(RuleGenTest, AggregationWithJoinDimension) {
  // The comp_prices shape: weighted sums through a dimension table.
  ASSERT_OK(db_.ExecuteScript(R"(
    create table px (sym string, price double);
    create index on px (sym);
    create table members (grp string, sym string, w double);
    create index on members (sym);
    insert into px values ('s1', 10.0), ('s2', 20.0);
    insert into members values
      ('g1', 's1', 0.5), ('g1', 's2', 0.5), ('g2', 's1', 1.0);
    create materialized view idx as
      select grp, sum(px.price * w) as price
      from px, members
      where px.sym = members.sym
      group by grp;
  )"));
  RuleGenOptions gen;
  gen.delay_seconds = 1.0;
  ASSERT_OK(
      GenerateMaintenanceRule(db_, "idx", "px", gen).status());

  ASSERT_OK(db_.Execute("update px set price = 14.0 where sym = 's1'")
                .status());
  ASSERT_OK(db_.Execute("update px set price = 24.0 where sym = 's2'")
                .status());
  Quiesce();
  auto rs = db_.Execute("select grp, price from idx order by grp");
  ASSERT_OK(rs.status());
  EXPECT_DOUBLE_EQ(rs->rows[0][1].as_double(), 0.5 * 14 + 0.5 * 24);
  EXPECT_DOUBLE_EQ(rs->rows[1][1].as_double(), 14.0);
}

TEST_F(RuleGenTest, ProjectionViewRecomputedPerKey) {
  // The option_prices shape: per-row function application.
  ASSERT_OK(db_.ExecuteScript(R"(
    create table base (sym string, x double);
    create index on base (sym);
    create table derived_keys (id string, sym string, k double);
    create index on derived_keys (sym);
    insert into base values ('s1', 3.0), ('s2', 4.0);
    insert into derived_keys values
      ('d1', 's1', 2.0), ('d2', 's1', 10.0), ('d3', 's2', 1.0);
    create materialized view squared as
      select id, base.x * base.x + k as val
      from base, derived_keys
      where base.sym = derived_keys.sym;
  )"));
  RuleGenOptions gen;
  gen.delay_seconds = 0.5;
  ASSERT_OK_AND_ASSIGN(GeneratedRule rule,
                       GenerateMaintenanceRule(db_, "squared", "base", gen));
  const RuleDef* def = db_.rules().FindRule(rule.rule_name);
  ASSERT_NE(def, nullptr);
  EXPECT_TRUE(def->unique());  // coarse batching for projection views
  EXPECT_TRUE(def->unique_columns().empty());

  // Two updates to the same stock inside the window: last one wins.
  ASSERT_OK(db_.Execute("update base set x = 5.0 where sym = 's1'").status());
  ASSERT_OK(db_.Execute("update base set x = 6.0 where sym = 's1'").status());
  Quiesce();
  auto rs = db_.Execute("select id, val from squared order by id");
  ASSERT_OK(rs.status());
  EXPECT_DOUBLE_EQ(rs->rows[0][1].as_double(), 38.0);  // 36 + 2
  EXPECT_DOUBLE_EQ(rs->rows[1][1].as_double(), 46.0);  // 36 + 10
  EXPECT_DOUBLE_EQ(rs->rows[2][1].as_double(), 17.0);  // untouched s2
}

TEST_F(RuleGenTest, UnsupportedShapesRejected) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (g string, v double);
    insert into t values ('a', 1.0);
    create materialized view star_view as select * from t;
    create materialized view min_agg as
      select g, min(v) as lo from t group by g;
    create materialized view two_keys as
      select g, v, sum(v) as s from t group by g, v;
    create materialized view one_col as select g from t;
    create view not_materialized as select g, v from t;
  )"));
  RuleGenOptions gen;
  EXPECT_EQ(GenerateMaintenanceRule(db_, "star_view", "t", gen)
                .status().code(),
            StatusCode::kUnimplemented);
  // MIN/MAX cannot be maintained from deltas under deletes.
  EXPECT_EQ(GenerateMaintenanceRule(db_, "min_agg", "t", gen)
                .status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(GenerateMaintenanceRule(db_, "two_keys", "t", gen)
                .status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(GenerateMaintenanceRule(db_, "one_col", "t", gen)
                .status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(GenerateMaintenanceRule(db_, "not_materialized", "t", gen)
                .status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(GenerateMaintenanceRule(db_, "nosuch", "t", gen)
                .status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(GenerateMaintenanceRule(db_, "star_view", "nosuch", gen)
                .status().code(),
            StatusCode::kNotFound);
}

TEST_F(RuleGenTest, InsertAndDeleteEventsMaintainAggregationView) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table sales (region string, amount double);
    create index on sales (region);
    insert into sales values ('eu', 10.0), ('us', 20.0);
    create materialized view rev as
      select region, sum(amount) as total from sales group by region;
  )"));
  RuleGenOptions gen;
  gen.delay_seconds = 0.5;
  ASSERT_OK_AND_ASSIGN(GeneratedRule rule,
                       GenerateMaintenanceRule(db_, "rev", "sales", gen));
  ASSERT_EQ(rule.extra_rule_names.size(), 2u);
  EXPECT_NE(db_.rules().FindRule("do_maintain_rev_ins"), nullptr);
  EXPECT_NE(db_.rules().FindRule("do_maintain_rev_del"), nullptr);
  EXPECT_TRUE(db_.views().Find("rev")->hidden_count);
  EXPECT_TRUE(db_.views().Find("rev")->maintained);

  // Insert into an existing group, insert a NEW group, delete a row.
  ASSERT_OK(db_.Execute("insert into sales values ('eu', 5.0)").status());
  ASSERT_OK(db_.Execute("insert into sales values ('jp', 7.0)").status());
  ASSERT_OK(db_.Execute(
      "delete from sales where region = 'us' and amount = 20.0").status());
  Quiesce();

  // The emptied 'us' group is GONE (hidden-count tracking), not a
  // lingering zero-sum row — the [CW91] limitation fixed.
  auto rs = db_.Execute("select region, total from rev order by region");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_EQ(rs->rows[0][0].as_string(), "eu");
  EXPECT_DOUBLE_EQ(rs->rows[0][1].as_double(), 15.0);
  EXPECT_EQ(rs->rows[1][0].as_string(), "jp");
  EXPECT_DOUBLE_EQ(rs->rows[1][1].as_double(), 7.0);
  // The hidden count is a real column of the backing table.
  auto cnt = db_.Execute("select _count from rev where region = 'eu'");
  ASSERT_OK(cnt.status());
  ASSERT_EQ(cnt->num_rows(), 1u);
  EXPECT_EQ(cnt->rows[0][0].as_int(), 2);
}

TEST_F(RuleGenTest, GeneratorIndexesViewSoMaintenanceNeverScans) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table sales (region string, amount double);
    create index on sales (region);
    insert into sales values ('eu', 10.0), ('us', 20.0), ('jp', 30.0);
    create materialized view rev as
      select region, sum(amount) as total from sales group by region;
  )"));
  RuleGenOptions gen;
  gen.delay_seconds = 0.5;
  ASSERT_OK(GenerateMaintenanceRule(db_, "rev", "sales", gen).status());
  EXPECT_NE(db_.catalog().FindTable("rev")->FindIndex("region"), nullptr);

  // One batched window with every statement the maintainers run: a folded
  // update pair, an upserted new group, and an emptied group (count check
  // plus the idle sweep's erase).
  ASSERT_OK(db_.Execute("update sales set amount += 1.0 where region = 'eu'")
                .status());
  ASSERT_OK(db_.Execute("update sales set amount += 2.0 where region = 'eu'")
                .status());
  ASSERT_OK(db_.Execute("insert into sales values ('cn', 5.0)").status());
  ASSERT_OK(db_.Execute("delete from sales where region = 'us'").status());
  Quiesce();

  auto rs = db_.Execute("select region, total from rev order by region");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(rs->rows[0][0].as_string(), "cn");
  EXPECT_EQ(rs->rows[1][0].as_string(), "eu");
  EXPECT_DOUBLE_EQ(rs->rows[1][1].as_double(), 13.0);
  EXPECT_EQ(rs->rows[2][0].as_string(), "jp");
  MetricsRegistry& m = db_.metrics();
  // The two 'eu' updates shared one task: four contributions, one delta.
  EXPECT_EQ(m.counter("rules.cost.deltas_folded.maintain_rev")->load(), 3u);
  for (const char* fn : {"maintain_rev", "maintain_rev_ins",
                         "maintain_rev_del"}) {
    EXPECT_EQ(m.counter(std::string("rules.cost.rows_scanned.") + fn)->load(),
              0u)
        << fn;
  }
}

TEST_F(RuleGenTest, MultiAggregateViewWithCountMaintained) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (g string, v double);
    create index on t (g);
    insert into t values ('a', 1.0), ('a', 2.0), ('b', 5.0);
    create materialized view agg as
      select g, sum(v) as s, count(*) as n, sum(v * 2.0) as s2
      from t group by g;
  )"));
  RuleGenOptions gen;
  gen.delay_seconds = 0.5;
  ASSERT_OK_AND_ASSIGN(GeneratedRule rule,
                       GenerateMaintenanceRule(db_, "agg", "t", gen));
  EXPECT_EQ(rule.strategy, "direct");

  ASSERT_OK(db_.Execute("insert into t values ('a', 4.0)").status());
  ASSERT_OK(db_.Execute("update t set v += 1.0 where g = 'b'").status());
  ASSERT_OK(db_.Execute("delete from t where g = 'a' and v = 1.0").status());
  Quiesce();

  auto rs = db_.Execute("select g, s, n, s2 from agg order by g");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(rs->rows[0][1].as_double(), 6.0);  // 2 + 4
  EXPECT_EQ(rs->rows[0][2].as_int(), 2);
  EXPECT_DOUBLE_EQ(rs->rows[0][3].as_double(), 12.0);
  EXPECT_DOUBLE_EQ(rs->rows[1][1].as_double(), 6.0);  // 5 + 1
  EXPECT_EQ(rs->rows[1][2].as_int(), 1);
  EXPECT_DOUBLE_EQ(rs->rows[1][3].as_double(), 12.0);
}

TEST_F(RuleGenTest, UpdateMovingGroupKeyMaintainsBothGroups) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (g string, v double);
    create index on t (g);
    insert into t values ('a', 1.0), ('a', 2.0), ('b', 5.0);
    create materialized view agg as
      select g, sum(v) as total from t group by g;
  )"));
  RuleGenOptions gen;
  gen.delay_seconds = 0.5;
  ASSERT_OK(GenerateMaintenanceRule(db_, "agg", "t", gen).status());

  // Move a row from group 'a' to group 'b': the update rule ships both
  // the old and the new group key, so both sides adjust — and a move of
  // the LAST row of a group removes the group entirely.
  ASSERT_OK(db_.Execute("update t set g = 'b' where v = 2.0").status());
  Quiesce();
  auto rs = db_.Execute("select g, total from agg order by g");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(rs->rows[0][1].as_double(), 1.0);  // a
  EXPECT_DOUBLE_EQ(rs->rows[1][1].as_double(), 7.0);  // b

  ASSERT_OK(db_.Execute("update t set g = 'b' where g = 'a'").status());
  Quiesce();
  rs = db_.Execute("select g, total from agg order by g");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs->num_rows(), 1u);  // 'a' emptied by the move and erased
  EXPECT_EQ(rs->rows[0][0].as_string(), "b");
  EXPECT_DOUBLE_EQ(rs->rows[0][1].as_double(), 8.0);
}

TEST_F(RuleGenTest, MixedInsertUpdateDeleteStreamStaysConsistent) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (g string, v double);
    create index on t (g);
  )"));
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(db_.Execute("insert into t values ('g" +
                          std::to_string(i % 3) + "', " +
                          std::to_string(i) + ".0)").status());
  }
  ASSERT_OK(db_.Execute("create materialized view agg as "
                        "select g, sum(v) as total from t group by g")
                .status());
  RuleGenOptions gen;
  gen.delay_seconds = 0.5;
  ASSERT_OK(GenerateMaintenanceRule(db_, "agg", "t", gen).status());

  Rng rng(99);
  for (int i = 0; i < 60; ++i) {
    std::string g = "g" + std::to_string(rng.UniformInt(0, 4));  // g3/g4 new
    int pick = static_cast<int>(rng.UniformInt(0, 2));
    if (pick == 0) {
      ASSERT_OK(db_.Execute("insert into t values ('" + g + "', " +
                            std::to_string(rng.UniformReal(1, 9)) + ")")
                    .status());
    } else if (pick == 1) {
      ASSERT_OK(db_.Execute("update t set v += 1.5 where g = '" + g + "'")
                    .status());
    } else {
      ASSERT_OK(db_.Execute("delete from t where g = '" + g +
                            "' and v > 7.0").status());
    }
    if (rng.Bernoulli(0.25)) {
      db_.simulated()->RunUntil(db_.Now() + SecondsToMicros(0.3));
    }
  }
  Quiesce();

  // Count tracking makes the maintained view EXACTLY a recompute: same
  // groups (emptied ones erased at the idle sweep), same sums.
  auto fresh = db_.Execute(
      "select g, sum(v) as total from t group by g order by g");
  auto got = db_.Execute("select g, total from agg order by g");
  ASSERT_OK(fresh.status());
  ASSERT_OK(got.status());
  ASSERT_EQ(got->num_rows(), fresh->num_rows());
  for (size_t i = 0; i < fresh->num_rows(); ++i) {
    EXPECT_EQ(got->rows[i][0], fresh->rows[i][0]);
    EXPECT_NEAR(got->rows[i][1].as_double(), fresh->rows[i][1].as_double(),
                1e-7)
        << "group " << fresh->rows[i][0].ToString();
  }
}

/// Property sweep: random update streams against a generated aggregation
/// rule must leave the view exactly equal to a from-scratch recompute,
/// for several seeds and delay windows.
class RuleGenPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(RuleGenPropertyTest, IncrementalEqualsRecompute) {
  auto [seed, delay] = GetParam();
  Database db(LogicalTime());
  ASSERT_OK(db.ExecuteScript(R"(
    create table t (g string, v double);
    create index on t (g);
  )"));
  Rng rng(static_cast<uint64_t>(seed));
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(db.Execute("insert into t values ('g" +
                         std::to_string(rng.UniformInt(0, 4)) + "', " +
                         std::to_string(rng.UniformReal(1, 100)) + ")")
                  .status());
  }
  ASSERT_OK(db.Execute("create materialized view agg as "
                       "select g, sum(v) as total from t group by g")
                .status());
  RuleGenOptions gen;
  gen.delay_seconds = delay;
  ASSERT_OK(GenerateMaintenanceRule(db, "agg", "t", gen).status());

  // Random update bursts over virtual time.
  for (int i = 0; i < 60; ++i) {
    std::string g = "g" + std::to_string(rng.UniformInt(0, 4));
    ASSERT_OK(db.Execute("update t set v += " +
                         std::to_string(rng.UniformReal(-5, 5)) +
                         " where g = '" + g + "'")
                  .status());
    if (rng.Bernoulli(0.3)) {
      db.simulated()->RunUntil(db.Now() + SecondsToMicros(delay / 2));
    }
  }
  db.simulated()->RunUntilQuiescent();

  auto maintained = db.Execute("select g, total from agg order by g");
  auto fresh =
      db.Execute("select g, sum(v) as total from t group by g order by g");
  ASSERT_OK(maintained.status());
  ASSERT_OK(fresh.status());
  ASSERT_EQ(maintained->num_rows(), fresh->num_rows());
  for (size_t i = 0; i < fresh->num_rows(); ++i) {
    EXPECT_EQ(maintained->rows[i][0], fresh->rows[i][0]);
    EXPECT_NEAR(maintained->rows[i][1].as_double(),
                fresh->rows[i][1].as_double(), 1e-7)
        << "group " << maintained->rows[i][0].ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RuleGenPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0.25, 1.0, 3.0)));

/// Property sweep over the dim-probe strategy: a weighted-sum join view
/// under random insert / update / join-key-move / delete streams must end
/// exactly equal to a from-scratch recompute — including the ABSENCE of
/// emptied groups (hidden-count erasure).
class JoinViewPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(JoinViewPropertyTest, DimProbeEqualsRecompute) {
  auto [seed, delay] = GetParam();
  Database db(LogicalTime());
  ASSERT_OK(db.ExecuteScript(R"(
    create table px (sym string, price double);
    create index on px (sym);
    create table members (grp string, sym string, w double);
    create index on members (sym);
    insert into members values
      ('g0', 's0', 0.5), ('g0', 's1', 0.25), ('g1', 's1', 1.0),
      ('g1', 's2', 0.5), ('g2', 's3', 2.0), ('g2', 's0', 1.0);
  )"));
  Rng rng(static_cast<uint64_t>(seed) * 7919 + 17);
  for (int i = 0; i < 12; ++i) {
    ASSERT_OK(db.Execute("insert into px values ('s" +
                         std::to_string(rng.UniformInt(0, 4)) + "', " +
                         std::to_string(rng.UniformInt(1, 50)) + ".0)")
                  .status());
  }
  ASSERT_OK(db.Execute("create materialized view idx as "
                       "select grp, sum(px.price * w) as total "
                       "from px, members where px.sym = members.sym "
                       "group by grp")
                .status());
  RuleGenOptions gen;
  gen.delay_seconds = delay;
  ASSERT_OK_AND_ASSIGN(GeneratedRule rule,
                       GenerateMaintenanceRule(db, "idx", "px", gen));
  EXPECT_EQ(rule.strategy, "dim-probe");

  for (int i = 0; i < 80; ++i) {
    std::string sym = "s" + std::to_string(rng.UniformInt(0, 4));
    switch (static_cast<int>(rng.UniformInt(0, 3))) {
      case 0:
        ASSERT_OK(db.Execute("insert into px values ('" + sym + "', " +
                             std::to_string(rng.UniformInt(1, 50)) + ".0)")
                      .status());
        break;
      case 1:
        ASSERT_OK(
            db.Execute("update px set price += 2.0 where sym = '" + sym +
                       "'")
                .status());
        break;
      case 2: {
        // Join-key move: rows change symbol, so both the old and the new
        // symbol's groups must adjust (exact under dim-probe).
        std::string to = "s" + std::to_string(rng.UniformInt(0, 4));
        ASSERT_OK(db.Execute("update px set sym = '" + to +
                             "' where sym = '" + sym + "' and price > 40.0")
                      .status());
        break;
      }
      default:
        ASSERT_OK(db.Execute("delete from px where sym = '" + sym +
                             "' and price > 45.0")
                      .status());
        break;
    }
    if (rng.Bernoulli(0.3)) {
      db.simulated()->RunUntil(db.Now() + SecondsToMicros(delay / 2));
    }
  }
  db.simulated()->RunUntilQuiescent();

  auto got = db.Execute("select grp, total from idx order by grp");
  auto fresh = db.Execute(
      "select grp, sum(px.price * w) as total from px, members "
      "where px.sym = members.sym group by grp order by grp");
  ASSERT_OK(got.status());
  ASSERT_OK(fresh.status());
  ASSERT_EQ(got->num_rows(), fresh->num_rows());
  for (size_t i = 0; i < fresh->num_rows(); ++i) {
    EXPECT_EQ(got->rows[i][0], fresh->rows[i][0]);
    EXPECT_NEAR(got->rows[i][1].as_double(),
                fresh->rows[i][1].as_double(), 1e-6)
        << "group " << fresh->rows[i][0].ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinViewPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.25, 1.0, 3.0)));

// ---------------------------------------------------------------------------
// AVG maintenance (AVG = SUM / hidden _count)
// ---------------------------------------------------------------------------

TEST_F(RuleGenTest, AvgViewMaintainedUnderInsertUpdateDelete) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (g string, v double);
    create index on t (g);
    insert into t values ('a', 1.0), ('a', 3.0), ('b', 10.0);
    create materialized view m as
      select g, avg(v) as mean, sum(v) as s from t group by g;
  )"));
  RuleGenOptions gen;
  gen.delay_seconds = 0.5;
  ASSERT_OK(GenerateMaintenanceRule(db_, "m", "t", gen).status());

  ASSERT_OK(db_.Execute("insert into t values ('a', 8.0)").status());
  ASSERT_OK(db_.Execute("update t set v += 2.0 where g = 'b'").status());
  ASSERT_OK(db_.Execute("delete from t where g = 'a' and v = 1.0").status());
  Quiesce();

  auto rs = db_.Execute("select g, mean, s from m order by g");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_NEAR(rs->rows[0][1].as_double(), (3.0 + 8.0) / 2, 1e-9);
  EXPECT_NEAR(rs->rows[0][2].as_double(), 11.0, 1e-9);
  EXPECT_NEAR(rs->rows[1][1].as_double(), 12.0, 1e-9);
}

/// Delta-maintained AVG vs from-scratch recompute under randomized streams:
/// the satellite's equivalence requirement. The quotient accumulates float
/// error across incremental updates, so comparison is to tolerance, not
/// bit-exact.
class AvgPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(AvgPropertyTest, DeltaAvgEqualsRecompute) {
  auto [seed, delay] = GetParam();
  Database db(LogicalTime());
  ASSERT_OK(db.ExecuteScript(R"(
    create table t (g string, v double);
    create index on t (g);
  )"));
  Rng rng(static_cast<uint64_t>(seed) * 131 + 7);
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(db.Execute("insert into t values ('g" +
                         std::to_string(rng.UniformInt(0, 3)) + "', " +
                         std::to_string(rng.UniformReal(1, 100)) + ")")
                  .status());
  }
  ASSERT_OK(db.Execute("create materialized view m as "
                       "select g, avg(v) as mean from t group by g")
                .status());
  RuleGenOptions gen;
  gen.delay_seconds = delay;
  ASSERT_OK(GenerateMaintenanceRule(db, "m", "t", gen).status());

  for (int i = 0; i < 70; ++i) {
    std::string g = "g" + std::to_string(rng.UniformInt(0, 3));
    switch (static_cast<int>(rng.UniformInt(0, 2))) {
      case 0:
        ASSERT_OK(db.Execute("insert into t values ('" + g + "', " +
                             std::to_string(rng.UniformReal(1, 100)) + ")")
                      .status());
        break;
      case 1:
        ASSERT_OK(db.Execute("update t set v += " +
                             std::to_string(rng.UniformReal(-10, 10)) +
                             " where g = '" + g + "'")
                      .status());
        break;
      default:
        ASSERT_OK(db.Execute("delete from t where g = '" + g +
                             "' and v > 90.0")
                      .status());
        break;
    }
    if (rng.Bernoulli(0.3)) {
      db.simulated()->RunUntil(db.Now() + SecondsToMicros(delay / 2));
    }
  }
  db.simulated()->RunUntilQuiescent();

  auto got = db.Execute("select g, mean from m order by g");
  auto fresh =
      db.Execute("select g, avg(v) as mean from t group by g order by g");
  ASSERT_OK(got.status());
  ASSERT_OK(fresh.status());
  ASSERT_EQ(got->num_rows(), fresh->num_rows());
  for (size_t i = 0; i < fresh->num_rows(); ++i) {
    EXPECT_EQ(got->rows[i][0], fresh->rows[i][0]);
    EXPECT_NEAR(got->rows[i][1].as_double(), fresh->rows[i][1].as_double(),
                1e-6)
        << "group " << fresh->rows[i][0].ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AvgPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.25, 1.0)));

// ---------------------------------------------------------------------------
// Dimension-change recompute fallback
// ---------------------------------------------------------------------------

TEST_F(RuleGenTest, DimChangeFallsBackToRecomputeAndCounts) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table px (sym string, price double);
    create index on px (sym);
    create table members (grp string, sym string, w double);
    create index on members (sym);
    insert into px values ('s1', 10.0), ('s2', 20.0);
    insert into members values ('g1', 's1', 1.0);
    create materialized view idx as
      select grp, sum(px.price * w) as total
      from px, members where px.sym = members.sym group by grp;
  )"));
  RuleGenOptions gen;
  gen.delay_seconds = 0.5;
  ASSERT_OK_AND_ASSIGN(GeneratedRule rule,
                       GenerateMaintenanceRule(db_, "idx", "px", gen));
  // The fallback rule on the dimension table rode along.
  EXPECT_NE(db_.rules().FindRule("dim_fallback_idx_members"), nullptr);
  uint64_t before =
      db_.metrics().counter("viewmaint.dim_fallback_recompute")->load();

  // A dimension change the delta rules cannot see: new member row.
  ASSERT_OK(
      db_.Execute("insert into members values ('g1', 's2', 0.5)").status());
  Quiesce();

  auto rs = db_.Execute("select grp, total from idx");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rs->rows[0][1].as_double(), 10.0 + 0.5 * 20.0);
  EXPECT_EQ(db_.metrics().counter("viewmaint.dim_fallback_recompute")->load(),
            before + 1);

  // Fact-side deltas still work after a refresh.
  ASSERT_OK(db_.Execute("update px set price = 30.0 where sym = 's2'")
                .status());
  Quiesce();
  rs = db_.Execute("select grp, total from idx");
  ASSERT_OK(rs.status());
  EXPECT_DOUBLE_EQ(rs->rows[0][1].as_double(), 10.0 + 0.5 * 30.0);
}

// ---------------------------------------------------------------------------
// Two-tier shard export / merge (unit level; cluster_test covers the
// cross-engine path)
// ---------------------------------------------------------------------------

TEST_F(RuleGenTest, ShardExportShipsFoldedDeltasAndMergeApplies) {
  // One "shard" engine and one "merge" engine, wired by hand.
  Database merge_db(LogicalTime());
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (g string, v double);
    create index on t (g);
    insert into t values ('a', 1.0), ('b', 2.0);
    create materialized view agg as
      select g, sum(v) as s from t group by g;
  )"));
  RuleGenOptions gen;
  gen.delay_seconds = 0.2;
  ASSERT_OK(GenerateMaintenanceRule(db_, "agg", "t", gen).status());

  ASSERT_OK(merge_db.ExecuteScript(
      "create table agg (g string, s double, _count int);"
      "create index on agg (g);"));
  MergeRuleOptions merge_opts;
  merge_opts.delay_seconds = 0.2;
  ASSERT_OK_AND_ASSIGN(MergeRuleSpec merge_spec,
                       GenerateMergeRule(merge_db, "agg", merge_opts));
  EXPECT_EQ(merge_spec.staging_table, "agg_deltas");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<FeedImporter> staging,
      FeedImporter::Create(&merge_db, merge_spec.staging_table));

  size_t shipped = 0;
  ShardExportOptions export_opts;
  export_opts.shard_id = 3;
  export_opts.delay_seconds = 0.2;
  ASSERT_OK(GenerateShardDeltaExport(
                db_, "agg", export_opts,
                [&](const FeedRecord& rec) -> Status {
                  ++shipped;
                  // _seq carries the shard id in its high bits.
                  EXPECT_EQ(rec.values[0].as_int() >> 48, 3);
                  return staging->Submit(rec);
                })
                .status());

  // Two same-group changes inside one export window must fold to ONE
  // shipped delta; the merge rule applies the net effect.
  ASSERT_OK(db_.Execute("insert into t values ('a', 10.0)").status());
  ASSERT_OK(db_.Execute("update t set v += 5.0 where g = 'a' and v = 1.0")
                .status());
  Quiesce();
  merge_db.simulated()->RunUntilQuiescent();
  Quiesce();
  merge_db.simulated()->RunUntilQuiescent();

  EXPECT_EQ(shipped, 1u);
  auto rs = merge_db.Execute("select g, s, _count from agg");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->rows[0][0].as_string(), "a");
  EXPECT_DOUBLE_EQ(rs->rows[0][1].as_double(), 15.0);  // +10 insert, +5 upd
  EXPECT_EQ(rs->rows[0][2].as_int(), 1);
  // Consumed staging rows were cleaned up.
  auto staged = merge_db.Execute("select _seq from agg_deltas");
  ASSERT_OK(staged.status());
  EXPECT_EQ(staged->num_rows(), 0u);
}

TEST_F(RuleGenTest, MergeKeepsInterimRowUntilInsertDeltaArrives) {
  // Shard export windows interleave freely, so an update delta can reach
  // the merge before the insert delta that logically precedes it. The
  // interim row sits at count 0 with a nonzero sum; the merge erase rule
  // (count <= 0 AND every sum exactly zero) must let it survive the idle
  // sweep.
  Database merge_db(LogicalTime());
  ASSERT_OK(merge_db.ExecuteScript(
      "create table agg (g string, s double, _count int);"));
  MergeRuleOptions merge_opts;
  merge_opts.delay_seconds = 0.2;
  ASSERT_OK_AND_ASSIGN(MergeRuleSpec spec,
                       GenerateMergeRule(merge_db, "agg", merge_opts));
  EXPECT_NE(merge_db.catalog().FindTable("agg")->FindIndex("g"), nullptr);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<FeedImporter> staging,
                       FeedImporter::Create(&merge_db, spec.staging_table));
  auto stage = [&](double sum, int64_t count, int64_t seq) {
    GroupDelta d;
    d.key = Value::Str("a");
    d.sums = {sum};
    d.count = count;
    FeedRecord rec;
    rec.values = EncodeGroupDeltaRow(d, seq);
    ASSERT_OK(staging->Submit(rec));
    merge_db.simulated()->RunUntilQuiescent();
  };
  auto row = [&]() {
    auto rs = merge_db.Execute("select s, _count from agg where g = 'a'");
    EXPECT_OK(rs.status());
    return rs.ok() ? rs->rows : std::vector<std::vector<Value>>{};
  };

  stage(3.0, 0, 1);  // the update delta, first
  std::vector<std::vector<Value>> interim = row();
  ASSERT_EQ(interim.size(), 1u);  // swept while idle, yet kept
  EXPECT_DOUBLE_EQ(interim[0][0].as_double(), 3.0);
  EXPECT_EQ(interim[0][1].as_int(), 0);

  stage(5.0, 1, 2);  // its insert delta, late
  std::vector<std::vector<Value>> final_row = row();
  ASSERT_EQ(final_row.size(), 1u);
  EXPECT_DOUBLE_EQ(final_row[0][0].as_double(), 8.0);
  EXPECT_EQ(final_row[0][1].as_int(), 1);
  auto staged = merge_db.Execute("select _seq from agg_deltas");
  ASSERT_OK(staged.status());
  EXPECT_EQ(staged->num_rows(), 0u);
}

TEST_F(RuleGenTest, ShardExportRequiresMaintainedSumView) {
  ASSERT_OK(db_.ExecuteScript(R"(
    create table t (g string, v double);
    create index on t (g);
    create materialized view agg as
      select g, sum(v) as s from t group by g;
  )"));
  auto sink = [](const FeedRecord&) { return Status::OK(); };
  // Not maintained yet -> no hidden count to ship.
  EXPECT_EQ(GenerateShardDeltaExport(db_, "agg", ShardExportOptions{}, sink)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(GenerateShardDeltaExport(db_, "zzz", ShardExportOptions{}, sink)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(RuleGenTest, MergeRuleRejectsWrongLayout) {
  Database merge_db(LogicalTime());
  ASSERT_OK(merge_db.ExecuteScript(
      "create table nocount (g string, s double);"));
  EXPECT_EQ(GenerateMergeRule(merge_db, "nocount", MergeRuleOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace strip
