// Reproduces the paper's worked example of Figures 4 and 5: three stocks,
// two composites, transactions T1 and T2, under the non-unique rule
// (do_comps1), coarse unique (do_comps2), and unique on comp (do_comps3).

#include <gtest/gtest.h>

#include "strip/engine/database.h"
#include "strip/market/app_functions.h"

namespace strip {
namespace {

#define ASSERT_OK(expr)                              \
  do {                                               \
    auto _st = (expr);                               \
    ASSERT_TRUE(_st.ok()) << _st.ToString();         \
  } while (0)

/// Database pre-loaded with the Figure 4 tables. Uses logical virtual time
/// (task cost does not advance the clock) for exact delay-window control.
class PaperExampleTest : public ::testing::Test {
 protected:
  PaperExampleTest() : db_(MakeOptions()) {}

  static Database::Options MakeOptions() {
    Database::Options o;
    o.mode = ExecutorMode::kSimulated;
    o.advance_clock_by_cost = false;
    return o;
  }

  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(R"(
      create table stocks (symbol string, price double);
      create index on stocks (symbol);
      create table comps_list (comp string, symbol string, weight double);
      create index on comps_list (symbol);
      create table comp_prices (comp string, price double);
      create index on comp_prices (comp);
      insert into stocks values ('s1', 30.0), ('s2', 40.0), ('s3', 50.0);
      insert into comps_list values
        ('c1', 's1', 0.5), ('c1', 's3', 0.5),
        ('c2', 's1', 0.3), ('c2', 's2', 0.7);
      insert into comp_prices values ('c1', 40.0), ('c2', 37.0);
    )"));
    ASSERT_OK(RegisterPtaFunctions(db_));
    // compute_comps* read stock_stdev-free tables; option tables are not
    // needed for the composite example, but the functions resolve
    // comp_prices/option_prices/stock_stdev lazily — create stubs.
    ASSERT_OK(db_.ExecuteScript(R"(
      create table option_prices (option_symbol string, price double);
      create index on option_prices (option_symbol);
      create table stock_stdev (symbol string, stdev double);
      create index on stock_stdev (symbol);
    )"));
  }

  /// Runs T1 (S1 -> 31, S2 -> 39) and T2 (S2 -> 38, S3 -> 51) as two
  /// transactions, as in Figure 4.
  void RunT1T2() {
    auto t1 = db_.Begin();
    ASSERT_OK(t1.status());
    ASSERT_OK(db_.ExecuteInTxn(*t1,
                               "update stocks set price = 31.0 "
                               "where symbol = 's1'")
                  .status());
    ASSERT_OK(db_.ExecuteInTxn(*t1,
                               "update stocks set price = 39.0 "
                               "where symbol = 's2'")
                  .status());
    ASSERT_OK(db_.Commit(*t1));

    auto t2 = db_.Begin();
    ASSERT_OK(t2.status());
    ASSERT_OK(db_.ExecuteInTxn(*t2,
                               "update stocks set price = 38.0 "
                               "where symbol = 's2'")
                  .status());
    ASSERT_OK(db_.ExecuteInTxn(*t2,
                               "update stocks set price = 51.0 "
                               "where symbol = 's3'")
                  .status());
    ASSERT_OK(db_.Commit(*t2));
  }

  double CompPrice(const std::string& comp) {
    auto rs = db_.Execute("select price from comp_prices where comp = '" +
                          comp + "'");
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->num_rows(), 1u);
    return rs->rows[0][0].as_double();
  }

  uint64_t RecomputesRun() {
    return db_.executor().stats().tasks_run.load() - updates_run_;
  }

  Database db_;
  uint64_t updates_run_ = 0;  // updates run via ExecuteInTxn, not tasks
};

// Expected final composite prices after T1 + T2:
//   s1 = 31, s2 = 38, s3 = 51
//   c1 = 0.5 * 31 + 0.5 * 51 = 41.0
//   c2 = 0.3 * 31 + 0.7 * 38 = 35.9
constexpr double kC1Final = 41.0;
constexpr double kC2Final = 35.9;

TEST_F(PaperExampleTest, NonUniqueRuleRunsOneTaskPerTriggeringTxn) {
  ASSERT_OK(
      db_.Execute(CompRuleSql(CompRuleVariant::kNonUnique, 0)).status());
  RunT1T2();
  db_.simulated()->RunUntilQuiescent();
  EXPECT_NEAR(CompPrice("c1"), kC1Final, 1e-9);
  EXPECT_NEAR(CompPrice("c2"), kC2Final, 1e-9);
  // Figure 5(a): two distinct transactions T1a and T2a remain enqueued.
  EXPECT_EQ(db_.rules().stats().tasks_created.load(), 2u);
  EXPECT_EQ(db_.executor().stats().tasks_run.load(), 2u);
}

TEST_F(PaperExampleTest, CoarseUniqueBatchesAcrossTransactions) {
  ASSERT_OK(db_.Execute(CompRuleSql(CompRuleVariant::kUnique, 1.0)).status());
  RunT1T2();  // both commit at virtual time 0, within the 1 s window
  db_.simulated()->RunUntilQuiescent();
  EXPECT_NEAR(CompPrice("c1"), kC1Final, 1e-9);
  EXPECT_NEAR(CompPrice("c2"), kC2Final, 1e-9);
  // Figure 5(b): T2's firing was appended to T1a's bound table.
  EXPECT_EQ(db_.rules().stats().tasks_created.load(), 1u);
  EXPECT_EQ(db_.rules().stats().firings_merged.load(), 1u);
  EXPECT_EQ(db_.executor().stats().tasks_run.load(), 1u);
}

TEST_F(PaperExampleTest, UniqueOnCompPartitionsPerComposite) {
  ASSERT_OK(
      db_.Execute(CompRuleSql(CompRuleVariant::kUniqueOnComp, 1.0)).status());
  RunT1T2();
  db_.simulated()->RunUntilQuiescent();
  EXPECT_NEAR(CompPrice("c1"), kC1Final, 1e-9);
  EXPECT_NEAR(CompPrice("c2"), kC2Final, 1e-9);
  // Figure 5(c): one queued transaction per composite; T2's rows merged
  // into them (T2 touches c1 via s3 and c2 via s2).
  EXPECT_EQ(db_.rules().stats().tasks_created.load(), 2u);
  EXPECT_EQ(db_.rules().stats().firings_merged.load(), 2u);
  EXPECT_EQ(db_.executor().stats().tasks_run.load(), 2u);
}

TEST_F(PaperExampleTest, DelayWindowSplitsBatches) {
  ASSERT_OK(db_.Execute(CompRuleSql(CompRuleVariant::kUnique, 1.0)).status());
  // T1 at t = 0.
  auto t1 = db_.Begin();
  ASSERT_OK(t1.status());
  ASSERT_OK(db_.ExecuteInTxn(*t1,
                             "update stocks set price = 31.0 "
                             "where symbol = 's1'")
                .status());
  ASSERT_OK(db_.Commit(*t1));
  // Advance virtual time past the 1 s delay window; the queued task runs.
  db_.simulated()->RunUntil(SecondsToMicros(2.0));
  EXPECT_EQ(db_.executor().stats().tasks_run.load(), 1u);
  // T2 at t = 2: a NEW task must be created (the previous one started).
  auto t2 = db_.Begin();
  ASSERT_OK(t2.status());
  ASSERT_OK(db_.ExecuteInTxn(*t2,
                             "update stocks set price = 51.0 "
                             "where symbol = 's3'")
                .status());
  ASSERT_OK(db_.Commit(*t2));
  db_.simulated()->RunUntilQuiescent();
  EXPECT_EQ(db_.rules().stats().tasks_created.load(), 2u);
  EXPECT_EQ(db_.rules().stats().firings_merged.load(), 0u);
  EXPECT_NEAR(CompPrice("c1"), 0.5 * 31 + 0.5 * 51, 1e-9);
}

TEST_F(PaperExampleTest, IntraTransactionMultipleChangesUseExecuteOrder) {
  ASSERT_OK(
      db_.Execute(CompRuleSql(CompRuleVariant::kNonUnique, 0)).status());
  // One transaction changing the same stock twice: the condition query
  // pairs old/new images via execute_order, so both deltas apply.
  auto txn = db_.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK(db_.ExecuteInTxn(*txn,
                             "update stocks set price = 32.0 "
                             "where symbol = 's1'")
                .status());
  ASSERT_OK(db_.ExecuteInTxn(*txn,
                             "update stocks set price = 29.0 "
                             "where symbol = 's1'")
                .status());
  ASSERT_OK(db_.Commit(*txn));
  db_.simulated()->RunUntilQuiescent();
  // c1 = 40 + 0.5 * ((32-30) + (29-32)) = 39.5
  EXPECT_NEAR(CompPrice("c1"), 39.5, 1e-9);
  // c2 = 37 + 0.3 * ((32-30) + (29-32)) = 36.7
  EXPECT_NEAR(CompPrice("c2"), 36.7, 1e-9);
}

}  // namespace
}  // namespace strip
