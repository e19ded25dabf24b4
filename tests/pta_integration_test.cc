// Integration tests of the full program-trading pipeline (§3-§5) at a
// reduced scale: trace generation, table population, rule installation,
// trace replay under the discrete-event executor, and — the key
// correctness property — that every batching variant leaves the
// materialized views exactly consistent with a from-scratch recomputation
// once the system quiesces.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "strip/common/string_util.h"
#include "strip/market/app_functions.h"
#include "strip/market/pta_runner.h"

namespace strip {
namespace {

#define ASSERT_OK(expr)                              \
  do {                                               \
    auto _st = (expr);                               \
    ASSERT_TRUE(_st.ok()) << _st.ToString();         \
  } while (0)

TraceOptions SmallTrace() {
  TraceOptions t;
  t.num_stocks = 120;
  t.duration_seconds = 30;
  t.target_updates = 600;
  t.seed = 11;
  return t;
}

PtaConfig SmallPta() {
  PtaConfig c;
  c.num_composites = 12;
  c.stocks_per_composite = 20;
  c.num_options = 300;
  c.seed = 13;
  return c;
}

class PtaIntegrationTest : public ::testing::Test {
 protected:
  static const MarketTrace& Trace() {
    static const MarketTrace* trace =
        new MarketTrace(MarketTrace::Generate(SmallTrace()));
    return *trace;
  }

  PtaRunResult RunComp(CompRuleVariant v, double delay) {
    PtaExperiment exp(Trace(), SmallPta());
    Status st = exp.Setup(CompRuleSql(v, delay));
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto result = exp.Run();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->failed_tasks, 0u);
    st = CheckDerivedDataConsistency(exp.db(), 0.05, 1e-6,
                                     /*check_comps=*/true,
                                     /*check_options=*/false);
    EXPECT_TRUE(st.ok()) << CompRuleVariantName(v) << " delay " << delay
                         << ": " << st.ToString();
    return result.ok() ? *result : PtaRunResult{};
  }

  PtaRunResult RunOption(OptionRuleVariant v, double delay) {
    PtaExperiment exp(Trace(), SmallPta());
    Status st = exp.Setup(OptionRuleSql(v, delay));
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto result = exp.Run();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->failed_tasks, 0u);
    st = CheckDerivedDataConsistency(exp.db(), 0.05, 1e-6,
                                     /*check_comps=*/false,
                                     /*check_options=*/true);
    EXPECT_TRUE(st.ok()) << OptionRuleVariantName(v) << " delay " << delay
                         << ": " << st.ToString();
    return result.ok() ? *result : PtaRunResult{};
  }
};

TEST_F(PtaIntegrationTest, PopulationShapesMatchConfig) {
  PtaExperiment exp(Trace(), SmallPta());
  ASSERT_OK(exp.Setup(""));
  Database& db = exp.db();
  EXPECT_EQ(db.catalog().FindTable("stocks")->size(), 120u);
  EXPECT_EQ(db.catalog().FindTable("comps_list")->size(), 12u * 20u);
  EXPECT_EQ(db.catalog().FindTable("comp_prices")->size(), 12u);
  EXPECT_EQ(db.catalog().FindTable("options_list")->size(), 300u);
  EXPECT_EQ(db.catalog().FindTable("option_prices")->size(), 300u);
  // Freshly materialized views are consistent by construction.
  ASSERT_OK(CheckDerivedDataConsistency(db, 0.05, 1e-9, true, true));
}

TEST_F(PtaIntegrationTest, BaselineNoRuleLeavesViewsStale) {
  PtaExperiment exp(Trace(), SmallPta());
  ASSERT_OK(exp.Setup(""));
  auto result = exp.Run();
  ASSERT_OK(result.status());
  EXPECT_EQ(result->num_recomputes, 0u);
  EXPECT_EQ(result->num_updates, Trace().quotes().size());
  // Without maintenance rules the views drift from base data.
  Status st = CheckDerivedDataConsistency(exp.db(), 0.05, 1e-6, true, false);
  EXPECT_FALSE(st.ok());
}

TEST_F(PtaIntegrationTest, NonUniqueCompRuleMaintainsView) {
  PtaRunResult r = RunComp(CompRuleVariant::kNonUnique, 0);
  // One recompute transaction per triggering update (§5.1): every update
  // whose stock is in some composite fires one task.
  EXPECT_GT(r.num_recomputes, 0u);
  EXPECT_LE(r.num_recomputes, r.num_updates);
  EXPECT_EQ(r.firings_merged, 0u);
}

TEST_F(PtaIntegrationTest, CoarseUniqueCompRuleBatches) {
  PtaRunResult nonunique = RunComp(CompRuleVariant::kNonUnique, 0);
  PtaRunResult unique = RunComp(CompRuleVariant::kUnique, 2.0);
  // Coarse batching runs the fewest recompute transactions (Figure 10).
  EXPECT_LT(unique.num_recomputes, nonunique.num_recomputes);
  EXPECT_GT(unique.firings_merged, 0u);
}

TEST_F(PtaIntegrationTest, UniqueOnCompRunsMoreTasksThanCoarse) {
  PtaRunResult coarse = RunComp(CompRuleVariant::kUnique, 1.0);
  PtaRunResult on_comp = RunComp(CompRuleVariant::kUniqueOnComp, 1.0);
  // Per-composite batching creates many more (smaller) transactions
  // (Figure 10: about an order of magnitude more than non-unique).
  EXPECT_GT(on_comp.num_recomputes, coarse.num_recomputes);
  // ...but each is much shorter (Figure 11): it is handed far fewer bound
  // tuples, which is what its length is made of.
  EXPECT_LT(on_comp.avg_recompute_tuples, coarse.avg_recompute_tuples);
}

TEST_F(PtaIntegrationTest, UniqueOnSymbolCompRuleConsistent) {
  PtaRunResult r = RunComp(CompRuleVariant::kUniqueOnSymbol, 1.0);
  EXPECT_GT(r.num_recomputes, 0u);
}

TEST_F(PtaIntegrationTest, LongerDelayMeansFewerRecomputes) {
  PtaRunResult d_half = RunComp(CompRuleVariant::kUniqueOnComp, 0.5);
  PtaRunResult d_three = RunComp(CompRuleVariant::kUniqueOnComp, 3.0);
  // Figure 10: the recomputation count decreases with the delay window.
  EXPECT_LT(d_three.num_recomputes, d_half.num_recomputes);
}

TEST_F(PtaIntegrationTest, NonUniqueOptionRuleMaintainsView) {
  PtaRunResult r = RunOption(OptionRuleVariant::kNonUnique, 0);
  EXPECT_GT(r.num_recomputes, 0u);
}

TEST_F(PtaIntegrationTest, UniqueOptionRulesBatchAndStayConsistent) {
  PtaRunResult coarse = RunOption(OptionRuleVariant::kUnique, 2.0);
  PtaRunResult on_symbol = RunOption(OptionRuleVariant::kUniqueOnSymbol, 2.0);
  EXPECT_GT(coarse.firings_merged, 0u);
  // Batching on stock symbol runs far more transactions than coarse
  // (Figure 13) but they are far shorter (Figure 14).
  EXPECT_GT(on_symbol.num_recomputes, coarse.num_recomputes);
  EXPECT_LT(on_symbol.avg_recompute_tuples, coarse.avg_recompute_tuples);
}

TEST_F(PtaIntegrationTest, UniqueOnOptionSymbolExplodesTaskCount) {
  PtaRunResult on_opt =
      RunOption(OptionRuleVariant::kUniqueOnOptionSymbol, 1.0);
  PtaRunResult on_symbol = RunOption(OptionRuleVariant::kUniqueOnSymbol, 1.0);
  // §5.2: the fan-out from stocks to options makes per-option batching
  // create an unmanageable number of transactions.
  EXPECT_GT(on_opt.num_recomputes, on_symbol.num_recomputes);
}

/// A virtual-clock PTA database (the clock advances only to release
/// times, so batching is deterministic) with the small tables, the
/// maintenance functions and the benchmark's two rule shapes: `unique on
/// comp` feeding compute_comps3 and `unique on stock_symbol` feeding
/// compute_options2, both with a 1 s window.
class PtaReplay {
 public:
  PtaReplay() : db_(Options()) {}

  static const MarketTrace& Trace() {
    static const MarketTrace* trace =
        new MarketTrace(MarketTrace::Generate(SmallTrace()));
    return *trace;
  }

  Status Setup() {
    STRIP_RETURN_IF_ERROR(PopulatePtaTables(db_, Trace(), cfg_));
    STRIP_RETURN_IF_ERROR(RegisterPtaFunctions(db_, cfg_.risk_free_rate));
    STRIP_RETURN_IF_ERROR(
        db_.Execute(CompRuleSql(CompRuleVariant::kUniqueOnComp, 1.0))
            .status());
    STRIP_RETURN_IF_ERROR(
        db_.Execute(OptionRuleSql(OptionRuleVariant::kUniqueOnSymbol, 1.0))
            .status());
    STRIP_ASSIGN_OR_RETURN(
        update_, db_.Prepare("update stocks set price = ? where symbol = ?"));
    return Status::OK();
  }

  /// Submits quotes [begin, end) of the trace as update transactions
  /// released at their trace times, and runs to quiescence.
  void Replay(size_t begin, size_t end) {
    const std::vector<Quote>& quotes = Trace().quotes();
    for (size_t i = begin; i < end && i < quotes.size(); ++i) {
      const Quote q = quotes[i];
      TaskPtr task = db_.NewTask();
      task->release_time = q.time;
      task->work = [this, q](TaskControlBlock&) -> Status {
        STRIP_ASSIGN_OR_RETURN(Transaction * txn, db_.Begin());
        txn->set_arrival_time(q.time);
        auto n = update_->ExecuteDml(
            txn, {Value::Double(q.price), Value::Str(StockSymbol(q.stock))});
        if (!n.ok() || *n != 1) {
          Status ignored = db_.Abort(txn);
          (void)ignored;
          return n.ok() ? Status::Internal("stock not found") : n.status();
        }
        return db_.Commit(txn);
      };
      db_.Submit(task);
    }
    db_.simulated()->RunUntilQuiescent();
  }

  Status CheckViews() {
    return CheckDerivedDataConsistency(db_, cfg_.risk_free_rate, 1e-6,
                                       /*check_comps=*/true,
                                       /*check_options=*/true);
  }

  Database& db() { return db_; }

 private:
  static Database::Options Options() {
    Database::Options opts;
    opts.advance_clock_by_cost = false;
    return opts;
  }

  Database db_;
  const PtaConfig cfg_ = SmallPta();
  PreparedStatementPtr update_;
};

/// 64-bit FNV-1a over a sequence of strings, each followed by a separator
/// byte so that ("ab", "c") and ("a", "bc") differ.
struct Fnv1a {
  uint64_t value = 0xcbf29ce484222325ull;

  void Add(const std::string& s) {
    for (unsigned char ch : s) Mix(ch);
    Mix(0xff);
  }
  void Mix(unsigned char ch) {
    value ^= ch;
    value *= 0x100000001b3ull;
  }
};

// The rules layer's work-count gate: the replay above, whole. Every count
// below is exact, and so is the digest of what the actions received: a
// change to how firings are planned, partitioned or merged must leave each
// of them identical.
TEST(RulesWorkCountGate, PtaReplayCountsArePinned) {
  PtaReplay pta;
  ASSERT_OK(pta.Setup());
  Database& db = pta.db();

  struct Delivered {
    uint64_t tasks = 0;
    uint64_t tuples = 0;
    uint64_t firings = 0;
  };
  std::map<std::string, Delivered> delivered;
  uint64_t failed = 0;
  // What the actions received, in delivery order: per task its function
  // and unique key, then every bound tuple's column values, table by
  // table in bound order.
  Fnv1a digest;
  db.executor().set_task_observer([&](const TaskControlBlock& t) {
    if (!t.result.ok()) ++failed;
    if (t.function_name.empty()) return;  // a feed update
    Delivered& d = delivered[t.function_name];
    ++d.tasks;
    d.tuples += t.bound_tables.TotalTuples();
    d.firings += t.batched_firings;
    digest.Add(t.function_name);
    for (const Value& v : t.unique_key) digest.Add(v.ToString());
    for (const TempTable& table : t.bound_tables.tables()) {
      digest.Add(table.name());
      for (size_t row = 0; row < table.size(); ++row) {
        for (int c = 0; c < table.schema().num_columns(); ++c) {
          digest.Add(table.Get(row, c).ToString());
        }
      }
    }
  });
  pta.Replay(0, PtaReplay::Trace().quotes().size());
  db.executor().set_task_observer(nullptr);

  EXPECT_EQ(failed, 0u);
  const RuleStats& rs = db.rules().stats();
  EXPECT_EQ(rs.rules_triggered.load(), 1196u);
  EXPECT_EQ(rs.conditions_true.load(), 1069u);
  EXPECT_EQ(rs.tasks_created.load(), 413u);
  EXPECT_EQ(rs.firings_merged.load(), 1507u);
  EXPECT_EQ(delivered["compute_comps3"].tasks, 228u);
  EXPECT_EQ(delivered["compute_comps3"].tuples, 1361u);
  EXPECT_EQ(delivered["compute_comps3"].firings, 1361u);
  EXPECT_EQ(delivered["compute_options2"].tasks, 185u);
  EXPECT_EQ(delivered["compute_options2"].tuples, 1817u);
  EXPECT_EQ(delivered["compute_options2"].firings, 559u);
  EXPECT_EQ(digest.value, 0xa33eb8048e6ccb7aull) << std::hex << digest.value;
  // Lock grants, setup included (re-entries are not counted), and the
  // rows each PTA action read by scanning. Every action reads through
  // index probes, so a nonzero scan count means a probe was lost.
  std::map<std::string, uint64_t> counters = db.metrics().CounterValues();
  EXPECT_EQ(counters.at("locks.acquires"), 2402u);
  EXPECT_EQ(counters.at("rules.cost.rows_scanned.compute_comps3"), 0u);
  EXPECT_EQ(counters.at("rules.cost.rows_scanned.compute_options2"), 0u);
  ASSERT_OK(pta.CheckViews());
}

// Rule conditions run plans cached per catalog generation. Recreating a
// table they read, with its columns in another order and no index, and
// then indexing it, must each rebuild the plans before the next firing:
// the views still equal a recompute afterwards.
TEST(RulePlanInvalidation, RecreatedThenIndexedCompsListKeepsViewsRight) {
  PtaReplay pta;
  ASSERT_OK(pta.Setup());
  Database& db = pta.db();
  const size_t n = PtaReplay::Trace().quotes().size();
  pta.Replay(0, n / 3);
  ASSERT_OK(pta.CheckViews());
  const uint64_t fired = db.rules().stats().conditions_true.load();

  auto rows = db.Execute("select comp, symbol, weight from comps_list");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_OK(db.ExecuteScript(R"(
    drop table comps_list;
    create table comps_list (weight double, symbol string, comp string);
  )"));
  for (const auto& r : rows->rows) {
    ASSERT_OK(db.Execute(StrFormat(
                             "insert into comps_list values (%s, '%s', '%s')",
                             r[2].ToString().c_str(),
                             r[1].as_string().c_str(),
                             r[0].as_string().c_str()))
                  .status());
  }
  pta.Replay(n / 3, 2 * n / 3);
  ASSERT_OK(pta.CheckViews());
  EXPECT_GT(db.rules().stats().conditions_true.load(), fired);

  ASSERT_OK(db.Execute("create index on comps_list (symbol)").status());
  pta.Replay(2 * n / 3, n);
  ASSERT_OK(pta.CheckViews());
  EXPECT_EQ(db.executor().stats().tasks_failed.load(), 0u);
}

}  // namespace
}  // namespace strip
