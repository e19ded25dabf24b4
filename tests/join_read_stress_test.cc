// Concurrency stress for the join pipeline's borrowed rows. A join row
// refers to table rows in place and reads their current record through
// them, which is safe only while the execution holds its shared table
// locks. Here a reader thread runs prepared join SELECTs over the tables
// the PTA rules read and write, while feed transactions fire both PTA
// rules (their condition joins) and the rules' actions update the derived
// tables, all on the threaded executor. Run under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "strip/engine/database.h"
#include "strip/feed/feed.h"
#include "strip/market/app_functions.h"
#include "strip/market/populate.h"
#include "strip/market/pta_runner.h"
#include "tests/test_util.h"

namespace strip {
namespace {

TEST(JoinReadStressTest, PreparedJoinsReadWhileRulesFire) {
  TraceOptions trace_opts;
  trace_opts.num_stocks = 60;
  trace_opts.duration_seconds = 10;
  trace_opts.target_updates = 2000;
  trace_opts.seed = 21;
  const MarketTrace trace = MarketTrace::Generate(trace_opts);
  PtaConfig cfg;
  cfg.num_composites = 8;
  cfg.stocks_per_composite = 15;
  cfg.num_options = 150;
  cfg.seed = 22;

  Database::Options opts;
  opts.mode = ExecutorMode::kThreaded;
  opts.num_workers = 2;
  Database db(opts);
  ASSERT_OK(PopulatePtaTables(db, trace, cfg));
  ASSERT_OK(RegisterPtaFunctions(db, cfg.risk_free_rate));
  ASSERT_OK(
      db.Execute(CompRuleSql(CompRuleVariant::kUniqueOnComp, 0.01)).status());
  ASSERT_OK(db.Execute(OptionRuleSql(OptionRuleVariant::kUniqueOnSymbol, 0.01))
                .status());

  // Index probe on stocks, then an index-nested-loop join into the static
  // membership tables; price is a pointer column into the row the feed
  // keeps replacing.
  ASSERT_OK_AND_ASSIGN(
      PreparedStatementPtr comps,
      db.Prepare("select comps_list.comp, stocks.price, weight "
                 "from stocks, comps_list "
                 "where stocks.symbol = ? and comps_list.symbol = "
                 "stocks.symbol"));
  ASSERT_OK_AND_ASSIGN(
      PreparedStatementPtr options,
      db.Prepare("select option_symbol, strike, price "
                 "from options_list, stocks "
                 "where options_list.stock_symbol = stocks.symbol "
                 "and stocks.symbol = ?"));
  std::vector<Value> symbols;
  std::map<std::string, std::pair<size_t, size_t>> expected;
  for (int i = 0; i < trace_opts.num_stocks; ++i) {
    Value sym = Value::Str(StockSymbol(i));
    ASSERT_OK_AND_ASSIGN(ResultSet c, comps->Execute({sym}));
    ASSERT_OK_AND_ASSIGN(ResultSet o, options->Execute({sym}));
    expected[sym.as_string()] = {c.num_rows(), o.num_rows()};
    symbols.push_back(std::move(sym));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::atomic<int> mismatches{0};
  std::thread reader([&] {
    for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const Value& sym = symbols[i % symbols.size()];
      const auto& want = expected[sym.as_string()];
      auto c = comps->Execute({sym});
      auto o = options->Execute({sym});
      if (!c.ok() || !o.ok() || c->num_rows() != want.first ||
          o->num_rows() != want.second) {
        mismatches.fetch_add(1);
      }
      if (c.ok()) {
        for (const std::vector<Value>& row : c->rows) {
          if (row[1].as_double() <= 0) mismatches.fetch_add(1);
        }
      }
      reads.fetch_add(1);
    }
  });

  while (reads.load() == 0) std::this_thread::yield();
  ASSERT_OK_AND_ASSIGN(auto importer, FeedImporter::Create(&db, "stocks"));
  for (const Quote& q : trace.quotes()) {
    FeedRecord rec;
    rec.values = {Value::Str(StockSymbol(q.stock)), Value::Double(q.price)};
    ASSERT_OK(importer->Submit(std::move(rec)));
  }
  db.threaded()->Drain();
  const int reads_during_feed = reads.load();
  stop.store(true);
  reader.join();
  db.threaded()->Drain();

  EXPECT_GT(reads_during_feed, 1);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(db.executor().stats().tasks_failed.load(), 0u);
  EXPECT_GT(db.rules().stats().conditions_true.load(), 0u);
  EXPECT_EQ(importer->records_applied(), trace.quotes().size());
  ASSERT_OK(CheckDerivedDataConsistency(db, cfg.risk_free_rate, 1e-6,
                                        /*check_comps=*/true,
                                        /*check_options=*/true));
}

}  // namespace
}  // namespace strip
