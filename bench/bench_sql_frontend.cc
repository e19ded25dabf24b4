// SQL-front-end cost of the single-tuple update transaction (the workload
// unit of §4.3) and its SELECT counterpart, across the statement-execution
// modes of one binary:
//
//   uncached   textual SQL with inline literals, parsed on every execution
//              and run as a Statement — the full parse + resolve + plan +
//              compile cost every time
//   cached     textual SQL routed through the LRU plan cache (a small
//              rotating statement set, so executions mostly hit)
//   prepared   one PreparedStatement handle, '?' params rebound per
//              execution — frozen input set, index probe, slot-compiled
//              programs
//
// Emits BENCH_sql_frontend.json with per-mode timings and the
// prepared-vs-uncached speedup (the headline number for EXPERIMENTS.md
// "Table 1 revisited").

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pta_bench_common.h"
#include "strip/engine/database.h"
#include "strip/sql/parser.h"

namespace strip {
namespace {

constexpr int kRows = 10000;
constexpr int kWarmup = 2000;
constexpr int kIters = 20000;

std::unique_ptr<Database> MakeDb() {
  Database::Options opts;
  opts.mode = ExecutorMode::kSimulated;
  auto db = std::make_unique<Database>(opts);
  Status st = db->ExecuteScript(
      "create table t (k string, v double); create index on t (k)");
  if (!st.ok()) std::abort();
  Table* t = db->catalog().FindTable("t");
  for (int i = 0; i < kRows; ++i) {
    auto r = t->Insert(MakeRecord(
        {Value::Str("k" + std::to_string(i)), Value::Double(i)}));
    if (!r.ok()) std::abort();
  }
  return db;
}

struct ModeResult {
  std::string name;
  int iters = 0;
  double us_per_op = 0;
};

/// Runs `op(i)` kWarmup untimed + kIters timed times; aborts on error so a
/// silently failing mode cannot report a fantasy number.
ModeResult TimeMode(const std::string& name,
                    const std::function<Status(int)>& op) {
  for (int i = 0; i < kWarmup; ++i) {
    Status st = op(i);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), st.ToString().c_str());
      std::abort();
    }
  }
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    Status st = op(i);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), st.ToString().c_str());
      std::abort();
    }
  }
  auto end = std::chrono::steady_clock::now();
  ModeResult r;
  r.name = name;
  r.iters = kIters;
  r.us_per_op =
      std::chrono::duration<double, std::micro>(end - start).count() /
      kIters;
  return r;
}

std::string UpdateSql(int i) {
  int key = i % kRows;
  return "update t set v = " + std::to_string((i % 97) + 0.5) +
         " where k = 'k" + std::to_string(key) + "'";
}

Status CheckOneRow(const Result<ResultSet>& rs) {
  if (!rs.ok()) return rs.status();
  if (rs->num_rows() != 1) return Status::Internal("expected 1 row");
  return Status::OK();
}

/// The uncached mode: parse on every execution, run the parsed Statement.
Result<ResultSet> ParseAndExecute(Database& db, const std::string& sql) {
  STRIP_ASSIGN_OR_RETURN(Statement stmt, Parser::ParseStatement(sql));
  return db.Execute(stmt);
}

}  // namespace
}  // namespace strip

int main() {
  using namespace strip;
  std::vector<ModeResult> results;

  // --- update transaction, uncached textual SQL -------------------------
  {
    auto db = MakeDb();
    results.push_back(TimeMode("update_uncached", [&](int i) {
      return ParseAndExecute(*db, UpdateSql(i)).status();
    }));
  }

  // --- update transaction, textual SQL through the plan cache -----------
  {
    auto db = MakeDb();
    // A rotating set of 64 distinct statements: realistic hot-statement
    // reuse, far below cache capacity.
    std::vector<std::string> stmts;
    for (int i = 0; i < 64; ++i) stmts.push_back(UpdateSql(i));
    results.push_back(TimeMode("update_cached", [&](int i) {
      return db->Execute(stmts[static_cast<size_t>(i % 64)]).status();
    }));
  }

  // --- update transaction, prepared handle + params ----------------------
  {
    auto db = MakeDb();
    auto ps = db->Prepare("update t set v = ? where k = ?");
    if (!ps.ok()) std::abort();
    results.push_back(TimeMode("update_prepared", [&](int i) {
      return (*ps)
          ->Execute({Value::Double((i % 97) + 0.5),
                     Value::Str("k" + std::to_string(i % kRows))})
          .status();
    }));
  }

  // --- single-row SELECT, uncached vs prepared ---------------------------
  {
    auto db = MakeDb();
    results.push_back(TimeMode("select_uncached", [&](int i) {
      return CheckOneRow(ParseAndExecute(
          *db, "select v from t where k = 'k" + std::to_string(i % kRows) +
                   "'"));
    }));
  }
  {
    auto db = MakeDb();
    auto ps = db->Prepare("select v from t where k = ?");
    if (!ps.ok()) std::abort();
    results.push_back(TimeMode("select_prepared", [&](int i) {
      return CheckOneRow((*ps)->Execute(
          {Value::Str("k" + std::to_string(i % kRows))}));
    }));
  }

  std::printf("%-28s %10s %12s\n", "mode", "iters", "us/op");
  for (const ModeResult& r : results) {
    std::printf("%-28s %10d %12.3f\n", r.name.c_str(), r.iters,
                r.us_per_op);
  }

  auto find = [&](const char* name) -> const ModeResult& {
    for (const ModeResult& r : results) {
      if (r.name == name) return r;
    }
    std::abort();
  };
  double update_speedup = find("update_uncached").us_per_op /
                          find("update_prepared").us_per_op;
  double select_speedup = find("select_uncached").us_per_op /
                          find("select_prepared").us_per_op;
  std::printf("\nprepared-vs-uncached speedup: update %.2fx, select %.2fx\n",
              update_speedup, select_speedup);

  bench::BenchReport report("sql_frontend");
  report.Config([&](JsonWriter& w) {
    w.Key("rows").Int(kRows);
    w.Key("warmup").Int(kWarmup);
    w.Key("iters").Int(kIters);
  });
  report.Metrics([&](JsonWriter& w) {
    w.Key("modes").BeginArray();
    for (const ModeResult& r : results) {
      w.BeginObject();
      w.Key("name").String(r.name);
      w.Key("iters").Int(r.iters);
      w.Key("us_per_op").Double(r.us_per_op);
      w.EndObject();
    }
    w.EndArray();
    w.Key("update_prepared_speedup_vs_uncached").Double(update_speedup);
    w.Key("select_prepared_speedup_vs_uncached").Double(select_speedup);
    w.Key("meets_2x_target").Bool(update_speedup >= 2.0);
  });
  if (!report.WriteFile("BENCH_sql_frontend.json")) {
    std::fprintf(stderr, "cannot write BENCH_sql_frontend.json\n");
    return 1;
  }
  return 0;
}
