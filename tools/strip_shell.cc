// strip_shell — an interactive SQL shell over the STRIP engine.
//
//   build/tools/strip_shell [script.sql ...]
//
// Executes any script files given on the command line, then reads
// statements from stdin (';'-terminated, possibly spanning lines).
// Meta commands:
//   .tables          list tables with row counts
//   .schema <table>  show a table's columns
//   .rules           list rules
//   .views           list views
//   .run             drain the simulated executor (fire due rule actions)
//   .advance <sec>   advance virtual time by <sec> seconds, running tasks
//   .stats           rule / executor counters
//   .health          watchdog verdict + top rules by exec-time share
//   .metrics         full metrics-registry snapshot as JSON
//   .trace <file>    write the lifecycle trace ring as Chrome trace JSON
//                    (load in chrome://tracing); no arg prints to stdout
//   .explain <sql;>  show the executor's plan decisions for a SELECT
//   .quit            exit

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include <algorithm>
#include <memory>
#include <vector>

#include "strip/engine/database.h"
#include "strip/obs/watchdog.h"
#include "strip/sql/parser.h"
#include "strip/viewmaint/view_def.h"

namespace strip {
namespace {

void PrintResult(const ResultSet& rs) {
  if (rs.schema.num_columns() == 0) {
    std::printf("ok\n");
    return;
  }
  std::printf("%s", rs.ToString().c_str());
  std::printf("(%zu row%s)\n", rs.num_rows(),
              rs.num_rows() == 1 ? "" : "s");
}

void ExecuteAndPrint(Database& db, const std::string& sql) {
  auto stmts = Parser::ParseScript(sql);
  if (!stmts.ok()) {
    std::printf("error: %s\n", stmts.status().ToString().c_str());
    return;
  }
  if (stmts->size() == 1) {
    // Single statement: execute by text so it goes through the plan cache
    // (a re-typed statement reuses its prepared handle; see .stats).
    auto result = db.Execute(sql);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    PrintResult(*result);
    return;
  }
  for (const Statement& stmt : *stmts) {
    auto result = db.Execute(stmt);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    PrintResult(*result);
  }
}

bool HandleMeta(Database& db, const std::string& line) {
  std::istringstream in(line);
  std::string cmd, arg;
  in >> cmd >> arg;
  if (cmd == ".quit" || cmd == ".exit") {
    std::exit(0);
  }
  if (cmd == ".tables") {
    for (const auto& name : db.catalog().ListTables()) {
      std::printf("%-24s %zu rows\n", name.c_str(),
                  db.catalog().FindTable(name)->size());
    }
    return true;
  }
  if (cmd == ".schema") {
    Table* t = db.catalog().FindTable(arg);
    if (t == nullptr) {
      std::printf("no table '%s'\n", arg.c_str());
    } else {
      std::printf("%s %s\n", t->name().c_str(),
                  t->schema().ToString().c_str());
    }
    return true;
  }
  if (cmd == ".rules") {
    for (const auto& name : db.rules().ListRules()) {
      const RuleDef* r = db.rules().FindRule(name);
      std::printf("%-24s on %-16s -> %s%s%s\n", name.c_str(),
                  r->table().c_str(), r->function_name().c_str(),
                  r->unique() ? " [unique]" : "",
                  r->enabled() ? "" : " (disabled)");
    }
    return true;
  }
  if (cmd == ".views") {
    for (const auto& name : db.views().ListViews()) {
      std::printf("%-24s %s\n", name.c_str(),
                  db.views().Find(name)->materialized ? "materialized"
                                                      : "virtual");
    }
    return true;
  }
  if (cmd == ".run") {
    db.simulated()->RunUntilQuiescent();
    std::printf("quiescent at t=%.3fs\n", MicrosToSeconds(db.Now()));
    return true;
  }
  if (cmd == ".advance") {
    double sec = arg.empty() ? 1.0 : std::atof(arg.c_str());
    db.simulated()->RunUntil(db.Now() + SecondsToMicros(sec));
    std::printf("t=%.3fs\n", MicrosToSeconds(db.Now()));
    return true;
  }
  if (cmd == ".explain") {
    std::string sql = line.substr(std::string(".explain").size());
    auto trace = db.Explain(sql);
    if (!trace.ok()) {
      std::printf("error: %s\n", trace.status().ToString().c_str());
    } else {
      for (const auto& step : *trace) std::printf("  %s\n", step.c_str());
    }
    return true;
  }
  if (cmd == ".stats") {
    std::map<std::string, uint64_t> c = db.metrics().CounterValues();
    auto n = [&c](const char* name) { return (unsigned long long)c[name]; };
    std::printf("rules: %llu triggered, %llu conditions true, "
                "%llu tasks created, %llu firings merged\n",
                n("rules.rules_triggered"), n("rules.conditions_true"),
                n("rules.tasks_created"), n("rules.firings_merged"));
    std::printf("executor: %llu tasks run (%llu failed), busy %.3fs, "
                "t=%.3fs\n",
                n("executor.tasks_run"), n("executor.tasks_failed"),
                MicrosToSeconds(
                    static_cast<Timestamp>(c["executor.busy_micros"])),
                MicrosToSeconds(db.Now()));
    std::printf("plan cache: %.0f entries (cap %zu), %llu hits, %llu "
                "misses\n",
                db.metrics().GaugeValues()["db.plan_cache.entries"],
                db.options().plan_cache_capacity, n("db.plan_cache.hits"),
                n("db.plan_cache.misses"));
    return true;
  }
  if (cmd == ".health") {
    // One watchdog for the shell's lifetime: each .health judges the
    // interval since the previous one (the first only sets baselines).
    static std::unique_ptr<Watchdog> dog;
    if (dog == nullptr) {
      WatchdogSlo slo;
      slo.staleness_p99_us = SecondsToMicros(0.5);
      slo.queue_wait_p99_us = SecondsToMicros(0.5);
      slo.max_lock_abort_rate = 0.05;
      dog = std::make_unique<Watchdog>(&db.metrics(), slo);
    }
    WatchdogVerdict v = dog->Evaluate(db.Now());
    std::printf("watchdog: %s\n", v.ToJson().c_str());
    // Top rules by share of total rule execution time.
    auto hists = db.metrics().Histograms("rules.exec_us.");
    double total = 0;
    std::vector<std::pair<std::string, double>> shares;
    for (const auto& [name, h] : hists) {
      double us = static_cast<double>(h->sum());
      total += us;
      shares.emplace_back(name.substr(std::string("rules.exec_us.").size()),
                          us);
    }
    std::sort(shares.begin(), shares.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    if (shares.empty() || total == 0) {
      std::printf("no rule executions recorded yet\n");
    } else {
      size_t top = std::min<size_t>(3, shares.size());
      for (size_t i = 0; i < top; ++i) {
        std::printf("  %-24s %8.0f us  %5.1f%%\n", shares[i].first.c_str(),
                    shares[i].second, 100.0 * shares[i].second / total);
      }
    }
    return true;
  }
  if (cmd == ".metrics") {
    std::printf("%s\n", db.metrics().SnapshotJson().c_str());
    return true;
  }
  if (cmd == ".trace") {
    std::string json = db.trace_ring().ToChromeJson();
    if (arg.empty()) {
      std::printf("%s\n", json.c_str());
    } else {
      std::ofstream out(arg);
      if (!out) {
        std::printf("cannot open %s\n", arg.c_str());
      } else {
        out << json;
        std::printf("wrote %zu trace events to %s\n",
                    db.trace_ring().Snapshot().size(), arg.c_str());
      }
    }
    return true;
  }
  if (!cmd.empty() && cmd[0] == '.') {
    std::printf("unknown command %s\n", cmd.c_str());
    return true;
  }
  return false;
}

int Run(int argc, char** argv) {
  Database::Options opts;
  opts.mode = ExecutorMode::kSimulated;
  opts.advance_clock_by_cost = false;
  Database db(opts);

  for (int i = 1; i < argc; ++i) {
    std::ifstream file(argv[i]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    std::stringstream buf;
    buf << file.rdbuf();
    Status st = db.ExecuteScript(buf.str());
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[i], st.ToString().c_str());
      return 1;
    }
    std::printf("loaded %s\n", argv[i]);
  }

  std::printf("STRIP shell. End statements with ';'. "
              "'.quit' to exit, '.tables'/'.rules'/'.stats' to inspect.\n");
  std::string pending;
  std::string line;
  while (true) {
    std::printf("%s", pending.empty() ? "strip> " : "  ...> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (pending.empty()) {
      std::string trimmed = line;
      while (!trimmed.empty() && std::isspace(
                 static_cast<unsigned char>(trimmed.front()))) {
        trimmed.erase(trimmed.begin());
      }
      if (trimmed.empty()) continue;
      if (trimmed[0] == '.') {
        HandleMeta(db, trimmed);
        continue;
      }
    }
    pending += line + "\n";
    if (line.find(';') != std::string::npos) {
      ExecuteAndPrint(db, pending);
      pending.clear();
    }
  }
  return 0;
}

}  // namespace
}  // namespace strip

int main(int argc, char** argv) { return strip::Run(argc, argv); }
