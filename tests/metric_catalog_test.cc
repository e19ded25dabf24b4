// The metric name catalogue: DESIGN.md §8 lists every metric the engine
// and the server register. A small workload that touches each subsystem
// (a unique rule firing, a generated view with a dimension change, an
// in-process Server) must register exactly the catalogued names.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>

#include "strip/engine/database.h"
#include "strip/net/server.h"
#include "strip/viewmaint/rule_gen.h"
#include "tests/test_util.h"

namespace strip {
namespace {

/// The backticked first cells of the table rows in DESIGN.md §8. A
/// per-function family is written with a `<fn>` suffix.
std::set<std::string> CataloguedNames() {
  std::ifstream in(std::string(STRIP_SOURCE_DIR) + "/DESIGN.md");
  EXPECT_TRUE(in.good()) << "DESIGN.md not found under " << STRIP_SOURCE_DIR;
  std::set<std::string> names;
  bool in_section = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) in_section = line.rfind("## 8.", 0) == 0;
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    names.insert(line.substr(3, line.find('`', 3) - 3));
  }
  return names;
}

/// Whether catalogue entry `entry` names `name`: exactly, or as a family
/// (`rules.exec_us.<fn>` covers every `rules.exec_us.` name).
bool Covers(const std::string& entry, const std::string& name) {
  size_t family = entry.find("<fn>");
  if (family == std::string::npos) return entry == name;
  return name.size() > family && name.compare(0, family, entry, 0, family) == 0;
}

/// Every counter, gauge and histogram name in `metrics`.
std::set<std::string> RegisteredNames(MetricsRegistry& metrics) {
  std::set<std::string> names;
  for (const auto& [name, v] : metrics.CounterValues()) names.insert(name);
  for (const auto& [name, v] : metrics.GaugeValues()) names.insert(name);
  for (const auto& [name, h] : metrics.Histograms()) names.insert(name);
  return names;
}

TEST(MetricCatalog, MatchesTheNamesAWorkloadRegisters) {
  ServerOptions opts;
  opts.schema_sql = R"(
    create table s (sym string, price double);
    create index on s (sym);
    insert into s values ('a', 1.0);
    create table px (sym string, price double);
    create index on px (sym);
    create table members (grp string, sym string, w double);
    create index on members (sym);
    insert into px values ('s1', 10.0), ('s2', 20.0);
    insert into members values ('g1', 's1', 1.0);
    create materialized view idx as
      select grp, sum(px.price * w) as total
      from px, members where px.sym = members.sym group by grp;
  )";
  opts.bootstrap = [](Database& db) -> Status {
    STRIP_RETURN_IF_ERROR(db.RegisterFunction(
        "recompute", [](FunctionContext&) { return Status::OK(); }));
    STRIP_RETURN_IF_ERROR(
        db.Execute("create rule r on s when updated price then "
                   "execute recompute unique after 0.01 seconds")
            .status());
    RuleGenOptions gen;
    gen.delay_seconds = 0.01;
    return GenerateMaintenanceRule(db, "idx", "px", gen).status();
  };
  opts.engine.num_workers = 2;
  ASSERT_OK_AND_ASSIGN(auto server, Server::Start(opts));
  Database& db = server->db();
  // A unique rule firing and a dimension change (the recompute fallback).
  ASSERT_OK(db.Execute("update s set price = 2.0 where sym = 'a'").status());
  ASSERT_OK(db.Execute("insert into members values ('g1', 's2', 0.5)")
                .status());
  db.threaded()->Drain();

  const std::set<std::string> catalogue = CataloguedNames();
  const std::set<std::string> registered = RegisteredNames(db.metrics());
  ASSERT_FALSE(catalogue.empty());
  for (const std::string& name : registered) {
    bool documented = false;
    for (const std::string& entry : catalogue) {
      documented = documented || Covers(entry, name);
    }
    EXPECT_TRUE(documented) << name << " is registered but not in the "
                            << "DESIGN.md §8 catalogue";
  }
  for (const std::string& entry : catalogue) {
    bool seen = false;
    for (const std::string& name : registered) {
      seen = seen || Covers(entry, name);
    }
    EXPECT_TRUE(seen) << entry << " is in the DESIGN.md §8 catalogue but "
                      << "the workload never registered it";
  }
  server->Stop();
}

}  // namespace
}  // namespace strip
