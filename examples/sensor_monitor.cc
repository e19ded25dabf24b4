// Real-time monitoring scenario from the paper's introduction: a dynamic
// environment (sensors) streams base-data updates; derived data (per-zone
// aggregates) is maintained by a batched rule; an alert rule watches the
// derived data. Runs on the THREADED executor — a real worker pool on the
// wall clock, the analogue of STRIP's process pool (§6.2).
//
//   build/examples/sensor_monitor

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "strip/common/logging.h"
#include "strip/engine/database.h"

using namespace strip;

int main() {
  Database::Options opts;
  opts.mode = ExecutorMode::kThreaded;
  opts.num_workers = 2;
  Database db(opts);

  auto check = [](Status st) {
    if (!st.ok()) {
      STRIP_LOG(ERROR, "%s", st.ToString().c_str());
      std::exit(1);
    }
  };

  check(db.ExecuteScript(R"sql(
    create table readings (sensor int, zone string, load double);
    create index on readings (sensor);
    create table zone_load (zone string, total double);
    create table alerts (zone string, total double, at int);
    insert into readings values
      (1, 'dock', 10.0), (2, 'dock', 12.0), (3, 'gate', 5.0), (4, 'gate', 7.0);
    insert into zone_load values ('dock', 22.0), ('gate', 12.0);
  )sql"));

  // Derived-data maintenance: fold reading changes into zone totals,
  // batched per zone over a 50 ms window (sensors report in bursts).
  check(db.RegisterFunction("fold_zone", [](FunctionContext& ctx) -> Status {
    const TempTable* d = ctx.BoundTable("delta");
    int zone = d->schema().FindColumn("zone");
    int oldv = d->schema().FindColumn("old_load");
    int newv = d->schema().FindColumn("new_load");
    if (d->size() == 0) return Status::OK();
    double change = 0;
    for (size_t i = 0; i < d->size(); ++i) {
      change += d->Get(i, newv).as_double() - d->Get(i, oldv).as_double();
    }
    auto n = ctx.Exec("update zone_load set total += " +
                      std::to_string(change) + " where zone = '" +
                      d->Get(0, zone).as_string() + "'");
    return n.status();
  }));
  check(db.Execute(R"sql(
    create rule maintain_zone_load on readings
    when updated load
    if
      select new.zone as zone, old.load as old_load, new.load as new_load
      from new, old
      where new.execute_order = old.execute_order
      bind as delta
    then execute fold_zone
    unique on zone
    after 0.05 seconds
  )sql").status());

  // Alerting on the DERIVED data: rules cascade — the recompute
  // transaction's own commit triggers this rule. The alert row records the
  // triggering transaction's commit time via the commit_time column (§2).
  check(db.RegisterFunction("raise_alert", [](FunctionContext& ctx) -> Status {
    const TempTable* hot = ctx.BoundTable("hot");
    for (size_t i = 0; i < hot->size(); ++i) {
      std::vector<Value> row = hot->MaterializeRow(i);
      auto n = ctx.Exec("insert into alerts values ('" +
                        row[0].as_string() + "', " +
                        std::to_string(row[1].as_double()) + ", " +
                        std::to_string(row[2].as_int()) + ")");
      if (!n.ok()) return n.status();
    }
    return Status::OK();
  }));
  check(db.Execute(R"sql(
    create rule watch_zones on zone_load
    when updated total
    if
      select new.zone as zone, new.total as total, commit_time
      from new
      where new.total > 40.0
      bind as hot
    then execute raise_alert
  )sql").status());

  // Simulate two sensor bursts arriving from the environment.
  std::printf("streaming sensor bursts...\n");
  for (int burst = 0; burst < 2; ++burst) {
    for (int i = 0; i < 4; ++i) {
      check(db.Execute("update readings set load += 3.5 where sensor = " +
                       std::to_string(1 + (i % 2)))
                .status());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  }
  db.threaded()->Drain();

  std::printf("\nzone totals:\n%s",
              db.Execute("select * from zone_load order by zone")
                  ->ToString().c_str());
  std::printf("\nalerts raised (batching kept recomputes to %llu):\n%s",
              static_cast<unsigned long long>(
                  db.rules().stats().tasks_created.load()),
              db.Execute("select zone, total from alerts order by at")
                  ->ToString().c_str());
  return 0;
}
