// Quickstart: a table, a derived table, and one STRIP rule with a unique
// transaction that batches changes across transaction boundaries (§2).
//
//   build/examples/quickstart

#include <cstdio>

#include "strip/common/logging.h"
#include "strip/engine/database.h"

using strip::Database;
using strip::FunctionContext;
using strip::SecondsToMicros;
using strip::Status;
using strip::TempTable;

int main() {
  // A simulated-clock database: deterministic, single-server. Use
  // ExecutorMode::kThreaded for a real worker pool on the wall clock.
  Database::Options opts;
  opts.mode = strip::ExecutorMode::kSimulated;
  opts.advance_clock_by_cost = false;  // pure logical time for the demo
  Database db(opts);

  auto check = [](Status st) {
    if (!st.ok()) {
      STRIP_LOG(ERROR, "%s", st.ToString().c_str());
      std::exit(1);
    }
  };

  // Base data: account balances. Derived data: one total per branch.
  check(db.ExecuteScript(R"sql(
    create table accounts (id int, branch string, balance double);
    create index on accounts (branch);
    create table branch_totals (branch string, total double);
    insert into accounts values
      (1, 'north', 100.0), (2, 'north', 250.0), (3, 'south', 75.0);
    insert into branch_totals values ('north', 350.0), ('south', 75.0);
  )sql"));

  // The rule action: a black-box C++ function (§2). It sees the changes
  // batched into its bound table `delta` and folds them into the totals.
  check(db.RegisterFunction("recompute_totals", [](FunctionContext& ctx) {
    const TempTable* delta = ctx.BoundTable("delta");
    int branch = delta->schema().FindColumn("branch");
    int oldb = delta->schema().FindColumn("old_balance");
    int newb = delta->schema().FindColumn("new_balance");
    for (size_t i = 0; i < delta->size(); ++i) {
      double change = delta->Get(i, newb).as_double() -
                      delta->Get(i, oldb).as_double();
      auto n = ctx.Exec(
          "update branch_totals set total += " + std::to_string(change) +
          " where branch = '" + delta->Get(i, branch).as_string() + "'");
      if (!n.ok()) return n.status();
    }
    return Status::OK();
  }));

  // The rule (Figure 2 syntax): batch all balance changes that arrive
  // within a 1-second window into ONE recompute transaction, partitioned
  // per branch (`unique on branch`).
  check(db.Execute(R"sql(
    create rule keep_totals on accounts
    when updated balance
    if
      select new.branch as branch, old.balance as old_balance,
             new.balance as new_balance
      from new, old
      where new.execute_order = old.execute_order
      bind as delta
    then execute recompute_totals
    unique on branch
    after 1.0 seconds
  )sql").status());

  // A burst of updates: three transactions within the delay window.
  check(db.Execute("update accounts set balance += 10.0 where id = 1").status());
  check(db.Execute("update accounts set balance += 5.0 where id = 2").status());
  check(db.Execute("update accounts set balance -= 25.0 where id = 3").status());

  std::printf("before the delay window closes:\n%s\n",
              db.Execute("select * from branch_totals order by branch")
                  ->ToString().c_str());

  // Let simulated time pass the 1-second window: the batched recompute
  // runs — one transaction for 'north' (two changes merged), one for
  // 'south'.
  db.simulated()->RunUntil(SecondsToMicros(2.0));

  std::printf("after (%llu recompute task(s), %llu firing(s) merged):\n%s",
              static_cast<unsigned long long>(
                  db.rules().stats().tasks_created.load()),
              static_cast<unsigned long long>(
                  db.rules().stats().firings_merged.load()),
              db.Execute("select * from branch_totals order by branch")
                  ->ToString().c_str());
  return 0;
}
