#ifndef STRIP_ENGINE_PREPARED_STATEMENT_H_
#define STRIP_ENGINE_PREPARED_STATEMENT_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "strip/common/status.h"
#include "strip/sql/ast.h"
#include "strip/storage/temp_table.h"
#include "strip/txn/task.h"
#include "strip/txn/transaction.h"

namespace strip {

class Database;

/// A statement parsed, resolved, and planned once, executed many times with
/// '?' parameter bindings — the engine's parse-plan-once execution model
/// (the paper's rule actions fire the same few statements per maintained
/// tuple; compiling them once is what makes unique-transaction batching pay
/// for itself).
///
/// What prepare freezes, per statement kind:
///   - single-table DML: the executor's DmlPlan (the Table*, the index
///     probe, slot-compiled SET / WHERE / VALUES programs), run by the same
///     SqlExecutor::ExecuteDml routine the unprepared entry points use;
///   - SELECT whose FROM names all resolve in the catalog: the executor's
///     SelectPlan (inputs, classified conjuncts, index probes, slot-compiled
///     programs, output layout), run by the same SqlExecutor::Execute
///     routine rule conditions use. A SELECT whose FROM names a task's
///     bound table is planned per execution (SqlExecutor::ExecuteSelect).
///
/// DDL invalidation: every execution compares the plan's catalog generation
/// stamp against the live counter and transparently re-resolves after any
/// DDL — a cached SELECT sees an index created later; execution against a
/// dropped table fails cleanly with NotFound.
///
/// Lifetime and threading: a handle borrows its Database and must not
/// outlive it. Handles are shareable across threads; the plan snapshot is
/// swapped under a mutex and all per-execution state is local. Locks are
/// acquired per execution in the executing transaction, never at prepare.
class PreparedStatement {
 public:
  /// The frozen per-generation plan; defined in the .cc (implementation
  /// detail — public only so file-local helpers there can name it).
  struct Plan;

  ~PreparedStatement();
  PreparedStatement(const PreparedStatement&) = delete;
  PreparedStatement& operator=(const PreparedStatement&) = delete;

  /// Semantics of Database::Execute: DML / SELECT run in a fresh
  /// transaction (committed on success — firing rules; wait-die aborts
  /// restart, Database::RunWithRestarts); DDL is immediate.
  Result<ResultSet> Execute(const std::vector<Value>& params = {});

  /// Runs inside the caller's transaction (DML / SELECT only). `task`
  /// makes that task's bound tables visible, exactly like
  /// Database::ExecuteStatement.
  Result<ResultSet> ExecuteInTxn(Transaction* txn,
                                 const std::vector<Value>& params = {},
                                 TaskControlBlock* task = nullptr);

  /// DML: affected rows without materializing a ResultSet. This is the
  /// per-maintained-tuple call of the rule-action functions.
  Result<int> ExecuteDml(Transaction* txn,
                         const std::vector<Value>& params = {},
                         TaskControlBlock* task = nullptr);

  /// SELECT: the pointer-backed temp table.
  Result<TempTable> Query(Transaction* txn,
                          const std::vector<Value>& params = {},
                          TaskControlBlock* task = nullptr);

  const std::string& sql() const { return sql_; }
  const Statement& statement() const { return stmt_; }
  bool is_select() const;
  bool is_ddl() const;

  /// One line per prepare-time plan decision (index vs. scan, compiled
  /// program counts) — introspection for tests and tooling.
  /// Re-plans first if DDL has run since the last execution.
  Result<std::vector<std::string>> PlanNotes();

  /// True when the current plan reaches matching rows through an index
  /// probe (re-plans first, so this reflects indexes created after
  /// prepare).
  Result<bool> UsesIndexProbe();

 private:
  friend class Database;

  PreparedStatement(Database* db, std::string sql, Statement stmt);

  /// The plan for the current catalog generation, rebuilding if stale.
  std::shared_ptr<const Plan> CurrentPlan();

  /// Re-resolves and re-compiles against the current catalog. Never fails:
  /// a DML statement that does not resolve keeps the error, returned by
  /// every execution until DDL changes the catalog.
  std::shared_ptr<const Plan> BuildPlan();

  Database* db_;
  std::string sql_;
  Statement stmt_;

  std::mutex mu_;
  std::shared_ptr<const Plan> plan_;  // null until first use
};

using PreparedStatementPtr = std::shared_ptr<PreparedStatement>;

}  // namespace strip

#endif  // STRIP_ENGINE_PREPARED_STATEMENT_H_
