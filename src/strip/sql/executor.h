#ifndef STRIP_SQL_EXECUTOR_H_
#define STRIP_SQL_EXECUTOR_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "strip/common/status.h"
#include "strip/sql/ast.h"
#include "strip/sql/compiled_expr.h"
#include "strip/sql/plan.h"
#include "strip/storage/bound_table_set.h"
#include "strip/storage/catalog.h"
#include "strip/storage/temp_table.h"
#include "strip/txn/lock_manager.h"
#include "strip/txn/transaction.h"

namespace strip {

/// Everything a statement execution needs. The resolution order for table
/// names is: transition tables, then the task's bound tables, then the
/// catalog (§6.3).
struct ExecContext {
  Catalog* catalog = nullptr;
  LockManager* locks = nullptr;  // optional; when set, 2PL table locks
  Transaction* txn = nullptr;    // required for DML (logging); optional reads
  const BoundTableSet* transition = nullptr;  // inserted/deleted/new/old
  const BoundTableSet* bound = nullptr;       // task bound tables
  const ScalarFuncRegistry* funcs = nullptr;
  /// Pseudo columns resolved when nothing else matches a bare name — the
  /// rule system injects `commit_time` here at bind time (§2).
  const std::map<std::string, Value>* pseudo = nullptr;
  /// Bindings for '?' placeholders (prepared-statement execution).
  const std::vector<Value>* params = nullptr;
  /// When non-null, the executor appends one human-readable line per plan
  /// decision (scan method, join order and algorithm, aggregation, sort,
  /// limit) — the EXPLAIN facility. The query still executes.
  std::vector<std::string>* plan_trace = nullptr;
  /// Programs compiled at prepare time, keyed by Expr node (the prepared
  /// statement keeps the nodes alive). Consulted before the executor's own
  /// per-statement compile cache.
  const std::unordered_map<const Expr*, CompiledExpr>* precompiled = nullptr;
  /// When non-null, full scans (SELECT inputs and DML) add the rows they
  /// visit here — the engine points it at the executing task's
  /// rows_scanned so per-rule cost counters can attribute scan work
  /// (src/strip/obs/rule_cost.h).
  uint64_t* rows_scanned = nullptr;
};

/// A single-table INSERT / UPDATE / DELETE resolved against the catalog:
/// the target table, slot-compiled SET / WHERE / VALUES programs, the
/// indexed `col = const` probe and the INSERT column mapping. It holds raw
/// Table* / Index* pointers, so it is valid for one catalog generation.
/// Prepared statements cache one; the textual and Statement entry points
/// build one per call.
struct DmlPlan {
  enum class Kind { kInsert, kUpdate, kDelete };

  /// Resolves `stmt` (which must be DML) against `catalog`. NotFound for a
  /// missing table or column, InvalidArgument for an INSERT arity mismatch.
  static Result<DmlPlan> Build(const Statement& stmt, const Catalog& catalog,
                               const ScalarFuncRegistry* funcs);

  Kind kind = Kind::kInsert;
  Table* table = nullptr;
  std::vector<int> set_cols;            // UPDATE
  std::vector<CompiledExpr> set_exprs;  // UPDATE, parallel to set_cols
  std::optional<CompiledExpr> where;    // UPDATE / DELETE; nullopt = all
  Index* index = nullptr;               // indexed `col = const` probe
  std::optional<CompiledExpr> index_key;  // constant program for the key
  std::vector<int> insert_mapping;      // INSERT: value position -> column
  std::vector<std::vector<CompiledExpr>> insert_rows;
  /// The access path, for plan introspection ("dml: index probe on t.k").
  std::string note;
};

/// Executes parsed statements. Stateless between calls; cheap to construct.
///
/// Query processing: filter pushdown to scans, index-nested-loop joins when
/// an equi-join column of a standard table is indexed, hash joins otherwise,
/// greedy small-first join ordering, hash aggregation, sort for ORDER BY.
/// Output tables use the §6.1 pointer layout: bare standard-table columns
/// are pointer-backed, computed/aggregate/temp-derived columns materialized.
class SqlExecutor {
 public:
  explicit SqlExecutor(const ExecContext& ctx) : ctx_(ctx) {}

  /// Runs a SELECT, producing a temp table named `output_name`.
  Result<TempTable> ExecuteSelect(const SelectStmt& stmt,
                                  const std::string& output_name = "_result");

  /// Runs a SELECT whose FROM clause is already resolved and whose WHERE is
  /// already classified — the prepared-statement fast path. Acquires shared
  /// locks on the standard inputs (re-entrant after BindFrom).
  Result<TempTable> ExecuteSelectBound(const SelectStmt& stmt,
                                       const InputSet& inputs,
                                       const std::vector<Conjunct>& conjuncts,
                                       const std::string& output_name);

  /// The one DML routine: locks the table exclusively, reaches candidate
  /// rows through the plan's index probe or a full scan (counted into
  /// rows_scanned), collects the rows the WHERE program accepts, then
  /// applies and logs the change to each. Returns the affected row count.
  Result<int> ExecuteDml(const DmlPlan& plan);

 private:
  /// An element scanned from an input: exactly one of rec / tuple set.
  struct ScanItem {
    RecordRef rec;
    const TempTuple* tuple = nullptr;
  };

  /// Resolves FROM entries through transition -> bound -> catalog.
  Result<InputSet> BindFrom(const std::vector<TableRef>& from);

  /// Acquires a table lock (no-op without a lock manager / transaction).
  Status LockTable(Table* table, LockMode mode);

  /// Scans input `i`, applying its pushed-down filters, invoking `emit`.
  /// Uses an index for `col = const` filters when available.
  Status ScanInput(const InputSet& inputs, int input,
                   const std::vector<const Expr*>& filters,
                   const std::function<Status(const ScanItem&)>& emit);

  /// Executes the join pipeline; returns surviving joined rows.
  Result<std::vector<JoinRow>> RunJoin(const InputSet& inputs,
                                       const std::vector<Conjunct>& conjuncts);

  /// Evaluates `expr` against `row` through its compiled program (looked
  /// up in the precompiled map, else compiled once per execution).
  Result<Value> Eval(const Expr& expr, const InputSet& inputs,
                     const JoinRow& row);

  /// Appends a plan-trace line when tracing is enabled.
  void Trace(const std::string& line);

  ExecContext ctx_;

  /// Per-statement-execution compiled-program cache, keyed by Expr node.
  /// Cleared at every top-level entry: programs carry slot positions
  /// resolved against that execution's InputSet (which lives on the
  /// caller's stack), so they must not survive into the next call.
  std::unordered_map<const Expr*, CompiledExpr> compiled_;
  EvalFrame frame_;
};

}  // namespace strip

#endif  // STRIP_SQL_EXECUTOR_H_
