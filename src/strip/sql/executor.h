#ifndef STRIP_SQL_EXECUTOR_H_
#define STRIP_SQL_EXECUTOR_H_

#include <functional>
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

/// Everything a statement execution needs. Table names resolve to the
/// task's bound tables, then the catalog (§6.3); rule queries reach the
/// transition tables through their SelectPlan's temp placeholders.
struct ExecContext {
  Catalog* catalog = nullptr;
  LockManager* locks = nullptr;  // optional; when set, 2PL table locks
  Transaction* txn = nullptr;    // required for DML (logging); optional reads
  const BoundTableSet* bound = nullptr;  // task bound tables
  const ScalarFuncRegistry* funcs = nullptr;
  /// Pseudo columns resolved when nothing else matches a bare name — the
  /// rule system injects `commit_time` here for each firing (§2).
  const std::map<std::string, Value>* pseudo = nullptr;
  /// Bindings for '?' placeholders (prepared-statement execution).
  const std::vector<Value>* params = nullptr;
  /// When non-null, the executor appends one human-readable line per plan
  /// decision (scan method, join order and algorithm, aggregation, sort,
  /// limit) — the EXPLAIN facility. The query still executes.
  std::vector<std::string>* plan_trace = nullptr;
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

/// A SELECT resolved and compiled once: FROM bound, WHERE classified and
/// split into per-input filters and joins, every expression the executor
/// evaluates compiled to a slot program, column references validated, the
/// output schema and §6.1 pointer-vs-materialized layout fixed, and the
/// index probes resolved. Only the join order is left to each execution,
/// picked from live input sizes (a batched window's transition table can be
/// large).
///
/// FROM names resolve first against `temps` — placeholders, a name and a
/// schema, for temporary tables the caller binds by position at every
/// execution (a commit's transition tables, a task's bound tables) — then
/// against the catalog. The plan holds raw Table* / Index* pointers, so it
/// is valid for one catalog generation, and it borrows the statement's Expr
/// nodes and the placeholder schemas, which must outlive it. Prepared
/// SELECTs and rule conditions / evaluate queries cache one per catalog
/// generation; SqlExecutor::ExecuteSelect builds one per call.
class SelectPlan {
 public:
  struct TempSource {
    std::string name;
    const Schema* schema = nullptr;
  };

  /// Resolves and compiles `stmt`. NotFound for a missing table or column,
  /// InvalidArgument for an empty FROM or select list, an ambiguous column
  /// or HAVING without aggregation. `pseudo` names the pseudo columns bare
  /// names may fall back to; their values are read at execution.
  static Result<SelectPlan> Build(const SelectStmt& stmt,
                                  const Catalog* catalog,
                                  const std::vector<TempSource>& temps,
                                  const std::map<std::string, Value>* pseudo,
                                  const ScalarFuncRegistry* funcs);

  SelectPlan(SelectPlan&&) = default;
  SelectPlan& operator=(SelectPlan&&) = default;
  SelectPlan(const SelectPlan&) = delete;
  SelectPlan& operator=(const SelectPlan&) = delete;

  const InputSet& inputs() const { return inputs_; }
  size_t num_programs() const { return programs_.size(); }
  /// True when some standard input is reached through an indexed
  /// `col = <constant>` probe rather than a scan.
  bool uses_index_probe() const;

  /// An empty table with the output's schema and §6.1 layout: every
  /// execution's result has this layout, so tables from one plan
  /// generation can be appended to each other as they are.
  TempTable NewOutput(const std::string& name) const;

 private:
  friend class SqlExecutor;

  SelectPlan() = default;

  /// Every expression the executor evaluates is compiled once into
  /// programs_ and named by its position there.
  using Program = int;
  static constexpr Program kNoProgram = -1;

  /// An indexed `col = <constant>` filter of a standard input.
  struct Probe {
    const Index* index = nullptr;
    int column = -1;
    Program key = kNoProgram;
  };
  /// A multi-input conjunct, with the index on each equi-join side that is
  /// a bare column of a standard input (the index-nested-loop candidates).
  struct Join {
    const Conjunct* conjunct = nullptr;
    Program expr = kNoProgram;
    Program lhs = kNoProgram;  // equi-joins: the two sides
    Program rhs = kNoProgram;
    Index* lhs_index = nullptr;
    int lhs_column = -1;
    Index* rhs_index = nullptr;
    int rhs_column = -1;
  };
  /// An output column of a non-aggregate query: a pointer into a standard
  /// input's record, or a materialized expression value.
  struct OutCol {
    bool pointer = false;
    int input = -1;
    Program program = kNoProgram;
  };

  const std::vector<SelectItem>& items() const {
    return stmt_->star ? expanded_ : stmt_->items;
  }

  const SelectStmt* stmt_ = nullptr;
  InputSet inputs_;
  std::vector<Conjunct> conjuncts_;
  std::vector<CompiledExpr> programs_;
  std::vector<std::vector<Program>> input_filters_;  // per input
  /// Per input: an indexed equality pins the scan to ~1 row (join order).
  std::vector<bool> pinned_;
  std::vector<Probe> probes_;  // per input; index null = none
  std::vector<Join> joins_;
  std::vector<SelectItem> expanded_;  // `select *`, one item per column
  std::vector<Program> item_programs_;  // per select item
  bool has_aggregates_ = false;
  /// Aggregate path: the aggregate call nodes, each one's argument program
  /// (kNoProgram for count(*)), the GROUP BY keys and HAVING.
  std::vector<const Expr*> agg_nodes_;
  std::vector<Program> agg_arg_programs_;
  std::vector<Program> group_programs_;
  Program having_program_ = kNoProgram;
  Schema out_schema_;
  /// Aggregate path: per ORDER BY item, the output column it names, or -1
  /// to evaluate order_programs_[k] over the group.
  std::vector<int> agg_order_out_col_;
  std::vector<Program> order_programs_;
  /// Non-aggregate path: the output layout and the resolved sort keys.
  std::vector<OutCol> out_cols_;
  std::vector<TempColumnMap> layout_;
  std::vector<int> out_slot_of_input_;
  int num_out_slots_ = 0;
  int num_out_extra_ = 0;
  std::vector<Program> order_keys_;
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

  /// Runs a SELECT, producing a temp table named `output_name`: builds a
  /// SelectPlan whose FROM resolves through the context's bound tables,
  /// then the catalog, and executes it.
  Result<TempTable> ExecuteSelect(const SelectStmt& stmt,
                                  const std::string& output_name = "_result");

  /// The one SELECT routine: executes `plan` with `temps[i]` bound to the
  /// plan's temp source i (sizes and schemas must match the placeholders).
  /// Acquires shared locks on the standard inputs.
  Result<TempTable> Execute(const SelectPlan& plan,
                            const std::vector<const TempTable*>& temps,
                            const std::string& output_name);

  /// The one DML routine: locks the table exclusively, reaches candidate
  /// rows through the plan's index probe or a full scan (counted into
  /// rows_scanned), collects the rows the WHERE program accepts, then
  /// applies and logs the change to each. Returns the affected row count.
  Result<int> ExecuteDml(const DmlPlan& plan);

 private:
  /// Acquires a table lock (no-op without a lock manager / transaction).
  Status LockTable(Table* table, LockMode mode);

  /// The temp table bound to temp input `input` in this execution.
  const TempTable& TempOf(int input) const;

  /// Scans input `input`: for each candidate, sets cell `input` of
  /// `scratch` (a join-row-wide buffer), applies the input's pushed-down
  /// filters to it and calls `emit` when they hold. Uses the plan's index
  /// probe for a `col = const` filter when it has one.
  Status ScanInput(int input, JoinCell* scratch,
                   const std::function<Status()>& emit);

  /// Executes the join pipeline, leaving the surviving joined rows in
  /// `rows`, flat, inputs().width() cells each.
  Status RunJoin(std::vector<JoinCell>& rows);

  /// Runs program `program` of the plan against join row `row`.
  Result<Value> Eval(SelectPlan::Program program, const JoinCell* row);

  /// True when the executor records plan-trace lines (EXPLAIN); callers
  /// check it before formatting a line.
  bool tracing() const { return ctx_.plan_trace != nullptr; }
  void Trace(std::string line);

  ExecContext ctx_;
  /// The plan of the SELECT being executed and, per input, the temp
  /// table bound to it (null for a standard input).
  const SelectPlan* plan_ = nullptr;
  std::vector<const TempTable*> input_temps_;
  EvalFrame frame_;
};

}  // namespace strip

#endif  // STRIP_SQL_EXECUTOR_H_
