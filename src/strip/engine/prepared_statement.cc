#include "strip/engine/prepared_statement.h"

#include <utility>
#include <variant>

#include "strip/common/string_util.h"
#include "strip/engine/database.h"
#include "strip/sql/compiled_expr.h"
#include "strip/sql/plan.h"
#include "strip/storage/record.h"

namespace strip {

// ---------------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------------

/// Everything resolved at prepare time, valid for one catalog generation.
/// Conjunct / precompiled-map pointers borrow Expr nodes from the handle's
/// own `stmt_`, so a plan never outlives its statement.
struct PreparedStatement::Plan {
  uint64_t generation = 0;
  std::vector<std::string> notes;

  // --- SELECT: frozen FROM resolution + classified WHERE ----------------
  bool select_bound = false;
  InputSet inputs;
  std::vector<Conjunct> conjuncts;
  /// Lowered FROM table names; if a task's bound tables shadow any of them
  /// at execution time, the frozen resolution would be wrong — re-resolve.
  std::vector<std::string> from_names;
  std::unordered_map<const Expr*, CompiledExpr> precompiled;
  bool select_index_probe = false;

  // --- DML: the executor's plan, or the error building it reported ------
  Result<DmlPlan> dml =
      Status::InvalidArgument("ExecuteDml takes INSERT/UPDATE/DELETE");
};

namespace {

using Plan = PreparedStatement::Plan;

ResultSet RowsAffected(int n) {
  ResultSet rs;
  rs.schema.AddColumn("rows_affected", ValueType::kInt);
  rs.rows.push_back({Value::Int(n)});
  return rs;
}

bool IsDdlStatement(const Statement& stmt) {
  return std::holds_alternative<CreateTableStmt>(stmt) ||
         std::holds_alternative<DropTableStmt>(stmt) ||
         std::holds_alternative<CreateIndexStmt>(stmt) ||
         std::holds_alternative<CreateViewStmt>(stmt) ||
         std::holds_alternative<CreateRuleStmt>(stmt) ||
         std::holds_alternative<DropRuleStmt>(stmt);
}

/// Mirrors ScanInput's probe detection for introspection: would any frozen
/// input be scanned through an index given these conjuncts?
bool SelectWouldProbeIndex(const InputSet& inputs,
                           const std::vector<Conjunct>& conjuncts) {
  for (const Conjunct& c : conjuncts) {
    if (c.referenced.size() > 1) continue;
    const Expr* f = c.expr;
    if (f->kind != ExprKind::kBinary || f->bin_op != BinaryOp::kEq) continue;
    for (int side = 0; side < 2; ++side) {
      const Expr& col_side = *f->args[static_cast<size_t>(side)];
      const Expr& const_side = *f->args[static_cast<size_t>(1 - side)];
      if (col_side.kind != ExprKind::kColumnRef) continue;
      auto acc = inputs.Resolve(col_side.qualifier, col_side.column);
      if (!acc.ok()) continue;
      const BoundInput& in = inputs.inputs()[static_cast<size_t>(acc->input)];
      if (in.table == nullptr) continue;
      if (in.table->FindIndexByPosition(acc->column) == nullptr) continue;
      if (!IsColumnFree(const_side)) continue;
      return true;
    }
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / plan building
// ---------------------------------------------------------------------------

PreparedStatement::PreparedStatement(Database* db, std::string sql,
                                     Statement stmt)
    : db_(db), sql_(std::move(sql)), stmt_(std::move(stmt)) {}

PreparedStatement::~PreparedStatement() = default;

bool PreparedStatement::is_select() const {
  return std::holds_alternative<SelectStmt>(stmt_);
}

bool PreparedStatement::is_ddl() const { return IsDdlStatement(stmt_); }

std::shared_ptr<const Plan> PreparedStatement::CurrentPlan() {
  // Read the generation before resolving: a concurrent DDL then at worst
  // makes this plan look stale and triggers a rebuild on the next use.
  uint64_t gen = db_->catalog_.generation();
  std::lock_guard<std::mutex> lk(mu_);
  if (plan_ == nullptr || plan_->generation != gen) {
    plan_ = BuildPlan();
  }
  return plan_;
}

std::shared_ptr<const Plan> PreparedStatement::BuildPlan() {
  auto plan = std::make_shared<Plan>();
  plan->generation = db_->catalog_.generation();
  const ScalarFuncRegistry* funcs = &db_->scalar_funcs_;

  if (const auto* s = std::get_if<SelectStmt>(&stmt_)) {
    // Freeze FROM against the catalog only; transition / bound tables are
    // per-execution, so any name they could supply forces per-execution
    // resolution.
    auto unbound = [&](const Status& why) {
      plan->notes.push_back(StrFormat("select: resolved per execution (%s)",
                                      why.message().c_str()));
      return plan;
    };
    if (s->from.empty()) {
      return unbound(Status::InvalidArgument("empty FROM"));
    }
    for (const TableRef& ref : s->from) {
      std::string name = ToLower(ref.table);
      Table* table = db_->catalog_.FindTable(name);
      if (table == nullptr) {
        return unbound(
            Status::NotFound(StrFormat("no table '%s'", name.c_str())));
      }
      plan->from_names.push_back(std::move(name));
      plan->inputs.Add(ref.EffectiveName(), table, nullptr);
    }
    auto conjuncts = ClassifyConjuncts(s->where.get(), plan->inputs, nullptr);
    if (!conjuncts.ok()) return unbound(conjuncts.status());
    plan->conjuncts = std::move(*conjuncts);
    plan->select_bound = true;
    plan->select_index_probe =
        SelectWouldProbeIndex(plan->inputs, plan->conjuncts);

    // Pre-compile every expression the executor evaluates against join
    // rows.
    auto precompile = [&](const Expr* e) {
      if (e == nullptr || plan->precompiled.count(e) > 0) return;
      plan->precompiled.emplace(
          e, CompiledExpr::Compile(*e, plan->inputs, nullptr, funcs));
    };
    for (const Conjunct& c : plan->conjuncts) {
      precompile(c.expr);
      precompile(c.lhs);
      precompile(c.rhs);
    }
    for (const SelectItem& item : s->items) precompile(item.expr.get());
    for (const ExprPtr& e : s->group_by) precompile(e.get());
    for (const OrderByItem& o : s->order_by) precompile(o.expr.get());
    precompile(s->having.get());
    plan->notes.push_back(StrFormat(
        "select: frozen input set (%zu inputs), %zu compiled programs, %s",
        plan->inputs.inputs().size(), plan->precompiled.size(),
        plan->select_index_probe ? "index probe" : "scan"));
    return plan;
  }

  if (!is_ddl()) {
    plan->dml = DmlPlan::Build(stmt_, db_->catalog_, funcs);
    plan->notes.push_back(plan->dml.ok()
                              ? plan->dml->note
                              : "dml: " + plan->dml.status().ToString());
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

/// The frozen FROM resolution assumed catalog tables; a task bound table
/// with the same name would have taken precedence in BindFrom.
bool ShadowedByTask(const Plan& plan, TaskControlBlock* task) {
  if (task == nullptr) return false;
  for (const std::string& name : plan.from_names) {
    if (task->bound_tables.Find(name) != nullptr) return true;
  }
  return false;
}

}  // namespace

Result<ResultSet> PreparedStatement::Execute(
    const std::vector<Value>& params) {
  if (is_ddl()) return db_->ExecuteDdl(stmt_);
  ResultSet result;
  STRIP_RETURN_IF_ERROR(db_->RunWithRestarts(
      [&](Transaction& txn) -> Status {
        STRIP_ASSIGN_OR_RETURN(result, ExecuteInTxn(&txn, params));
        return Status::OK();
      },
      {}, /*auto_commit=*/true));
  return result;
}

Result<ResultSet> PreparedStatement::ExecuteInTxn(
    Transaction* txn, const std::vector<Value>& params,
    TaskControlBlock* task) {
  if (is_ddl()) {
    return Status::InvalidArgument(
        "DDL cannot run inside a transaction; use Execute()");
  }
  if (is_select()) {
    STRIP_ASSIGN_OR_RETURN(TempTable t, Query(txn, params, task));
    return t.Materialize();
  }
  STRIP_ASSIGN_OR_RETURN(int n, ExecuteDml(txn, params, task));
  return RowsAffected(n);
}

Result<TempTable> PreparedStatement::Query(Transaction* txn,
                                           const std::vector<Value>& params,
                                           TaskControlBlock* task) {
  const auto* s = std::get_if<SelectStmt>(&stmt_);
  if (s == nullptr) {
    return Status::InvalidArgument("Query() takes a SELECT statement");
  }
  DdlLatch::SharedGuard ddl(db_->ddl_latch_);
  std::shared_ptr<const Plan> plan = CurrentPlan();
  if (plan->select_bound && !ShadowedByTask(*plan, task)) {
    ExecContext ctx = db_->MakeExecContext(txn, task, &params);
    ctx.precompiled = &plan->precompiled;
    SqlExecutor executor(ctx);
    return executor.ExecuteSelectBound(*s, plan->inputs, plan->conjuncts,
                                       "_result");
  }
  return db_->Query(txn, *s, task, &params);
}

Result<int> PreparedStatement::ExecuteDml(Transaction* txn,
                                          const std::vector<Value>& params,
                                          TaskControlBlock* task) {
  DdlLatch::SharedGuard ddl(db_->ddl_latch_);
  std::shared_ptr<const Plan> plan = CurrentPlan();
  STRIP_RETURN_IF_ERROR(plan->dml.status());
  SqlExecutor executor(db_->MakeExecContext(txn, task, &params));
  return executor.ExecuteDml(*plan->dml);
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

Result<std::vector<std::string>> PreparedStatement::PlanNotes() {
  DdlLatch::SharedGuard ddl(db_->ddl_latch_);
  return CurrentPlan()->notes;
}

Result<bool> PreparedStatement::UsesIndexProbe() {
  DdlLatch::SharedGuard ddl(db_->ddl_latch_);
  std::shared_ptr<const Plan> plan = CurrentPlan();
  return plan->select_index_probe ||
         (plan->dml.ok() && plan->dml->index != nullptr);
}

}  // namespace strip
