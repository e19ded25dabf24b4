#include "strip/engine/prepared_statement.h"

#include <utility>
#include <variant>

#include "strip/common/string_util.h"
#include "strip/engine/database.h"
#include "strip/storage/record.h"

namespace strip {

// ---------------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------------

/// Everything resolved at prepare time, valid for one catalog generation.
/// The SELECT plan borrows Expr nodes from the handle's own `stmt_`, so a
/// plan never outlives its statement.
struct PreparedStatement::Plan {
  uint64_t generation = 0;
  std::vector<std::string> notes;

  // --- SELECT: the plan over catalog tables, or the error building it ----
  Result<SelectPlan> select = Status::InvalidArgument("not a SELECT");
  /// Lowered FROM table names; if a task's bound tables shadow any of them
  /// at execution time, the catalog resolution would be wrong — re-resolve.
  std::vector<std::string> from_names;

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
    // Resolve FROM against the catalog only: a task's bound tables are
    // per-execution, and a name they supply takes the per-execution path.
    for (const TableRef& ref : s->from) {
      plan->from_names.push_back(ToLower(ref.table));
    }
    plan->select = SelectPlan::Build(*s, &db_->catalog_, {}, nullptr, funcs);
    if (plan->select.ok()) {
      plan->notes.push_back(StrFormat(
          "select: frozen input set (%zu inputs), %zu compiled programs, %s",
          plan->select->inputs().inputs().size(),
          plan->select->num_programs(),
          plan->select->uses_index_probe() ? "index probe" : "scan"));
    } else {
      plan->notes.push_back(
          StrFormat("select: resolved per execution (%s)",
                    plan->select.status().message().c_str()));
    }
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

/// The SELECT plan resolved FROM against the catalog; a task bound table
/// with the same name takes precedence (§6.3).
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
  if (plan->select.ok() && !ShadowedByTask(*plan, task)) {
    SqlExecutor executor(db_->MakeExecContext(txn, task, &params));
    return executor.Execute(*plan->select, {}, "_result");
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
  return (plan->select.ok() && plan->select->uses_index_probe()) ||
         (plan->dml.ok() && plan->dml->index != nullptr);
}

}  // namespace strip
