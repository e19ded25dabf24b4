#include "strip/engine/database.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "strip/common/string_util.h"
#include "strip/viewmaint/view_def.h"

namespace strip {

Database::Database() : Database(Options{}) {}

Database::Database(Options options)
    : options_(options),
      trace_ring_(options_.enable_metrics ? kTraceCapacity : 0),
      locks_(metrics_),
      scalar_funcs_(ScalarFuncRegistry::WithBuiltins()) {
  if (options_.mode == ExecutorMode::kSimulated) {
    sim_ = std::make_unique<SimulatedExecutor>(
        metrics_, options_.policy, options_.advance_clock_by_cost);
    executor_ = sim_.get();
  } else {
    threaded_ = std::make_unique<ThreadedExecutor>(
        metrics_, options_.num_workers, options_.policy);
    executor_ = threaded_.get();
  }
  RuleEngineDeps deps;
  deps.catalog = &catalog_;
  deps.locks = &locks_;
  deps.scalar_funcs = &scalar_funcs_;
  deps.task_ids = &next_task_id_;
  deps.metrics = &metrics_;
  deps.trace = trace_ring_.enabled() ? &trace_ring_ : nullptr;
  deps.action_runner = [this](TaskControlBlock& task) {
    return RunActionTask(task);
  };
  rules_ = std::make_unique<RuleEngine>(std::move(deps));
  views_ = std::make_unique<ViewManager>(this);
  RegisterBuiltinMetrics();
}

void Database::RegisterBuiltinMetrics() {
  // Hot-path counter handles (always on: one relaxed increment each). The
  // lock manager, executor and rule engine resolved their own counters
  // when they were constructed.
  plan_hits_ = metrics_.counter("db.plan_cache.hits");
  plan_misses_ = metrics_.counter("db.plan_cache.misses");
  txn_begins_ = metrics_.counter("txn.begins");
  txn_commits_ = metrics_.counter("txn.commits");
  txn_aborts_ = metrics_.counter("txn.aborts");
  action_restarts_ = metrics_.counter("rules.action_restarts");

  if (options_.enable_metrics) {
    batch_factor_hist_ = metrics_.histogram(
        "rules.batch_factor", Histogram::DefaultCountBounds());
    rule_cost_ = std::make_unique<RuleCostTracker>(&metrics_);
    // The executors feed the lifecycle ring and latency histograms; hooks
    // must be installed before the first Submit (see ExecutorObs).
    ExecutorObs eobs;
    eobs.trace = &trace_ring_;
    eobs.queue_wait_us = metrics_.histogram("task.queue_wait_us");
    eobs.run_us = metrics_.histogram("task.run_us");
    eobs.rule_cost = rule_cost_.get();
    executor_->set_obs(eobs);
  }

  // Pull-state gauges: sizes read at snapshot time, not counts.
  metrics_.RegisterCallback("db.plan_cache.entries", [this] {
    std::lock_guard<std::mutex> lk(plan_mu_);
    return static_cast<double>(plan_cache_.size());
  });
  metrics_.RegisterCallback("trace.events_recorded", [this] {
    return static_cast<double>(trace_ring_.total_recorded());
  });
  metrics_.RegisterCallback("trace.dropped_events", [this] {
    return static_cast<double>(trace_ring_.total_dropped());
  });
}

void Database::RecordActionCommit(TaskControlBlock& task) {
  if (task.oldest_change_time < 0) return;
  Timestamp staleness = Now() - task.oldest_change_time;
  if (staleness < 0) staleness = 0;
  task.commit_staleness_micros = staleness;
  if (!options_.enable_metrics) return;
  // Per-rule (per user function) staleness distribution: the age of the
  // oldest batched change each firing consumed — the paper's batching-vs-
  // staleness tradeoff, measurable per delay window.
  rule_cost_->Handles(task.function_name)->staleness_us->Observe(staleness);
  batch_factor_hist_->Observe(task.batched_firings);
}

Database::~Database() {
  if (threaded_ != nullptr) threaded_->Shutdown();
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Result<Transaction*> Database::Begin(uint64_t priority) {
  uint64_t id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  auto txn = std::make_unique<Transaction>(id, Now(), priority);
  Transaction* ptr = txn.get();
  {
    std::lock_guard<std::mutex> lk(txns_mu_);
    txns_.emplace(id, std::move(txn));
  }
  txn_begins_->Add();
  return ptr;
}

Status Database::Commit(Transaction* txn) {
  if (txn == nullptr || !txn->active()) {
    return Status::FailedPrecondition("commit of a non-active transaction");
  }
  // Rule condition / evaluate queries below read the catalog; statement
  // work in this commit must be atomic w.r.t. metadata DDL.
  DdlLatch::SharedGuard ddl(ddl_latch_);
  // Event checking occurs at the end of the transaction prior to commit
  // (§2); conditions run inside the triggering transaction.
  Timestamp commit_time = Now();
  auto tasks = rules_->ProcessCommit(txn, commit_time);
  if (!tasks.ok()) {
    Status ignored = Abort(txn);
    (void)ignored;
    return tasks.status();
  }
  txn->MarkCommitted(commit_time);
  locks_.ReleaseAll(txn);
  txn_commits_->Add();
  trace_ring_.Record(TraceEventKind::kCommit, txn->id(), commit_time, "",
                     txn->trace().trace_id);
  {
    std::lock_guard<std::mutex> lk(txns_mu_);
    txns_.erase(txn->id());
  }
  // Action tasks are released as soon as the triggering transaction
  // commits, or after their delay window (§2).
  for (TaskPtr& t : *tasks) {
    executor_->Submit(std::move(t));
  }
  return Status::OK();
}

Status Database::Abort(Transaction* txn) {
  if (txn == nullptr || !txn->active()) {
    return Status::FailedPrecondition("abort of a non-active transaction");
  }
  DdlLatch::SharedGuard ddl(ddl_latch_);  // Undo rewrites table rows
  Status undo = txn->log().Undo();
  txn->MarkAborted();
  locks_.ReleaseAll(txn);
  txn_aborts_->Add();
  trace_ring_.Record(TraceEventKind::kAbort, txn->id(), Now(), "",
                     txn->trace().trace_id);
  {
    std::lock_guard<std::mutex> lk(txns_mu_);
    txns_.erase(txn->id());
  }
  return undo;
}

// ---------------------------------------------------------------------------
// Functions and tasks
// ---------------------------------------------------------------------------

Status Database::RegisterFunction(const std::string& name, UserFunction fn) {
  return functions_.Register(name, std::move(fn));
}

Status Database::RegisterScalarFunction(const std::string& name,
                                        ScalarFunc fn) {
  return scalar_funcs_.Register(name, std::move(fn));
}

TaskPtr Database::NewTask() {
  return std::make_shared<TaskControlBlock>(
      next_task_id_.fetch_add(1, std::memory_order_relaxed));
}

void Database::Submit(TaskPtr task) { executor_->Submit(std::move(task)); }

Status Database::SchedulePeriodic(const std::string& name,
                                  double period_seconds,
                                  const std::string& function_name) {
  if (period_seconds <= 0) {
    return Status::InvalidArgument("period must be positive");
  }
  if (functions_.Find(function_name) == nullptr) {
    return Status::NotFound(
        StrFormat("no user function '%s'", function_name.c_str()));
  }
  std::shared_ptr<std::atomic<bool>> cancelled;
  {
    std::lock_guard<std::mutex> lk(periodic_mu_);
    if (periodic_.count(name) > 0) {
      return Status::AlreadyExists(
          StrFormat("periodic job '%s' already scheduled", name.c_str()));
    }
    cancelled = std::make_shared<std::atomic<bool>>(false);
    periodic_.emplace(name, cancelled);
  }
  SubmitPeriodicTick(function_name, SecondsToMicros(period_seconds),
                     std::move(cancelled));
  return Status::OK();
}

Status Database::CancelPeriodic(const std::string& name) {
  std::lock_guard<std::mutex> lk(periodic_mu_);
  auto it = periodic_.find(name);
  if (it == periodic_.end()) {
    return Status::NotFound(
        StrFormat("no periodic job '%s'", name.c_str()));
  }
  it->second->store(true);
  periodic_.erase(it);
  return Status::OK();
}

void Database::SubmitPeriodicTick(
    const std::string& function_name, Timestamp period,
    std::shared_ptr<std::atomic<bool>> cancelled) {
  TaskPtr task = NewTask();
  task->release_time = Now() + period;
  task->function_name = function_name;
  // Each tick is its own causal root (nothing upstream caused it).
  task->trace = NewTraceContext();
  task->work = [this, function_name, period,
                cancelled](TaskControlBlock& tcb) -> Status {
    if (cancelled->load()) return Status::OK();
    const UserFunction* fn = functions_.Find(function_name);
    if (fn == nullptr) {
      return Status::NotFound(
          StrFormat("no user function '%s'", function_name.c_str()));
    }
    STRIP_ASSIGN_OR_RETURN(Transaction * txn, Begin());
    txn->set_trace(ChildOf(tcb.trace));
    txn->set_lock_wait_sink(&tcb.lock_wait_micros);
    FunctionContext ctx(*this, *txn, tcb);
    Status st = (*fn)(ctx);
    if (st.ok()) {
      st = Commit(txn);
    } else {
      Status ignored = Abort(txn);
      (void)ignored;
    }
    // Re-arm regardless of this tick's outcome (transient aborts must not
    // kill the job), unless cancelled meanwhile.
    if (!cancelled->load()) {
      SubmitPeriodicTick(function_name, period, cancelled);
    }
    return st;
  };
  Submit(std::move(task));
}

Status Database::RunWithRestarts(
    const std::function<Status(Transaction&)>& body,
    const std::function<void()>& on_restart, bool auto_commit) {
  Status last;
  uint64_t priority = 0;  // first attempt's id, kept across restarts
  for (int attempt = 0; attempt <= options_.action_retry_limit; ++attempt) {
    {
      std::optional<DdlLatch::SharedGuard> ddl;
      if (auto_commit) ddl.emplace(ddl_latch_);
      STRIP_ASSIGN_OR_RETURN(Transaction * txn, Begin(priority));
      if (priority == 0) priority = txn->priority();
      Status st = body(*txn);
      if (st.ok()) {
        st = Commit(txn);
        if (st.ok()) return st;
      } else {
        Status ignored = Abort(txn);
        (void)ignored;
      }
      if (st.code() != StatusCode::kAborted) return st;  // real failure
      last = st;  // wait-die victim: restart with the ORIGINAL priority
    }
    if (on_restart) on_restart();
    if (attempt < options_.action_retry_limit &&
        (auto_commit || threaded_ != nullptr)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min(1 << std::min(attempt, 5), 32)));
    }
  }
  return last;
}

Status Database::RunActionTask(TaskControlBlock& task) {
  // Once running, the task's bound tables are fixed; remove its unique
  // hash-table entry so later firings start a new transaction (§6.3).
  rules_->unique_manager().OnTaskStart(task);

  const UserFunction* fn = functions_.Find(task.function_name);
  if (fn == nullptr) {
    return Status::NotFound(StrFormat("no user function '%s'",
                                      task.function_name.c_str()));
  }
  STRIP_RETURN_IF_ERROR(RunWithRestarts(
      [&](Transaction& txn) {
        // The action transaction is a child span of the task: restarts
        // mint fresh spans but stay inside the same trace, so the exported
        // timeline shows every attempt hanging off the firing that caused
        // it.
        txn.set_trace(ChildOf(task.trace));
        // Mirror lock waits into the task (the txn dies inside
        // Commit/Abort, taking its own accumulator with it); the task
        // outlives the commit.
        txn.set_lock_wait_sink(&task.lock_wait_micros);
        FunctionContext ctx(*this, txn, task);
        return (*fn)(ctx);
      },
      [&] {
        ++task.lock_restarts;
        action_restarts_->Add();
        trace_ring_.Record(TraceEventKind::kRestart, task.id(), Now(),
                           task.function_name.c_str(), task.trace.trace_id);
      }));
  RecordActionCommit(task);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SQL execution
// ---------------------------------------------------------------------------

namespace {

ResultSet RowsAffected(int n) {
  ResultSet rs;
  rs.schema.AddColumn("rows_affected", ValueType::kInt);
  rs.rows.push_back({Value::Int(n)});
  return rs;
}

bool IsDdl(const Statement& stmt) {
  return std::holds_alternative<CreateTableStmt>(stmt) ||
         std::holds_alternative<DropTableStmt>(stmt) ||
         std::holds_alternative<CreateIndexStmt>(stmt) ||
         std::holds_alternative<CreateViewStmt>(stmt) ||
         std::holds_alternative<CreateRuleStmt>(stmt) ||
         std::holds_alternative<DropRuleStmt>(stmt);
}

}  // namespace

Result<ResultSet> Database::ExecuteDdl(const Statement& stmt) {
  // View creation runs real transactions (the population query acquires
  // data locks), so it cannot hold the exclusive DDL latch — a shared
  // holder blocked in the lock manager would deadlock it. Views are
  // setup-time DDL; the latch guards the metadata DDL below, which is what
  // invalidates (or frees) structures frozen into cached plans.
  if (const auto* s = std::get_if<CreateViewStmt>(&stmt)) {
    CreateViewStmt copy;
    copy.name = s->name;
    copy.materialized = s->materialized;
    copy.query = s->query.Clone();
    STRIP_RETURN_IF_ERROR(views_->CreateView(std::move(copy)));
    catalog_.BumpGeneration();
    return ResultSet{};
  }

  // Metadata DDL: atomic with respect to every latched statement
  // execution, closing the plan-cache check-then-execute race (a plan
  // validated against the current generation cannot have its Table* freed
  // by a concurrent DROP TABLE mid-execution).
  DdlLatch::ExclusiveGuard ddl(ddl_latch_);
  if (const auto* s = std::get_if<CreateTableStmt>(&stmt)) {
    STRIP_ASSIGN_OR_RETURN(Table * t,
                           catalog_.CreateTable(s->name, s->schema));
    (void)t;
    return ResultSet{};
  }
  if (const auto* s = std::get_if<DropTableStmt>(&stmt)) {
    STRIP_RETURN_IF_ERROR(catalog_.DropTable(s->name));
    return ResultSet{};
  }
  if (const auto* s = std::get_if<CreateIndexStmt>(&stmt)) {
    STRIP_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(s->table));
    STRIP_RETURN_IF_ERROR(t->CreateTableIndex(s->column, s->kind));
    catalog_.BumpGeneration();
    return ResultSet{};
  }
  if (const auto* s = std::get_if<CreateRuleStmt>(&stmt)) {
    CreateRuleStmt copy;
    copy.rule_name = s->rule_name;
    copy.table = s->table;
    copy.events = s->events;
    for (const auto& rq : s->condition) copy.condition.push_back(rq.Clone());
    for (const auto& rq : s->evaluate) copy.evaluate.push_back(rq.Clone());
    copy.function_name = s->function_name;
    copy.unique = s->unique;
    copy.unique_columns = s->unique_columns;
    copy.delay_seconds = s->delay_seconds;
    STRIP_RETURN_IF_ERROR(rules_->CreateRule(std::move(copy)));
    catalog_.BumpGeneration();
    return ResultSet{};
  }
  if (const auto* s = std::get_if<DropRuleStmt>(&stmt)) {
    STRIP_RETURN_IF_ERROR(rules_->DropRule(s->name));
    catalog_.BumpGeneration();
    return ResultSet{};
  }
  return Status::Internal("unhandled DDL statement");
}

ExecContext Database::MakeExecContext(Transaction* txn,
                                      TaskControlBlock* task,
                                      const std::vector<Value>* params) {
  ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.locks = &locks_;
  ctx.txn = txn;
  ctx.bound = task != nullptr ? &task->bound_tables : nullptr;
  ctx.rows_scanned = task != nullptr ? &task->rows_scanned : nullptr;
  ctx.funcs = &scalar_funcs_;
  ctx.params = params;
  return ctx;
}

Result<ResultSet> Database::ExecuteStatement(Transaction* txn,
                                             const Statement& stmt,
                                             TaskControlBlock* task,
                                             const std::vector<Value>* params) {
  if (IsDdl(stmt)) {
    return Status::InvalidArgument(
        "DDL cannot run inside a transaction; use Execute()");
  }
  if (const auto* s = std::get_if<SelectStmt>(&stmt)) {
    STRIP_ASSIGN_OR_RETURN(TempTable t, Query(txn, *s, task, params));
    return t.Materialize();
  }
  static const std::vector<Value> kNoParams;
  STRIP_ASSIGN_OR_RETURN(
      int n, ExecuteDml(txn, stmt, params != nullptr ? *params : kNoParams,
                        task));
  return RowsAffected(n);
}

Result<TempTable> Database::Query(Transaction* txn, const SelectStmt& stmt,
                                  TaskControlBlock* task,
                                  const std::vector<Value>* params) {
  DdlLatch::SharedGuard ddl(ddl_latch_);
  SqlExecutor executor(MakeExecContext(txn, task, params));
  return executor.ExecuteSelect(stmt);
}

Result<int> Database::ExecuteDml(Transaction* txn, const Statement& stmt,
                                 const std::vector<Value>& params,
                                 TaskControlBlock* task) {
  DdlLatch::SharedGuard ddl(ddl_latch_);
  STRIP_ASSIGN_OR_RETURN(DmlPlan plan,
                         DmlPlan::Build(stmt, catalog_, &scalar_funcs_));
  SqlExecutor executor(MakeExecContext(txn, task, &params));
  return executor.ExecuteDml(plan);
}

Result<PreparedStatementPtr> Database::Prepare(const std::string& sql) {
  std::string key = NormalizeSql(sql);
  {
    std::lock_guard<std::mutex> lk(plan_mu_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second.first);
      plan_hits_->Add();
      return it->second.second;
    }
  }
  STRIP_ASSIGN_OR_RETURN(Statement stmt, Parser::ParseStatement(sql));
  PreparedStatementPtr handle(
      new PreparedStatement(this, sql, std::move(stmt)));
  // DDL runs once and mutates the catalog; caching its handle would only
  // pin a dead plan.
  if (handle->is_ddl()) return handle;
  std::lock_guard<std::mutex> lk(plan_mu_);
  plan_misses_->Add();
  auto it = plan_cache_.find(key);
  if (it != plan_cache_.end()) {  // another thread prepared it meanwhile
    plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second.first);
    return it->second.second;
  }
  plan_lru_.push_front(key);
  plan_cache_.emplace(key, std::make_pair(plan_lru_.begin(), handle));
  while (plan_cache_.size() > options_.plan_cache_capacity &&
         !plan_lru_.empty()) {
    plan_cache_.erase(plan_lru_.back());
    plan_lru_.pop_back();
  }
  return handle;
}

Result<ResultSet> Database::Execute(const std::string& sql) {
  STRIP_ASSIGN_OR_RETURN(PreparedStatementPtr ps, Prepare(sql));
  return ps->Execute();
}

Result<ResultSet> Database::Execute(const Statement& stmt) {
  if (IsDdl(stmt)) return ExecuteDdl(stmt);
  ResultSet result;
  STRIP_RETURN_IF_ERROR(RunWithRestarts(
      [&](Transaction& txn) -> Status {
        STRIP_ASSIGN_OR_RETURN(result, ExecuteStatement(&txn, stmt));
        return Status::OK();
      },
      {}, /*auto_commit=*/true));
  return result;
}

Status Database::ExecuteScript(const std::string& sql) {
  STRIP_ASSIGN_OR_RETURN(std::vector<Statement> stmts,
                         Parser::ParseScript(sql));
  for (const Statement& stmt : stmts) {
    STRIP_RETURN_IF_ERROR(Execute(stmt).status());
  }
  return Status::OK();
}

Result<std::vector<std::string>> Database::Explain(const std::string& sql) {
  STRIP_ASSIGN_OR_RETURN(Statement stmt, Parser::ParseStatement(sql));
  const auto* select = std::get_if<SelectStmt>(&stmt);
  if (select == nullptr) {
    return Status::InvalidArgument("Explain() takes a SELECT statement");
  }
  STRIP_ASSIGN_OR_RETURN(Transaction * txn, Begin());
  std::vector<std::string> trace;
  DdlLatch::SharedGuard ddl(ddl_latch_);
  ExecContext ctx = MakeExecContext(txn, nullptr, nullptr);
  ctx.plan_trace = &trace;
  SqlExecutor executor(ctx);
  auto result = executor.ExecuteSelect(*select);
  if (!result.ok()) {
    Status ignored = Abort(txn);
    (void)ignored;
    return result.status();
  }
  STRIP_RETURN_IF_ERROR(Commit(txn));
  trace.push_back(StrFormat("-> %zu row(s)", result->size()));
  return trace;
}

Result<ResultSet> Database::ExecuteInTxn(Transaction* txn,
                                         const std::string& sql,
                                         TaskControlBlock* task) {
  STRIP_ASSIGN_OR_RETURN(PreparedStatementPtr ps, Prepare(sql));
  return ps->ExecuteInTxn(txn, {}, task);
}

}  // namespace strip
