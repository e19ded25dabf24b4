#ifndef STRIP_ENGINE_DATABASE_H_
#define STRIP_ENGINE_DATABASE_H_

#include <atomic>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "strip/common/status.h"
#include "strip/engine/ddl_latch.h"
#include "strip/engine/function_registry.h"
#include "strip/engine/prepared_statement.h"
#include "strip/obs/metrics.h"
#include "strip/obs/rule_cost.h"
#include "strip/obs/trace_ring.h"
#include "strip/rules/rule_engine.h"
#include "strip/sql/executor.h"
#include "strip/sql/parser.h"
#include "strip/storage/catalog.h"
#include "strip/txn/simulated_executor.h"
#include "strip/txn/threaded_executor.h"

namespace strip {

class ViewManager;

/// How tasks are executed (DESIGN.md §4).
enum class ExecutorMode {
  /// Discrete-event simulation on a virtual clock; deterministic,
  /// single-server. Drive time with simulated()->RunUntil(...).
  kSimulated,
  /// Real worker threads on the wall clock.
  kThreaded,
};

/// The STRIP database engine: a main-memory DBMS with the rule system of
/// §2/§6 on top. This is the library's primary entry point.
///
///   strip::Database db;
///   db.ExecuteScript("create table stocks (symbol string, price double);");
///   db.RegisterFunction("recompute", ...);
///   db.Execute("create rule r on stocks when updated price then "
///              "execute recompute unique after 1.0 seconds");
class Database {
 public:
  struct Options {
    ExecutorMode mode = ExecutorMode::kSimulated;
    SchedulingPolicy policy = SchedulingPolicy::kFifo;
    /// Threaded mode: size of the process (worker) pool.
    int num_workers = 2;
    /// Simulated mode: advance virtual time by each task's measured cost
    /// (single-CPU model). Disable for pure logical-time tests.
    bool advance_clock_by_cost = true;
    /// Engine-run transactions (rule actions, feed upserts, auto-commit
    /// statements) aborted by wait-die are retried this many times before
    /// the abort is returned.
    int action_retry_limit = 10;
    /// Capacity of the LRU cache of prepared statements (keyed by
    /// normalized SQL) that every textual statement runs through.
    size_t plan_cache_capacity = 256;
    /// Hot-path observability (src/strip/obs/): the lifecycle trace ring,
    /// task latency histograms, and per-rule staleness probes. Counters
    /// (always on) are single relaxed atomic increments; disabling this
    /// removes the rest for overhead A/B measurements.
    bool enable_metrics = true;
  };

  Database();
  explicit Database(Options options);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- SQL entry points --------------------------------------------------
  /// Prepares (through the plan cache) and executes one statement. DML /
  /// SELECT run in their own transaction (committed on success — firing
  /// rules; wait-die aborts restart, see RunWithRestarts); DDL is
  /// immediate.
  Result<ResultSet> Execute(const std::string& sql);

  /// Executes one pre-parsed statement with the same semantics, planning
  /// it on every call.
  Result<ResultSet> Execute(const Statement& stmt);

  /// Executes a ';'-separated script, stopping at the first error.
  Status ExecuteScript(const std::string& sql);

  /// Parses `sql` once and returns a reusable handle that freezes FROM
  /// resolution, plan choice (index probe vs. scan), and slot-compiled
  /// expression programs; execute it repeatedly with '?' bindings. Handles
  /// for the same normalized SQL text are shared through an LRU cache;
  /// plans self-invalidate on any DDL via the catalog generation counter.
  /// DDL statements get fresh uncached handles.
  Result<PreparedStatementPtr> Prepare(const std::string& sql);

  /// Executes a SELECT and returns the plan decisions the executor made
  /// (scan methods, join order and algorithms, aggregation, sorting) —
  /// EXPLAIN-ANALYZE-style: the query really runs, in its own transaction.
  Result<std::vector<std::string>> Explain(const std::string& sql);

  /// Executes one statement inside the caller's transaction (DML / SELECT
  /// only). `task` (optional) makes that task's bound tables visible.
  Result<ResultSet> ExecuteInTxn(Transaction* txn, const std::string& sql,
                                 TaskControlBlock* task = nullptr);

  /// Executes a pre-parsed statement inside a transaction. Parsing once
  /// and re-executing with '?' placeholder bindings in `params` is the
  /// engine's prepared-statement path; rule action functions use it to
  /// avoid per-invocation parse cost.
  Result<ResultSet> ExecuteStatement(Transaction* txn, const Statement& stmt,
                                     TaskControlBlock* task = nullptr,
                                     const std::vector<Value>* params = nullptr);

  /// Convenience: runs a SELECT inside a transaction returning the temp
  /// table (pointer-backed; cheaper than materializing a ResultSet).
  Result<TempTable> Query(Transaction* txn, const SelectStmt& stmt,
                          TaskControlBlock* task = nullptr,
                          const std::vector<Value>* params = nullptr);

  /// Executes an UPDATE / INSERT / DELETE with bound parameters, planning
  /// it on every call, and returns affected rows without building a
  /// ResultSet. Prepared handles (PreparedStatement::ExecuteDml) run the
  /// same routine with a cached plan.
  Result<int> ExecuteDml(Transaction* txn, const Statement& stmt,
                         const std::vector<Value>& params,
                         TaskControlBlock* task = nullptr);

  // --- transactions ------------------------------------------------------
  /// Starts a transaction. The pointer stays valid until Commit / Abort.
  /// `priority` (0 = the new id) sets the wait-die age; a retried
  /// transaction passes its predecessor's priority so it cannot starve.
  Result<Transaction*> Begin(uint64_t priority = 0);

  /// Commits: event-checks the log against the rules (§6.3), stamps the
  /// commit time, releases locks, then enqueues triggered action tasks.
  Status Commit(Transaction* txn);

  /// Rolls back every logged change and releases locks.
  Status Abort(Transaction* txn);

  /// Runs `body` in a fresh transaction and commits it, restarting when
  /// wait-die aborts it (in `body` or in Commit): up to
  /// Options::action_retry_limit restarts, every attempt with the first
  /// attempt's priority so a restarted transaction ages instead of
  /// starving, and a 1-32 ms backoff before each restart so the older
  /// conflicting transaction can finish. `on_restart` (optional) runs after
  /// each aborted attempt. Any other failure aborts and returns at once.
  ///
  /// `auto_commit` marks an application thread's single statement: each
  /// attempt then holds the DDL latch shared from Begin through Commit
  /// (released while backing off), and backs off in simulated mode too —
  /// the conflicting transaction lives on another thread. Otherwise
  /// (engine tasks) the simulated executor, being single-threaded, never
  /// backs off.
  Status RunWithRestarts(const std::function<Status(Transaction&)>& body,
                         const std::function<void()>& on_restart = {},
                         bool auto_commit = false);

  // --- rule actions / functions -------------------------------------------
  /// Registers a user (rule action) function.
  Status RegisterFunction(const std::string& name, UserFunction fn);

  /// Registers a scalar SQL function (e.g. the Black-Scholes pricer).
  Status RegisterScalarFunction(const std::string& name, ScalarFunc fn);

  // --- tasks ---------------------------------------------------------------
  /// Creates an application task (caller fills in work / release time).
  TaskPtr NewTask();

  /// Enqueues a task with the executor.
  void Submit(TaskPtr task);

  // --- periodic recomputation -----------------------------------------------
  /// Runs the registered user function `function_name` every `period`
  /// seconds (first run one period from now), each run in its own
  /// transaction with no bound tables. This is STRIP's periodic
  /// recomputation facility — e.g. refreshing stock_stdev outside trading
  /// hours (§3). Fails if the name is taken or the function is unknown.
  Status SchedulePeriodic(const std::string& name, double period_seconds,
                          const std::string& function_name);

  /// Stops the named periodic job (takes effect at its next release).
  Status CancelPeriodic(const std::string& name);

  // --- components ----------------------------------------------------------
  const Options& options() const { return options_; }
  /// The unified metrics registry and the only store of the engine's
  /// counts: every subsystem's counters (lock manager, executor, rule
  /// engine, plan cache, transactions), pull gauges for sizes, and the
  /// latency / staleness histograms. SnapshotJson() is the export surface.
  /// Metric names are catalogued in DESIGN.md §8.
  MetricsRegistry& metrics() { return metrics_; }
  /// Per-transaction lifecycle trace of the most recent tasks
  /// (submit/delay/ready/start/commit/...); ToChromeJson() loads in
  /// chrome://tracing. Disabled (capacity 0) when !options.enable_metrics.
  TraceRing& trace_ring() { return trace_ring_; }
  Catalog& catalog() { return catalog_; }
  LockManager& locks() { return locks_; }
  RuleEngine& rules() { return *rules_; }
  FunctionRegistry& functions() { return functions_; }
  const ScalarFuncRegistry& scalar_funcs() const { return scalar_funcs_; }
  ViewManager& views() { return *views_; }
  Executor& executor() { return *executor_; }
  /// Non-null iff mode == kSimulated / kThreaded respectively.
  SimulatedExecutor* simulated() { return sim_.get(); }
  ThreadedExecutor* threaded() { return threaded_.get(); }
  Timestamp Now() const { return executor_->Now(); }

  /// Transactions begun but not yet committed / aborted — zero whenever the
  /// system is between simulated steps (chaos invariant b precondition).
  size_t NumActiveTxns() const {
    std::lock_guard<std::mutex> lk(txns_mu_);
    return txns_.size();
  }

 private:
  /// PreparedStatement executes against the engine's internals (catalog,
  /// locks, options, immediate DDL) on behalf of its owning database.
  friend class PreparedStatement;

  /// The action runner installed into rule tasks: unhooks the task from
  /// the unique hash table, then runs the user function in a fresh
  /// transaction, retrying wait-die aborts.
  Status RunActionTask(TaskControlBlock& task);

  /// Immediate (non-transactional) DDL execution.
  Result<ResultSet> ExecuteDdl(const Statement& stmt);

  /// Executor context for statement work in `txn` on behalf of `task`
  /// (optional: its bound tables and scan counter).
  ExecContext MakeExecContext(Transaction* txn, TaskControlBlock* task,
                              const std::vector<Value>* params);

  /// Resolves the engine's own hot-path counter / histogram handles and
  /// registers the pull-state gauges (plan-cache size, trace ring totals).
  void RegisterBuiltinMetrics();

  /// Stamps commit staleness into the task and feeds the per-rule
  /// staleness histogram + batching-factor histogram (the paper's §7
  /// metric). Called after a rule-action transaction commits.
  void RecordActionCommit(TaskControlBlock& task);

  /// Lifecycle events retained by the trace ring (~5 events per task, so
  /// the last ~1600 transactions).
  static constexpr size_t kTraceCapacity = 8192;

  Options options_;
  MetricsRegistry metrics_;
  TraceRing trace_ring_;
  /// Statement execution shared / metadata DDL exclusive (see ddl_latch.h):
  /// makes the plan-cache generation check-and-execute atomic w.r.t.
  /// catalog mutation.
  DdlLatch ddl_latch_;
  Catalog catalog_;
  LockManager locks_;
  ScalarFuncRegistry scalar_funcs_;
  FunctionRegistry functions_;
  std::unique_ptr<SimulatedExecutor> sim_;
  std::unique_ptr<ThreadedExecutor> threaded_;
  Executor* executor_ = nullptr;
  std::unique_ptr<RuleEngine> rules_;
  std::unique_ptr<ViewManager> views_;

  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<uint64_t> next_task_id_{1};

  /// One tick of a periodic job: run the function, reschedule.
  void SubmitPeriodicTick(const std::string& function_name,
                          Timestamp period,
                          std::shared_ptr<std::atomic<bool>> cancelled);

  mutable std::mutex txns_mu_;
  std::map<uint64_t, std::unique_ptr<Transaction>> txns_;

  std::mutex periodic_mu_;
  std::map<std::string, std::shared_ptr<std::atomic<bool>>> periodic_;

  /// LRU cache of prepared statements keyed by normalized SQL. The list
  /// orders keys most-recently-used first; the map holds each key's list
  /// position and handle.
  mutable std::mutex plan_mu_;
  std::list<std::string> plan_lru_;
  std::unordered_map<std::string,
                     std::pair<std::list<std::string>::iterator,
                               PreparedStatementPtr>>
      plan_cache_;

  // Registry-owned counters (hot paths increment through the cached
  // pointers).
  Counter* plan_hits_ = nullptr;
  Counter* plan_misses_ = nullptr;
  Counter* txn_begins_ = nullptr;
  Counter* txn_commits_ = nullptr;
  Counter* txn_aborts_ = nullptr;
  Counter* action_restarts_ = nullptr;
  /// Null when !options_.enable_metrics: batching-factor histogram
  /// (firings consumed per executed rule task).
  Histogram* batch_factor_hist_ = nullptr;
  /// Null when !options_.enable_metrics: per-rule latency breakdown and
  /// cost counters, fed by the executors at task finish (ExecutorObs).
  std::unique_ptr<RuleCostTracker> rule_cost_;
};

}  // namespace strip

#endif  // STRIP_ENGINE_DATABASE_H_
