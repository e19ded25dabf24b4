#ifndef STRIP_RULES_RULE_ENGINE_H_
#define STRIP_RULES_RULE_ENGINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "strip/common/clock.h"
#include "strip/common/status.h"
#include "strip/obs/metrics.h"
#include "strip/rules/rule_def.h"
#include "strip/rules/unique_manager.h"
#include "strip/sql/expr_eval.h"
#include "strip/storage/catalog.h"
#include "strip/txn/lock_manager.h"
#include "strip/txn/task.h"
#include "strip/txn/transaction.h"

namespace strip {

class TraceRing;

/// Wiring the rule engine needs from the database engine.
struct RuleEngineDeps {
  Catalog* catalog = nullptr;
  LockManager* locks = nullptr;
  const ScalarFuncRegistry* scalar_funcs = nullptr;
  /// Lifecycle trace ring (may be null): merge events are recorded here so
  /// a transaction timeline shows firings batched into queued tasks.
  TraceRing* trace = nullptr;
  /// Runs a rule task: looks up the user function, opens the action
  /// transaction, executes, commits. Installed into every created task.
  std::function<Status(TaskControlBlock&)> action_runner;
  /// Shared task-id allocator.
  std::atomic<uint64_t>* task_ids = nullptr;
  /// Holds the `rules.*` counters (required).
  MetricsRegistry* metrics = nullptr;
};

/// Rule-processing statistics (feed the paper's metrics): the registry's
/// `rules.*` counters, resolved once. Committing transactions (and action
/// tasks that themselves commit) add to them concurrently.
struct RuleStats {
  explicit RuleStats(MetricsRegistry& metrics);
  Counter& commits_checked;  // transactions event-checked
  Counter& rules_triggered;  // event matched
  Counter& conditions_true;
  Counter& tasks_created;    // new action tasks enqueued
  Counter& firings_merged;   // batched into a queued task
};

/// The STRIP rule system (§2, §6.3). Holds rule definitions; at the end of
/// each transaction (prior to commit) scans its log for triggering events,
/// evaluates conditions, binds tables, and creates / merges action tasks.
class RuleEngine {
 public:
  explicit RuleEngine(RuleEngineDeps deps)
      : deps_(std::move(deps)), stats_(*deps_.metrics) {}

  RuleEngine(const RuleEngine&) = delete;
  RuleEngine& operator=(const RuleEngine&) = delete;

  /// Validates and registers a rule. Rules sharing a user function must
  /// define their bound tables identically (§2); this is checked here.
  Status CreateRule(CreateRuleStmt stmt);

  Status DropRule(const std::string& name);

  /// Rule de/re-activation (§7 discusses emulating uniqueness with it).
  Status SetRuleEnabled(const std::string& name, bool enabled);

  const RuleDef* FindRule(const std::string& name) const;
  std::vector<std::string> ListRules() const;

  /// Event checking + condition evaluation + action-task creation for a
  /// committing transaction (§6.3). `commit_time` is the timestamp the
  /// engine will commit the transaction with; it stamps `commit_time`
  /// pseudo-columns and anchors delay windows. Returns the new tasks the
  /// caller must submit to the executor once the commit is durable;
  /// firings merged into already-queued unique tasks return no task.
  ///
  /// Runs in two phases: every step that can fail (conditions, evaluate
  /// queries, partitioning, the merge layout check) runs for all triggered
  /// rules before the first merge, so a failed commit leaves no trace in
  /// the queued unique tasks. The caller must hold the DDL latch (shared).
  Result<std::vector<TaskPtr>> ProcessCommit(Transaction* txn,
                                             Timestamp commit_time);

  UniqueTxnManager& unique_manager() { return unique_; }
  const RuleStats& stats() const { return stats_; }

 private:
  /// A registered rule and, for a unique rule, its function's queue of
  /// queued tasks (resolved once, when the rule is created).
  struct Rule {
    std::unique_ptr<RuleDef> def;
    UniqueTxnManager::FunctionQueue* queue = nullptr;
  };

  /// The outcome of a rule whose condition held: its bound tables and,
  /// for a unique rule, their partition by unique key.
  struct Firing {
    const Rule* rule = nullptr;
    BoundTableSet bound;
    UniquePartition parts;
    uint64_t layout = 0;  // the bound tables' BoundLayoutId
  };

  /// Phase one of a firing — everything that can fail: runs the rule's
  /// condition and evaluate plans against the commit's transition tables
  /// (`transition`, bound by position) and, for a unique rule, partitions
  /// the bound tables and checks them against the queued tasks. Returns
  /// nullopt when the condition is false.
  Result<std::optional<Firing>> Evaluate(
      const Rule& rule, Transaction* txn,
      const std::vector<const TempTable*>& transition,
      const std::map<std::string, Value>& pseudo);

  /// Phase two, which cannot fail: merges the firing into queued unique
  /// tasks or creates its tasks, appending created tasks to `out`.
  void Dispatch(Firing&& firing, Transaction* txn, Timestamp commit_time,
                std::vector<TaskPtr>& out);

  /// `change_time` is the triggering transaction's data arrival time; it
  /// seeds the task's staleness stamps. The task runs as a child span of
  /// `parent_trace` (a fresh root if the triggering txn was untraced).
  TaskPtr NewActionTask(const RuleDef& rule, Timestamp commit_time,
                        Timestamp change_time,
                        const TraceContext& parent_trace,
                        BoundTableSet&& tables);

  RuleEngineDeps deps_;
  // Definition order matters for deterministic processing; the paper notes
  // rule consideration order is semantically unimportant (§2).
  std::vector<Rule> rules_;
  UniqueTxnManager unique_;
  RuleStats stats_;
};

}  // namespace strip

#endif  // STRIP_RULES_RULE_ENGINE_H_
