#include "strip/rules/rule_engine.h"

#include "strip/common/string_util.h"
#include "strip/obs/trace_ring.h"
#include "strip/rules/transition_tables.h"
#include "strip/sql/executor.h"

namespace strip {

Status RuleEngine::CreateRule(CreateRuleStmt stmt) {
  STRIP_ASSIGN_OR_RETURN(RuleDef rule,
                         RuleDef::Create(std::move(stmt), *deps_.catalog));
  if (FindRule(rule.name()) != nullptr) {
    return Status::AlreadyExists(
        StrFormat("rule '%s' already exists", rule.name().c_str()));
  }

  // Rules executing the same user function must define their bound tables
  // identically (§2): same names, same defining queries.
  auto bindings_of = [](const RuleDef& r) {
    std::map<std::string, std::string> out;
    for (const auto& rq : r.condition()) {
      if (!rq.bind_as.empty()) out[rq.bind_as] = rq.query.ToString();
    }
    for (const auto& rq : r.evaluate()) {
      if (!rq.bind_as.empty()) out[rq.bind_as] = rq.query.ToString();
    }
    return out;
  };
  auto mine = bindings_of(rule);
  for (const auto& existing : rules_) {
    if (existing->function_name() != rule.function_name()) continue;
    if (bindings_of(*existing) != mine) {
      return Status::InvalidArgument(StrFormat(
          "rule '%s': bound tables differ from rule '%s' executing the same "
          "function '%s' (bound tables of rules sharing a function must be "
          "defined identically, §2)",
          rule.name().c_str(), existing->name().c_str(),
          rule.function_name().c_str()));
    }
  }

  // The paper creates the unique hash table when the first rule executing
  // the transaction is defined (§6.3).
  if (rule.unique()) unique_.EnsureFunction(rule.function_name());

  rules_.push_back(std::make_unique<RuleDef>(std::move(rule)));
  return Status::OK();
}

Status RuleEngine::DropRule(const std::string& name) {
  std::string key = ToLower(name);
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if ((*it)->name() == key) {
      rules_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound(StrFormat("no rule '%s'", key.c_str()));
}

Status RuleEngine::SetRuleEnabled(const std::string& name, bool enabled) {
  std::string key = ToLower(name);
  for (auto& r : rules_) {
    if (r->name() == key) {
      r->set_enabled(enabled);
      return Status::OK();
    }
  }
  return Status::NotFound(StrFormat("no rule '%s'", key.c_str()));
}

const RuleDef* RuleEngine::FindRule(const std::string& name) const {
  std::string key = ToLower(name);
  for (const auto& r : rules_) {
    if (r->name() == key) return r.get();
  }
  return nullptr;
}

std::vector<std::string> RuleEngine::ListRules() const {
  std::vector<std::string> out;
  out.reserve(rules_.size());
  for (const auto& r : rules_) out.push_back(r->name());
  return out;
}

TaskPtr RuleEngine::NewActionTask(const RuleDef& rule, Timestamp commit_time,
                                  Timestamp change_time,
                                  const TraceContext& parent_trace,
                                  BoundTableSet&& tables) {
  auto task = std::make_shared<TaskControlBlock>(
      deps_.task_ids->fetch_add(1, std::memory_order_relaxed));
  task->release_time = commit_time + rule.delay_micros();
  task->function_name = rule.function_name();
  task->bound_tables = std::move(tables);
  task->oldest_change_time = change_time;
  task->newest_change_time = change_time;
  // The firing continues the triggering transaction's causal trace; an
  // untraced trigger (ad-hoc SQL) starts a root here so the action and any
  // rules it cascades into still share one trace.
  task->trace = ChildOf(parent_trace);
  task->work = deps_.action_runner;
  stats_.tasks_created.fetch_add(1, std::memory_order_relaxed);
  return task;
}

Status RuleEngine::FireRule(const RuleDef& rule, Transaction* txn,
                            Timestamp commit_time,
                            const BoundTableSet& transition,
                            std::vector<TaskPtr>& out) {
  stats_.rules_triggered.fetch_add(1, std::memory_order_relaxed);

  std::map<std::string, Value> pseudo;
  pseudo.emplace("commit_time", Value::Int(commit_time));

  ExecContext ctx;
  ctx.catalog = deps_.catalog;
  ctx.locks = deps_.locks;
  ctx.txn = txn;
  ctx.transition = &transition;
  ctx.funcs = deps_.scalar_funcs;
  ctx.pseudo = &pseudo;
  SqlExecutor executor(ctx);

  BoundTableSet bound;

  // Condition: every query must return at least one row (§2).
  for (const RuleQuery& rq : rule.condition()) {
    std::string name = rq.bind_as.empty() ? "_cond" : rq.bind_as;
    STRIP_ASSIGN_OR_RETURN(TempTable result,
                           executor.ExecuteSelect(rq.query, name));
    if (result.size() == 0) return Status::OK();  // condition false
    if (!rq.bind_as.empty()) {
      STRIP_RETURN_IF_ERROR(bound.Add(std::move(result)));
    }
  }
  stats_.conditions_true.fetch_add(1, std::memory_order_relaxed);

  // Evaluate clause: computed only when the condition holds; purely for
  // passing data to the action (§2).
  for (const RuleQuery& rq : rule.evaluate()) {
    std::string name = rq.bind_as.empty() ? "_eval" : rq.bind_as;
    STRIP_ASSIGN_OR_RETURN(TempTable result,
                           executor.ExecuteSelect(rq.query, name));
    if (!rq.bind_as.empty()) {
      STRIP_RETURN_IF_ERROR(bound.Add(std::move(result)));
    }
  }

  const Timestamp change_time = txn->arrival_time();
  if (!rule.unique()) {
    out.push_back(NewActionTask(rule, commit_time, change_time, txn->trace(),
                                std::move(bound)));
    return Status::OK();
  }

  // Unique transaction path: partition by the unique columns (Appendix A),
  // then merge into queued tasks or create new ones (§6.3).
  STRIP_ASSIGN_OR_RETURN(
      auto partitions,
      PartitionByUniqueColumns(std::move(bound), rule.unique_columns()));
  for (auto& [key, tables] : partitions) {
    STRIP_ASSIGN_OR_RETURN(
        TaskPtr created,
        unique_.MergeOrCreate(
            rule.function_name(), key, std::move(tables), change_time,
            txn->trace().trace_id,
            [&](const std::vector<Value>&, BoundTableSet&& t) {
              return NewActionTask(rule, commit_time, change_time,
                                   txn->trace(), std::move(t));
            }));
    if (created != nullptr) {
      out.push_back(std::move(created));
      continue;
    }
    stats_.firings_merged.fetch_add(1, std::memory_order_relaxed);
    if (deps_.trace != nullptr) {
      deps_.trace->Record(TraceEventKind::kMerge, txn->id(), commit_time,
                          rule.function_name().c_str(),
                          txn->trace().trace_id);
    }
  }
  return Status::OK();
}

Result<std::vector<TaskPtr>> RuleEngine::ProcessCommit(
    Transaction* txn, Timestamp commit_time) {
  std::vector<TaskPtr> out;
  const TxnLog& log = txn->log();
  if (log.empty() || rules_.empty()) return out;
  stats_.commits_checked.fetch_add(1, std::memory_order_relaxed);

  // Transition tables are built per touched table, shared by its rules.
  std::map<const Table*, BoundTableSet> transitions;

  for (const auto& rule : rules_) {
    if (!rule->enabled()) continue;
    Table* table = deps_.catalog->FindTable(rule->table());
    if (table == nullptr) continue;  // table dropped after rule creation

    bool triggered = false;
    for (const LogEntry& e : log.entries()) {
      if (e.table != table) continue;
      for (const RuleEvent& ev : rule->events()) {
        if (EventMatches(ev, e.op, table->schema(), e.old_rec, e.new_rec)) {
          triggered = true;
          break;
        }
      }
      if (triggered) break;
    }
    if (!triggered) continue;

    auto it = transitions.find(table);
    if (it == transitions.end()) {
      it = transitions
               .emplace(table, BuildTransitionTables(*table, log))
               .first;
    }
    STRIP_RETURN_IF_ERROR(
        FireRule(*rule, txn, commit_time, it->second, out));
  }
  return out;
}

}  // namespace strip
