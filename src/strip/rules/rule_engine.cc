#include "strip/rules/rule_engine.h"

#include "strip/common/string_util.h"
#include "strip/obs/trace_ring.h"
#include "strip/rules/transition_tables.h"
#include "strip/sql/executor.h"

namespace strip {

RuleStats::RuleStats(MetricsRegistry& metrics)
    : commits_checked(*metrics.counter("rules.commits_checked")),
      rules_triggered(*metrics.counter("rules.rules_triggered")),
      conditions_true(*metrics.counter("rules.conditions_true")),
      tasks_created(*metrics.counter("rules.tasks_created")),
      firings_merged(*metrics.counter("rules.firings_merged")) {}

Status RuleEngine::CreateRule(CreateRuleStmt stmt) {
  STRIP_ASSIGN_OR_RETURN(std::unique_ptr<RuleDef> rule,
                         RuleDef::Create(std::move(stmt), *deps_.catalog));
  if (FindRule(rule->name()) != nullptr) {
    return Status::AlreadyExists(
        StrFormat("rule '%s' already exists", rule->name().c_str()));
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
  auto mine = bindings_of(*rule);
  for (const Rule& existing : rules_) {
    if (existing.def->function_name() != rule->function_name()) continue;
    if (bindings_of(*existing.def) != mine) {
      return Status::InvalidArgument(StrFormat(
          "rule '%s': bound tables differ from rule '%s' executing the same "
          "function '%s' (bound tables of rules sharing a function must be "
          "defined identically, §2)",
          rule->name().c_str(), existing.def->name().c_str(),
          rule->function_name().c_str()));
    }
  }

  // The paper creates the unique hash table when the first rule executing
  // the transaction is defined (§6.3).
  Rule entry;
  if (rule->unique()) {
    entry.queue = unique_.EnsureFunction(rule->function_name());
  }
  entry.def = std::move(rule);
  rules_.push_back(std::move(entry));
  return Status::OK();
}

Status RuleEngine::DropRule(const std::string& name) {
  std::string key = ToLower(name);
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if (it->def->name() == key) {
      rules_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound(StrFormat("no rule '%s'", key.c_str()));
}

Status RuleEngine::SetRuleEnabled(const std::string& name, bool enabled) {
  std::string key = ToLower(name);
  for (Rule& r : rules_) {
    if (r.def->name() == key) {
      r.def->set_enabled(enabled);
      return Status::OK();
    }
  }
  return Status::NotFound(StrFormat("no rule '%s'", key.c_str()));
}

const RuleDef* RuleEngine::FindRule(const std::string& name) const {
  std::string key = ToLower(name);
  for (const Rule& r : rules_) {
    if (r.def->name() == key) return r.def.get();
  }
  return nullptr;
}

std::vector<std::string> RuleEngine::ListRules() const {
  std::vector<std::string> out;
  out.reserve(rules_.size());
  for (const Rule& r : rules_) out.push_back(r.def->name());
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
  stats_.tasks_created.Add();
  return task;
}

Result<std::optional<RuleEngine::Firing>> RuleEngine::Evaluate(
    const Rule& rule, Transaction* txn,
    const std::vector<const TempTable*>& transition,
    const std::map<std::string, Value>& pseudo) {
  const RuleDef& def = *rule.def;
  stats_.rules_triggered.Add();
  std::shared_ptr<const RuleDef::Plans> plans =
      def.CurrentPlans(*deps_.catalog, deps_.scalar_funcs);
  STRIP_RETURN_IF_ERROR(plans->status);

  ExecContext ctx;
  ctx.catalog = deps_.catalog;
  ctx.locks = deps_.locks;
  ctx.txn = txn;
  ctx.funcs = deps_.scalar_funcs;
  ctx.pseudo = &pseudo;
  SqlExecutor executor(ctx);

  Firing firing;
  firing.rule = &rule;
  // Condition: every query must return at least one row (§2).
  for (size_t i = 0; i < def.condition().size(); ++i) {
    const RuleQuery& rq = def.condition()[i];
    STRIP_ASSIGN_OR_RETURN(
        TempTable result,
        executor.Execute(plans->condition[i], transition,
                         rq.bind_as.empty() ? "_cond" : rq.bind_as));
    if (result.size() == 0) return std::optional<Firing>();
    if (!rq.bind_as.empty()) {
      STRIP_RETURN_IF_ERROR(firing.bound.Add(std::move(result)));
    }
  }
  stats_.conditions_true.Add();

  // Evaluate clause: computed only when the condition holds; purely for
  // passing data to the action (§2).
  for (size_t i = 0; i < def.evaluate().size(); ++i) {
    const RuleQuery& rq = def.evaluate()[i];
    STRIP_ASSIGN_OR_RETURN(
        TempTable result,
        executor.Execute(plans->evaluate[i], transition,
                         rq.bind_as.empty() ? "_eval" : rq.bind_as));
    if (!rq.bind_as.empty()) {
      STRIP_RETURN_IF_ERROR(firing.bound.Add(std::move(result)));
    }
  }

  // Unique transaction path: partition by the unique columns (Appendix A)
  // and make sure every key's rows can join its queued task (§6.3).
  // The unique columns' homes and the layout id come with the plans.
  if (def.unique()) {
    STRIP_RETURN_IF_ERROR(plans->unique_status);
    firing.parts = PartitionByUniqueColumns(firing.bound, plans->unique_homes);
    firing.layout = plans->bound_layout;
    STRIP_RETURN_IF_ERROR(
        unique_.CheckMergeable(rule.queue, firing.layout, firing.parts));
  }
  return std::optional<Firing>(std::move(firing));
}

void RuleEngine::Dispatch(Firing&& firing, Transaction* txn,
                          Timestamp commit_time, std::vector<TaskPtr>& out) {
  const RuleDef& def = *firing.rule->def;
  const Timestamp change_time = txn->arrival_time();
  if (!def.unique()) {
    out.push_back(NewActionTask(def, commit_time, change_time, txn->trace(),
                                std::move(firing.bound)));
    return;
  }
  // Merge each key's rows into its queued task or create one (§6.3).
  size_t merged = unique_.MergeFiring(
      firing.rule->queue, firing.layout, std::move(firing.bound),
      firing.parts, change_time,
      txn->trace().trace_id,
      [&](const std::vector<Value>&, BoundTableSet&& tables) {
        return NewActionTask(def, commit_time, change_time, txn->trace(),
                             std::move(tables));
      },
      out);
  stats_.firings_merged.Add(merged);
  if (deps_.trace == nullptr) return;
  deps_.trace->Record(TraceEventKind::kMerge, txn->id(), commit_time,
                      def.function_name().c_str(), txn->trace().trace_id,
                      merged);
}

Result<std::vector<TaskPtr>> RuleEngine::ProcessCommit(
    Transaction* txn, Timestamp commit_time) {
  std::vector<TaskPtr> out;
  const TxnLog& log = txn->log();
  if (log.empty() || rules_.empty()) return out;
  stats_.commits_checked.Add();

  // Transition tables are built per touched table and shared by its
  // rules, whose plans bind them by position.
  struct Transition {
    BoundTableSet tables;
    std::vector<const TempTable*> bound;
  };
  std::map<const Table*, Transition> transitions;
  const std::map<std::string, Value> pseudo = {
      {kCommitTimeColumn, Value::Int(commit_time)}};

  // Phase one: evaluate every triggered rule; any failure aborts the
  // commit before a single firing has touched the queued tasks.
  std::vector<Firing> firings;
  for (const Rule& rule : rules_) {
    const RuleDef& def = *rule.def;
    if (!def.enabled()) continue;
    Table* table = deps_.catalog->FindTable(def.table());
    if (table == nullptr) continue;  // table dropped after rule creation

    bool triggered = false;
    for (const LogEntry& e : log.entries()) {
      if (e.table != table) continue;
      for (const RuleEvent& ev : def.events()) {
        if (EventMatches(ev, e.op, table->schema(), e.old_rec, e.new_rec)) {
          triggered = true;
          break;
        }
      }
      if (triggered) break;
    }
    if (!triggered) continue;

    auto [it, built] = transitions.try_emplace(table);
    if (built) {
      it->second.tables = BuildTransitionTables(*table, log);
      for (const TempTable& t : it->second.tables.tables()) {
        it->second.bound.push_back(&t);
      }
    }
    STRIP_ASSIGN_OR_RETURN(std::optional<Firing> firing,
                           Evaluate(rule, txn, it->second.bound, pseudo));
    if (firing.has_value()) firings.push_back(std::move(*firing));
  }

  // Phase two: merge or create, in rule order; nothing here can fail.
  for (Firing& firing : firings) {
    Dispatch(std::move(firing), txn, commit_time, out);
  }
  return out;
}

}  // namespace strip
