#include "strip/rules/rule_def.h"

#include "strip/common/string_util.h"
#include "strip/rules/transition_tables.h"

namespace strip {

namespace {

bool IsTransitionName(const std::string& name) {
  for (const char* t : kTransitionTableNames) {
    if (name == t) return true;
  }
  return false;
}

}  // namespace

Result<std::unique_ptr<RuleDef>> RuleDef::Create(CreateRuleStmt stmt,
                                                 const Catalog& catalog) {
  stmt.rule_name = ToLower(stmt.rule_name);
  stmt.table = ToLower(stmt.table);
  stmt.function_name = ToLower(stmt.function_name);
  for (auto& c : stmt.unique_columns) c = ToLower(c);

  STRIP_ASSIGN_OR_RETURN(Table * table, catalog.GetTable(stmt.table));
  if (stmt.events.empty()) {
    return Status::InvalidArgument(
        StrFormat("rule '%s' has no transition predicate",
                  stmt.rule_name.c_str()));
  }
  for (auto& ev : stmt.events) {
    for (auto& col : ev.columns) {
      col = ToLower(col);
      if (table->schema().FindColumn(col) < 0) {
        return Status::NotFound(StrFormat(
            "rule '%s': no column '%s' in table '%s'",
            stmt.rule_name.c_str(), col.c_str(), stmt.table.c_str()));
      }
    }
  }
  if (stmt.function_name.empty()) {
    return Status::InvalidArgument(
        StrFormat("rule '%s' names no function", stmt.rule_name.c_str()));
  }

  // Validate bind-as names and collect the bound output columns.
  std::vector<std::string> bound_columns;
  auto check_queries = [&](std::vector<RuleQuery>& queries) -> Status {
    for (auto& rq : queries) {
      if (rq.bind_as.empty()) continue;
      rq.bind_as = ToLower(rq.bind_as);
      if (IsTransitionName(rq.bind_as)) {
        return Status::InvalidArgument(StrFormat(
            "rule '%s': bound table name '%s' is reserved",
            stmt.rule_name.c_str(), rq.bind_as.c_str()));
      }
      if (catalog.FindTable(rq.bind_as) != nullptr) {
        return Status::AlreadyExists(StrFormat(
            "rule '%s': bound table name '%s' collides with a table (names "
            "chosen for bound tables should not be used elsewhere, §2)",
            stmt.rule_name.c_str(), rq.bind_as.c_str()));
      }
      if (rq.query.star) {
        // `select *` output columns depend on the FROM tables; unique
        // column validation is deferred to run time for these.
        continue;
      }
      for (size_t i = 0; i < rq.query.items.size(); ++i) {
        bound_columns.push_back(
            rq.query.items[i].OutputName(static_cast<int>(i)));
      }
    }
    return Status::OK();
  };
  STRIP_RETURN_IF_ERROR(check_queries(stmt.condition));
  STRIP_RETURN_IF_ERROR(check_queries(stmt.evaluate));

  bool any_bound = false;
  bool any_star_bound = false;
  for (const auto& rq : stmt.condition) {
    if (!rq.bind_as.empty()) {
      any_bound = true;
      any_star_bound |= rq.query.star;
    }
  }
  for (const auto& rq : stmt.evaluate) {
    if (!rq.bind_as.empty()) {
      any_bound = true;
      any_star_bound |= rq.query.star;
    }
  }
  if (!stmt.unique_columns.empty()) {
    if (!stmt.unique) {
      return Status::InvalidArgument(
          StrFormat("rule '%s': unique columns without UNIQUE",
                    stmt.rule_name.c_str()));
    }
    if (!any_bound) {
      return Status::InvalidArgument(StrFormat(
          "rule '%s': UNIQUE ON requires at least one bound table",
          stmt.rule_name.c_str()));
    }
    if (!any_star_bound) {
      for (const std::string& col : stmt.unique_columns) {
        bool found = false;
        for (const std::string& bc : bound_columns) {
          if (bc == col) {
            found = true;
            break;
          }
        }
        if (!found) {
          return Status::NotFound(StrFormat(
              "rule '%s': unique column '%s' is not produced by any bound "
              "query",
              stmt.rule_name.c_str(), col.c_str()));
        }
      }
    }
  }
  return std::unique_ptr<RuleDef>(new RuleDef(std::move(stmt)));
}

std::vector<std::string> RuleDef::BoundTableNames() const {
  std::vector<std::string> out;
  for (const auto& rq : stmt_.condition) {
    if (!rq.bind_as.empty()) out.push_back(rq.bind_as);
  }
  for (const auto& rq : stmt_.evaluate) {
    if (!rq.bind_as.empty()) out.push_back(rq.bind_as);
  }
  return out;
}

std::shared_ptr<const RuleDef::Plans> RuleDef::CurrentPlans(
    const Catalog& catalog, const ScalarFuncRegistry* funcs) const {
  // Read the generation before resolving: a concurrent DDL then at worst
  // makes these plans look stale and triggers a rebuild on the next firing.
  uint64_t gen = catalog.generation();
  std::lock_guard<std::mutex> lk(plans_mu_);
  if (plans_ == nullptr || plans_->generation != gen) {
    auto plans = std::make_shared<Plans>();
    plans->generation = gen;
    plans->status = BuildPlans(*plans, catalog, funcs);
    if (plans->status.ok() && unique()) {
      plans->unique_status = ResolveUniquePath(*plans);
    }
    plans_ = std::move(plans);
  }
  return plans_;
}

Status RuleDef::BuildPlans(Plans& plans, const Catalog& catalog,
                           const ScalarFuncRegistry* funcs) const {
  STRIP_ASSIGN_OR_RETURN(Table * table, catalog.GetTable(stmt_.table));
  plans.transition_schema = TransitionSchema(*table);
  std::vector<SelectPlan::TempSource> sources;
  for (const char* name : kTransitionTableNames) {
    sources.push_back(SelectPlan::TempSource{name, &plans.transition_schema});
  }
  // Names only: the firing supplies the value.
  static const std::map<std::string, Value> kPseudo = {
      {kCommitTimeColumn, Value()}};
  for (const RuleQuery& rq : stmt_.condition) {
    STRIP_ASSIGN_OR_RETURN(
        SelectPlan plan,
        SelectPlan::Build(rq.query, &catalog, sources, &kPseudo, funcs));
    plans.condition.push_back(std::move(plan));
  }
  for (const RuleQuery& rq : stmt_.evaluate) {
    STRIP_ASSIGN_OR_RETURN(
        SelectPlan plan,
        SelectPlan::Build(rq.query, &catalog, sources, &kPseudo, funcs));
    plans.evaluate.push_back(std::move(plan));
  }
  return Status::OK();
}

Status RuleDef::ResolveUniquePath(Plans& plans) const {
  // A firing's bound tables, in order: the bound condition queries', then
  // the bound evaluate queries'. Empty outputs carry their layout.
  BoundTableSet shells;
  auto add = [&](const std::vector<RuleQuery>& queries,
                 const std::vector<SelectPlan>& built) -> Status {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].bind_as.empty()) continue;
      STRIP_RETURN_IF_ERROR(
          shells.Add(built[i].NewOutput(queries[i].bind_as)));
    }
    return Status::OK();
  };
  STRIP_RETURN_IF_ERROR(add(stmt_.condition, plans.condition));
  STRIP_RETURN_IF_ERROR(add(stmt_.evaluate, plans.evaluate));
  std::vector<const Schema*> schemas;
  for (const TempTable& t : shells.tables()) schemas.push_back(&t.schema());
  STRIP_ASSIGN_OR_RETURN(plans.unique_homes,
                         ResolveUniqueColumns(schemas, stmt_.unique_columns));
  plans.bound_layout = BoundLayoutId(shells);
  return Status::OK();
}

bool EventMatches(const RuleEvent& event, LogOp op, const Schema& schema,
                  const RecordRef& old_rec, const RecordRef& new_rec) {
  switch (event.kind) {
    case RuleEventKind::kInserted:
      return op == LogOp::kInsert;
    case RuleEventKind::kDeleted:
      return op == LogOp::kDelete;
    case RuleEventKind::kUpdated: {
      if (op != LogOp::kUpdate) return false;
      if (event.columns.empty()) return true;
      for (const std::string& col : event.columns) {
        int c = schema.FindColumn(col);
        if (c < 0) continue;
        if (old_rec->values[static_cast<size_t>(c)] !=
            new_rec->values[static_cast<size_t>(c)]) {
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

}  // namespace strip
