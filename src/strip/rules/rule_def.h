#ifndef STRIP_RULES_RULE_DEF_H_
#define STRIP_RULES_RULE_DEF_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "strip/common/clock.h"
#include "strip/common/status.h"
#include "strip/sql/ast.h"
#include "strip/rules/unique_manager.h"
#include "strip/sql/executor.h"
#include "strip/storage/catalog.h"
#include "strip/txn/txn_log.h"

namespace strip {

/// Name of the pseudo column rule queries read the commit timestamp from
/// (§2).
inline constexpr char kCommitTimeColumn[] = "commit_time";

/// A validated rule (Figure 2 semantics). Built from a parsed
/// CreateRuleStmt; owns deep copies of the condition / evaluate queries and
/// their plans.
class RuleDef {
 public:
  /// Validates `stmt` against the catalog:
  ///  - the target table exists,
  ///  - `updated` column lists name real columns,
  ///  - bind-as names do not collide with catalog tables or the transition
  ///    table names,
  ///  - `unique on` columns appear in the output of at least one bound
  ///    query,
  ///  - `unique on` without any bound query is rejected.
  static Result<std::unique_ptr<RuleDef>> Create(CreateRuleStmt stmt,
                                                 const Catalog& catalog);

  RuleDef(const RuleDef&) = delete;
  RuleDef& operator=(const RuleDef&) = delete;

  const std::string& name() const { return stmt_.rule_name; }
  const std::string& table() const { return stmt_.table; }
  const std::vector<RuleEvent>& events() const { return stmt_.events; }
  const std::vector<RuleQuery>& condition() const { return stmt_.condition; }
  const std::vector<RuleQuery>& evaluate() const { return stmt_.evaluate; }
  const std::string& function_name() const { return stmt_.function_name; }
  bool unique() const { return stmt_.unique; }
  const std::vector<std::string>& unique_columns() const {
    return stmt_.unique_columns;
  }
  Timestamp delay_micros() const {
    return SecondsToMicros(stmt_.delay_seconds);
  }
  double delay_seconds() const { return stmt_.delay_seconds; }

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Names of the tables bound by this rule's condition + evaluate
  /// queries, in definition order.
  std::vector<std::string> BoundTableNames() const;

  /// The condition and evaluate queries planned for one catalog
  /// generation. FROM resolves through the transition tables —
  /// placeholders with the rule table's TransitionSchema, bound by
  /// position (kTransitionTableNames) at each firing — then the catalog;
  /// `commit_time` is a pseudo column. A build error (say, a query naming
  /// a dropped table) is kept in `status` and returned at every firing
  /// until DDL changes the catalog.
  ///
  /// A unique rule's path is resolved here too, from the bound queries'
  /// output tables: where each `unique on` column lives and the bound
  /// tables' layout id. Its error (a unique column in no bound table, or
  /// in several) is kept in `unique_status` and returned only when the
  /// rule fires, as partitioning reported it.
  struct Plans {
    uint64_t generation = 0;
    Schema transition_schema;  // the placeholders' schema; plans borrow it
    Status status;
    std::vector<SelectPlan> condition;  // parallel to condition()
    std::vector<SelectPlan> evaluate;   // parallel to evaluate()
    Status unique_status;
    std::vector<UniqueColumnHome> unique_homes;
    uint64_t bound_layout = 0;  // BoundLayoutId of a firing's bound tables
  };

  /// The plans for the catalog's current generation, rebuilt when DDL has
  /// run since the last firing. Thread-safe; the caller must hold the DDL
  /// latch (shared) while it executes them.
  std::shared_ptr<const Plans> CurrentPlans(
      const Catalog& catalog, const ScalarFuncRegistry* funcs) const;

 private:
  explicit RuleDef(CreateRuleStmt stmt) : stmt_(std::move(stmt)) {}

  Status BuildPlans(Plans& plans, const Catalog& catalog,
                    const ScalarFuncRegistry* funcs) const;
  /// Resolves `plans`' unique path (see Plans) from its built queries.
  Status ResolveUniquePath(Plans& plans) const;

  CreateRuleStmt stmt_;
  bool enabled_ = true;

  mutable std::mutex plans_mu_;
  mutable std::shared_ptr<const Plans> plans_;  // null until first firing
};

/// True iff a log operation satisfies one of the rule's events.
/// For `updated [cols]`, the update must change at least one named column.
bool EventMatches(const RuleEvent& event, LogOp op, const Schema& schema,
                  const RecordRef& old_rec, const RecordRef& new_rec);

}  // namespace strip

#endif  // STRIP_RULES_RULE_DEF_H_
