#include "strip/viewmaint/rule_gen.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "strip/common/logging.h"
#include "strip/common/string_util.h"
#include "strip/engine/database.h"
#include "strip/engine/prepared_statement.h"
#include "strip/rules/net_effect.h"
#include "strip/viewmaint/view_def.h"

namespace strip {

namespace {

/// Rewrites every column reference that resolves to the fact table so it
/// reads from the transition table `target` ("new" / "old" / "inserted" /
/// "deleted") instead. A bare name is considered a fact reference iff the
/// fact schema has it and no dimension schema does.
Status RewriteFactRefs(Expr* expr, const std::string& fact,
                       const Schema& fact_schema,
                       const std::vector<const Schema*>& dim_schemas,
                       const std::string& target) {
  if (expr->kind == ExprKind::kColumnRef) {
    bool is_fact = false;
    if (expr->qualifier == fact) {
      is_fact = true;
    } else if (expr->qualifier.empty() &&
               fact_schema.FindColumn(expr->column) >= 0) {
      for (const Schema* d : dim_schemas) {
        if (d->FindColumn(expr->column) >= 0) {
          return Status::InvalidArgument(StrFormat(
              "ambiguous column '%s' (in both fact and dimension tables)",
              expr->column.c_str()));
        }
      }
      is_fact = true;
    }
    if (is_fact) expr->qualifier = target;
    return Status::OK();
  }
  for (auto& a : expr->args) {
    STRIP_RETURN_IF_ERROR(
        RewriteFactRefs(a.get(), fact, fact_schema, dim_schemas, target));
  }
  return Status::OK();
}

/// Deep-clones `e` and rewrites fact references to `target`.
Result<ExprPtr> CloneRewritten(const Expr& e, const std::string& fact,
                               const Schema& fact_schema,
                               const std::vector<const Schema*>& dim_schemas,
                               const std::string& target) {
  ExprPtr out = e.Clone();
  STRIP_RETURN_IF_ERROR(
      RewriteFactRefs(out.get(), fact, fact_schema, dim_schemas, target));
  return out;
}

/// Collects the fact-table columns referenced by `e` (for the `updated
/// [columns]` transition predicate).
void CollectFactColumns(const Expr& e, const std::string& fact,
                        const Schema& fact_schema,
                        std::vector<std::string>& out) {
  if (e.kind == ExprKind::kColumnRef) {
    bool is_fact = e.qualifier == fact ||
                   (e.qualifier.empty() &&
                    fact_schema.FindColumn(e.column) >= 0);
    if (is_fact) {
      for (const auto& c : out) {
        if (c == e.column) return;
      }
      out.push_back(e.column);
    }
    return;
  }
  for (const auto& a : e.args) CollectFactColumns(*a, fact, fact_schema, out);
}

/// Marks which side(s) of the fact/dimension split `e` reads from.
void ClassifyRefs(const Expr& e, const std::string& fact,
                  const Schema& fact_schema,
                  const std::vector<TableRef>& dims,
                  const std::vector<const Schema*>& dim_schemas,
                  bool* reads_fact, bool* reads_dim) {
  if (e.kind == ExprKind::kColumnRef) {
    if (e.qualifier.empty()) {
      if (fact_schema.FindColumn(e.column) >= 0) *reads_fact = true;
      for (const Schema* d : dim_schemas) {
        if (d->FindColumn(e.column) >= 0) *reads_dim = true;
      }
    } else if (e.qualifier == fact) {
      *reads_fact = true;
    } else {
      for (const TableRef& d : dims) {
        if (e.qualifier == d.EffectiveName() ||
            e.qualifier == ToLower(d.table)) {
          *reads_dim = true;
          break;
        }
      }
    }
    return;
  }
  for (const auto& a : e.args) {
    ClassifyRefs(*a, fact, fact_schema, dims, dim_schemas, reads_fact,
                 reads_dim);
  }
}

/// Splits `e` on the given associative operator ('and' / '*').
void Flatten(const Expr* e, BinaryOp op, std::vector<const Expr*>& out) {
  if (e->kind == ExprKind::kBinary && e->bin_op == op) {
    Flatten(e->args[0].get(), op, out);
    Flatten(e->args[1].get(), op, out);
    return;
  }
  out.push_back(e);
}

/// Chains clones into a product; an empty list is the neutral factor 1.
ExprPtr Product(std::vector<ExprPtr> factors) {
  if (factors.empty()) return MakeLiteral(Value::Double(1.0));
  ExprPtr out = std::move(factors[0]);
  for (size_t i = 1; i < factors.size(); ++i) {
    out = MakeBinary(BinaryOp::kMul, std::move(out), std::move(factors[i]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// View shape analysis
// ---------------------------------------------------------------------------

/// One aggregate of the view's select list: SUM(arg), AVG(arg), or
/// COUNT(*). AVG is maintained as SUM/`_count` without storing the sum:
/// the action recovers the group's running sum as avg * _count, folds the
/// delta in, and writes the new quotient back (satellite of ROADMAP item
/// 3; nearly free because both ingredients were already maintained).
struct AggItem {
  bool is_count = false;
  bool is_avg = false;
  const Expr* arg = nullptr;  // SUM/AVG argument; null for COUNT(*)
  std::string output;         // view column holding the aggregate
};

struct ViewShape {
  bool is_aggregation = false;
  // Aggregation: SELECT g, SUM(e)... [, COUNT(*)...] GROUP BY g.
  const Expr* group_expr = nullptr;
  std::string group_output;
  std::vector<AggItem> aggs;
  size_t num_sums = 0;  // aggs carrying a delta column (SUM and AVG)
  bool has_avg = false;
  // Projection: SELECT k AS kname, e1 AS c1, ... (first item = key).
  const Expr* key_expr = nullptr;
  std::string key_output;
  std::vector<const Expr*> value_exprs;
  std::vector<std::string> value_outputs;
};

Result<ViewShape> AnalyzeView(const ViewDef& view) {
  const SelectStmt& q = view.query;
  if (q.star) {
    return Status::Unimplemented(
        "rule generation does not support SELECT * views");
  }
  ViewShape shape;
  if (!q.group_by.empty()) {
    if (q.group_by.size() != 1) {
      return Status::Unimplemented(
          "rule generation supports a single GROUP BY column");
    }
    shape.is_aggregation = true;
    for (size_t i = 0; i < q.items.size(); ++i) {
      const Expr& e = *q.items[i].expr;
      std::string name = q.items[i].OutputName(static_cast<int>(i));
      if (e.kind == ExprKind::kAggregate) {
        if (e.func_name == "sum" && e.args.size() == 1) {
          shape.aggs.push_back(AggItem{false, false, e.args[0].get(), name});
          ++shape.num_sums;
        } else if (e.func_name == "avg" && e.args.size() == 1) {
          shape.aggs.push_back(AggItem{false, true, e.args[0].get(), name});
          ++shape.num_sums;
          shape.has_avg = true;
        } else if (e.func_name == "count" && e.star_arg) {
          shape.aggs.push_back(AggItem{true, false, nullptr, name});
        } else {
          return Status::Unimplemented(StrFormat(
              "aggregate '%s' cannot be maintained from deltas (only "
              "SUM(expr), AVG(expr), and COUNT(*): MIN/MAX need the "
              "group's rows under deletes)",
              e.func_name.c_str()));
        }
      } else if (!e.ContainsAggregate()) {
        if (shape.group_expr != nullptr) {
          return Status::Unimplemented(
              "aggregation views must select exactly one group key");
        }
        shape.group_expr = &e;
        shape.group_output = name;
      } else {
        return Status::Unimplemented(
            "aggregates nested in expressions are not supported");
      }
    }
    if (shape.group_expr == nullptr || shape.aggs.empty()) {
      return Status::Unimplemented(
          "aggregation views must select the group key and at least one "
          "SUM() or COUNT(*)");
    }
    return shape;
  }
  // Projection shape.
  for (const auto& item : q.items) {
    if (item.expr->ContainsAggregate()) {
      return Status::Unimplemented(
          "aggregates without GROUP BY are not supported for rule "
          "generation");
    }
  }
  if (q.items.size() < 2) {
    return Status::Unimplemented(
        "projection views need a key column plus at least one value column");
  }
  shape.key_expr = q.items[0].expr.get();
  shape.key_output = q.items[0].OutputName(0);
  for (size_t i = 1; i < q.items.size(); ++i) {
    shape.value_exprs.push_back(q.items[i].expr.get());
    shape.value_outputs.push_back(q.items[i].OutputName(static_cast<int>(i)));
  }
  return shape;
}

// ---------------------------------------------------------------------------
// Delta derivation strategy
// ---------------------------------------------------------------------------

enum class AggStrategy { kDirect, kDimProbe, kJoin };

/// The factored form behind the dim-probe strategy: every SUM argument
/// splits into (fact factor) x (dimension factor) across the single
/// fact = dim equi-join, and the group key lives on the dimension side.
/// The condition query then ships only fact-local values and the action
/// probes the dimension by join key — §4.3's compute_comps3 shape.
struct ProbeParts {
  const TableRef* dim = nullptr;
  ExprPtr fact_jk;                  // fact-side join key column
  ExprPtr dim_jk;                   // dimension-side join key column
  std::vector<ExprPtr> fact_parts;  // per SUM item (view order)
  std::vector<ExprPtr> dim_parts;   // per SUM item; literal 1 when absent
  std::vector<ExprPtr> dim_conjuncts;  // dimension-only predicates
};

AggStrategy ChooseStrategy(const ViewDef& view, const ViewShape& shape,
                           const std::string& fact, const Schema& fact_schema,
                           const std::vector<TableRef>& dims,
                           const std::vector<const Schema*>& dim_schemas,
                           ProbeParts& probe) {
  if (dims.empty()) return AggStrategy::kDirect;
  if (dims.size() != 1 || view.query.where == nullptr) {
    return AggStrategy::kJoin;
  }
  auto classify = [&](const Expr& e, bool* f, bool* d) {
    *f = *d = false;
    ClassifyRefs(e, fact, fact_schema, dims, dim_schemas, f, d);
  };
  bool gf = false, gd = false;
  classify(*shape.group_expr, &gf, &gd);
  if (gf || !gd) return AggStrategy::kJoin;  // group key must be dim-only

  std::vector<const Expr*> conjuncts;
  Flatten(view.query.where.get(), BinaryOp::kAnd, conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kBinary && c->bin_op == BinaryOp::kEq &&
        c->args[0]->kind == ExprKind::kColumnRef &&
        c->args[1]->kind == ExprKind::kColumnRef) {
      bool lf = false, ld = false, rf = false, rd = false;
      classify(*c->args[0], &lf, &ld);
      classify(*c->args[1], &rf, &rd);
      const Expr* fact_side = nullptr;
      const Expr* dim_side = nullptr;
      if (lf && !ld && rd && !rf) {
        fact_side = c->args[0].get();
        dim_side = c->args[1].get();
      } else if (rf && !rd && ld && !lf) {
        fact_side = c->args[1].get();
        dim_side = c->args[0].get();
      }
      if (fact_side != nullptr) {
        if (probe.fact_jk != nullptr) return AggStrategy::kJoin;  // 2 joins
        probe.fact_jk = fact_side->Clone();
        probe.dim_jk = dim_side->Clone();
        continue;
      }
    }
    bool cf = false, cd = false;
    classify(*c, &cf, &cd);
    if (cf) return AggStrategy::kJoin;  // fact-side residual predicate
    probe.dim_conjuncts.push_back(c->Clone());
  }
  if (probe.fact_jk == nullptr) return AggStrategy::kJoin;

  for (const AggItem& item : shape.aggs) {
    if (item.is_count) continue;
    std::vector<const Expr*> factors;
    Flatten(item.arg, BinaryOp::kMul, factors);
    std::vector<ExprPtr> fact_factors, dim_factors;
    for (const Expr* f : factors) {
      bool ff = false, fd = false;
      classify(*f, &ff, &fd);
      if (ff && fd) return AggStrategy::kJoin;  // mixed factor
      if (fd) {
        dim_factors.push_back(f->Clone());
      } else {
        fact_factors.push_back(f->Clone());  // fact or constant
      }
    }
    probe.fact_parts.push_back(Product(std::move(fact_factors)));
    probe.dim_parts.push_back(Product(std::move(dim_factors)));
  }
  probe.dim = &dims[0];
  return AggStrategy::kDimProbe;
}

// ---------------------------------------------------------------------------
// Fold-and-apply: the one routine behind every generated aggregate action
// ---------------------------------------------------------------------------

/// Turns one firing's bound rows into per-row group delta contributions.
/// `change_time` is the task's oldest batched change (merges min-fold it).
using DeltaDecoder = std::function<Result<std::vector<GroupDelta>>(
    const TempTable& rows, Timestamp change_time)>;
/// Consumes one non-zero net group delta.
using DeltaStep = std::function<Status(FunctionContext&, const GroupDelta&)>;
/// Runs once per firing after the last step; may be empty.
using AfterSteps =
    std::function<Status(FunctionContext&, const TempTable& rows)>;

bool IsZeroDelta(const GroupDelta& d) {
  if (d.count != 0) return false;
  for (double s : d.sums) {
    if (s != 0.0) return false;
  }
  return true;
}

/// The action of every generated aggregate rule. Tier-1 maintenance, shard
/// export and merge differ only in `decode`, `step` and `after`. The bound
/// rows' contributions fold to one net delta per key (rules/net_effect), so
/// a batched unique transaction handles a whole delay window in
/// O(|delta|); the contributions netted away are credited to the rule's
/// rules.cost.deltas_folded counter at task finish.
UserFunction MakeFoldAndApply(std::string bound_name, DeltaDecoder decode,
                              DeltaStep step, AfterSteps after) {
  return [bound_name = std::move(bound_name), decode = std::move(decode),
          step = std::move(step),
          after = std::move(after)](FunctionContext& ctx) -> Status {
    const TempTable* rows = ctx.BoundTable(bound_name);
    if (rows == nullptr) {
      return Status::NotFound(
          StrFormat("bound table '%s' missing", bound_name.c_str()));
    }
    TaskControlBlock& tcb = ctx.task();
    STRIP_ASSIGN_OR_RETURN(std::vector<GroupDelta> contrib,
                           decode(*rows, tcb.oldest_change_time));
    const size_t contributions = contrib.size();
    std::vector<GroupDelta> folded = FoldGroupDeltas(std::move(contrib));
    tcb.deltas_folded += contributions - folded.size();
    // Staleness probe correctness under netting: the commit must be judged
    // against the oldest folded update, never a fresher survivor.
    for (const GroupDelta& d : folded) {
      if (d.change_time >= 0 && (tcb.oldest_change_time < 0 ||
                                 d.change_time < tcb.oldest_change_time)) {
        tcb.oldest_change_time = d.change_time;
      }
    }
    for (const GroupDelta& d : folded) {
      if (IsZeroDelta(d)) continue;  // e.g. an update that kept key and values
      STRIP_RETURN_IF_ERROR(step(ctx, d));
    }
    return after ? after(ctx, *rows) : Status::OK();
  };
}

// ---------------------------------------------------------------------------
// Applying group deltas to an aggregation table
// ---------------------------------------------------------------------------

/// Shared state of the action functions applying group deltas to one
/// aggregation table: the tier-1 rules of a view, or the merge rule of a
/// two-tier view. All statements are prepared once at generation time;
/// firings execute frozen plans with parameter bindings only.
struct AggPlan {
  std::vector<bool> item_is_count;  // per view aggregate, select order
  std::vector<bool> item_is_avg;    // parallel to item_is_count
  PreparedStatementPtr update;      // UPDATE view SET a += ?,... WHERE g = ?
  PreparedStatementPtr upsert;      // INSERT for groups absent from the view
  PreparedStatementPtr count_check;  // SELECT _count FROM view WHERE g = ?
  PreparedStatementPtr erase;        // EraseText
  PreparedStatementPtr probe;  // dim probe by join key (kDimProbe only)
  /// AVG views: SELECT _count, <avg columns> FROM view WHERE g = ? — the
  /// running state the quotient update is computed from.
  PreparedStatementPtr avg_read;
  /// Every function applying deltas to this table; the erase sweep runs
  /// only when none of them has queued work.
  std::vector<std::string> sibling_functions;

  /// Groups whose APPLIED count reached zero. Erasing eagerly would be
  /// wrong: unique-transaction merging can reorder deltas across tasks, so
  /// a group at applied-count zero may still have a queued insert delta
  /// about to resurrect it — and erasing would also destroy sum deltas
  /// already applied by other tasks. The sweep below defers the DELETE to
  /// a firing at which no sibling task is queued.
  std::mutex mu;
  std::unordered_set<Value, ValueHash> zero_set;
  std::vector<Value> zero_groups;  // first-seen order (determinism)
};

/// Applies one net group delta: UPDATE the group's row, INSERT it when
/// absent, and note the group as an erase candidate when its count may
/// have reached zero.
Status ApplyGroup(FunctionContext& ctx, AggPlan& plan, const GroupDelta& d) {
  if (IsZeroDelta(d)) return Status::OK();  // a probe weight of zero
  // AVG columns store the quotient, not a delta, so the update needs the
  // group's current (count, avg) state: new avg = (avg * count +
  // delta_sum) / (count + delta_count). The read shares the action
  // transaction's locks, so the state cannot move under the update.
  int64_t cur_count = 0;
  std::vector<double> cur_avgs;  // per AVG item, select order
  if (plan.avg_read != nullptr) {
    STRIP_ASSIGN_OR_RETURN(TempTable cur, ctx.Query(*plan.avg_read, {d.key}));
    if (cur.size() == 1) {
      cur_count = cur.Get(0, 0).as_int();
      for (int c = 1; c < cur.schema().num_columns(); ++c) {
        cur_avgs.push_back(cur.Get(0, c).as_double());
      }
    }
  }
  // Parameter order matches the generated texts: per-item deltas left to
  // right, then the hidden count delta, then the group key.
  std::vector<Value> upd_params;
  upd_params.reserve(plan.item_is_count.size() + 2);
  size_t s = 0;
  size_t a = 0;
  for (size_t i = 0; i < plan.item_is_count.size(); ++i) {
    if (plan.item_is_count[i]) {
      upd_params.push_back(Value::Int(d.count));
      continue;
    }
    double delta = d.sums[s++];
    if (plan.item_is_avg[i]) {
      // A missing row reads as (count 0, avg 0): the quotient below is
      // then delta/cnt, which is exactly the value the upsert must seed.
      double cur_avg = a < cur_avgs.size() ? cur_avgs[a] : 0.0;
      ++a;
      int64_t new_count = cur_count + d.count;
      double quotient = new_count > 0
          ? (cur_avg * static_cast<double>(cur_count) + delta) /
                static_cast<double>(new_count)
          : 0.0;  // emptied group; the zero-count sweep erases the row
      upd_params.push_back(Value::Double(quotient));
    } else {
      upd_params.push_back(Value::Double(delta));
    }
  }
  upd_params.push_back(Value::Int(d.count));
  upd_params.push_back(d.key);
  STRIP_ASSIGN_OR_RETURN(int n, ctx.Exec(*plan.update, upd_params));
  bool upserted = false;
  if (n == 0) {
    // INSERT text lists the group column first.
    std::vector<Value> ins_params;
    ins_params.reserve(upd_params.size());
    ins_params.push_back(d.key);
    ins_params.insert(ins_params.end(), upd_params.begin(),
                      upd_params.end() - 1);
    STRIP_ASSIGN_OR_RETURN(n, ctx.Exec(*plan.upsert, ins_params));
    upserted = true;
  }
  if (n != 1) {
    return Status::Internal(StrFormat(
        "maintenance update for key '%s' touched %d rows",
        d.key.ToString().c_str(), n));
  }
  // A delta that created the row or moved its count can leave the group at
  // or below zero: a genuine delete wave, but also an out-of-order
  // interim — unique batching reorders deltas across sibling tasks, and
  // the shards' export windows interleave freely at the merge, so an
  // update delta can land before the insert delta that logically precedes
  // it. Both get flagged; the sweep's erase predicate tells them apart.
  if (upserted || d.count != 0) {
    STRIP_ASSIGN_OR_RETURN(TempTable r, ctx.Query(*plan.count_check, {d.key}));
    if (r.size() == 1 && r.Get(0, 0).as_int() <= 0) {
      std::lock_guard<std::mutex> lock(plan.mu);
      if (plan.zero_set.insert(d.key).second) {
        plan.zero_groups.push_back(d.key);
      }
    }
  }
  return Status::OK();
}

/// Deletes rows of emptied groups, but only when no sibling task is queued
/// (see AggPlan::zero_groups). The DELETE re-checks its predicate
/// (EraseText), so a candidate resurrected between noting and sweeping is
/// left alone. Threaded executors can in principle start a new sibling
/// between the idle check and the DELETE; the predicate bounds the damage
/// to groups that are empty at that instant anyway.
Status SweepIfIdle(FunctionContext& ctx, AggPlan& plan) {
  {
    std::lock_guard<std::mutex> lock(plan.mu);
    if (plan.zero_groups.empty()) return Status::OK();
  }
  UniqueTxnManager& uniq = ctx.db().rules().unique_manager();
  for (const std::string& fn : plan.sibling_functions) {
    if (uniq.NumQueued(fn) > 0) return Status::OK();
  }
  std::vector<Value> groups;
  {
    std::lock_guard<std::mutex> lock(plan.mu);
    groups.swap(plan.zero_groups);
    plan.zero_set.clear();
  }
  for (const Value& g : groups) {
    STRIP_ASSIGN_OR_RETURN(int n, ctx.Exec(*plan.erase, {g}));
    (void)n;  // 0 if the group was resurrected meanwhile
  }
  return Status::OK();
}

/// Apply step shared by tier-1 and merge: the net delta goes to its group
/// directly (group key == delta key), or fans out through the dimension
/// probe, each SUM scaled by the probed row's dimension part.
DeltaStep ApplyStep(std::shared_ptr<AggPlan> plan) {
  return [plan](FunctionContext& ctx, const GroupDelta& d) -> Status {
    if (plan->probe == nullptr) return ApplyGroup(ctx, *plan, d);
    STRIP_ASSIGN_OR_RETURN(TempTable rows, ctx.Query(*plan->probe, {d.key}));
    for (size_t r = 0; r < rows.size(); ++r) {
      GroupDelta scaled;
      scaled.key = rows.Get(r, 0);
      scaled.count = d.count;
      scaled.sums.reserve(d.sums.size());
      for (size_t s = 0; s < d.sums.size(); ++s) {
        scaled.sums.push_back(
            d.sums[s] * rows.Get(r, static_cast<int>(1 + s)).as_double());
      }
      STRIP_RETURN_IF_ERROR(ApplyGroup(ctx, *plan, scaled));
    }
    return Status::OK();
  };
}

/// Tier-1 contributions from the fact table's transition rows: `positive`
/// rows contribute (+values, +1) keyed by `_key`; `negative` rows
/// contribute (-values, -1) keyed by `_old_key` (update layout) or `_key`
/// (delete layout). Every bound row is at least as old as the task's
/// oldest batched change, so that time is stamped on each contribution and
/// the fold carries it through netting.
DeltaDecoder FactDeltaDecoder(size_t num_sums, bool positive, bool negative) {
  return [num_sums, positive, negative](
             const TempTable& deltas,
             Timestamp change_time) -> Result<std::vector<GroupDelta>> {
    const Schema& ds = deltas.schema();
    int key_col = ds.FindColumn("_key");
    int old_key_col = ds.FindColumn("_old_key");
    std::vector<int> new_cols, old_cols;
    for (size_t i = 0; i < num_sums; ++i) {
      if (positive) new_cols.push_back(ds.FindColumn(StrFormat("_new%zu", i)));
      if (negative) old_cols.push_back(ds.FindColumn(StrFormat("_old%zu", i)));
    }
    bool missing = key_col < 0 || (positive && negative && old_key_col < 0);
    for (int c : new_cols) missing = missing || c < 0;
    for (int c : old_cols) missing = missing || c < 0;
    if (missing) {
      return Status::Internal("generated bound table misses columns");
    }
    std::vector<GroupDelta> contrib;
    contrib.reserve(deltas.size() * ((positive ? 1 : 0) + (negative ? 1 : 0)));
    for (size_t i = 0; i < deltas.size(); ++i) {
      if (positive) {
        GroupDelta d;
        d.key = deltas.Get(i, key_col);
        d.count = 1;
        d.change_time = change_time;
        d.sums.reserve(num_sums);
        for (int c : new_cols) d.sums.push_back(deltas.Get(i, c).as_double());
        contrib.push_back(std::move(d));
      }
      if (negative) {
        GroupDelta d;
        d.key = deltas.Get(i, old_key_col >= 0 ? old_key_col : key_col);
        d.count = -1;
        d.change_time = change_time;
        d.sums.reserve(num_sums);
        for (int c : old_cols) d.sums.push_back(-deltas.Get(i, c).as_double());
        contrib.push_back(std::move(d));
      }
    }
    return contrib;
  };
}

/// The action function for a projection view: recompute each affected key
/// once from its LAST bound row (rows arrive in commit order).
UserFunction MakeProjectionMaintainer(PreparedStatementPtr update,
                                      std::string bound_name,
                                      int num_values) {
  return [update, bound_name, num_values](FunctionContext& ctx) -> Status {
    const TempTable* recalc = ctx.BoundTable(bound_name);
    if (recalc == nullptr) {
      return Status::NotFound(
          StrFormat("bound table '%s' missing", bound_name.c_str()));
    }
    int key_col = recalc->schema().FindColumn("_key");
    if (key_col < 0 || recalc->schema().num_columns() != num_values + 1) {
      return Status::Internal("generated bound table misses columns");
    }
    std::unordered_map<Value, size_t, ValueHash> last_row;
    for (size_t i = 0; i < recalc->size(); ++i) {
      last_row[recalc->Get(i, key_col)] = i;
    }
    for (const auto& [key, i] : last_row) {
      (void)key;
      std::vector<Value> params;
      params.reserve(static_cast<size_t>(num_values) + 1);
      for (int v = 0; v < num_values; ++v) {
        // Value columns follow the key in the generated select list.
        params.push_back(recalc->Get(i, key_col + 1 + v));
      }
      params.push_back(recalc->Get(i, key_col));
      STRIP_ASSIGN_OR_RETURN(int n, ctx.Exec(*update, params));
      if (n != 1) {
        return Status::Internal("maintenance update touched != 1 row");
      }
    }
    return Status::OK();
  };
}

// ---------------------------------------------------------------------------
// Statement text generation
// ---------------------------------------------------------------------------

/// `update <view> set a += ?, b += ?, _count += ? where g = ?`.
/// Parameters are positional '?' (the parser numbers them left to right),
/// so the texts below keep the order: item deltas, count delta, group key.
std::string UpdateText(const std::string& view, const ViewShape& shape) {
  std::string sql = "update " + view + " set ";
  for (const AggItem& item : shape.aggs) {
    // SUM/COUNT columns take a delta; AVG columns take the recomputed
    // quotient as an absolute value (see ApplyGroup).
    sql += item.output + (item.is_avg ? " = ?, " : " += ?, ");
  }
  sql += "_count += ? where " + shape.group_output + " = ?";
  return sql;
}

/// `select _count, a1, ... from <view> where g = ?` (AVG columns only).
std::string AvgReadText(const std::string& view, const ViewShape& shape) {
  std::string sql = "select _count";
  for (const AggItem& item : shape.aggs) {
    if (item.is_avg) sql += ", " + item.output;
  }
  sql += " from " + view + " where " + shape.group_output + " = ?";
  return sql;
}

/// `insert into <view> (g, a, b, _count) values (?, ?, ?, ?)`.
std::string UpsertText(const std::string& view, const ViewShape& shape) {
  std::string cols = shape.group_output;
  std::string vals = "?";
  for (const AggItem& item : shape.aggs) {
    cols += ", " + item.output;
    vals += ", ?";
  }
  return "insert into " + view + " (" + cols + ", _count) values (" + vals +
         ", ?)";
}

/// `delete from <view> where g = ? and _count <= 0[ and s = 0.0 ...]`.
/// Tier-1 erases on the count alone: its idle sweep sees every sibling task
/// that could still move the group, so at the sweep the applied count is
/// the true count. The merge side cannot see export windows still batching
/// on a shard, so it also demands exact zero sums (GenerateMergeRule).
std::string EraseText(const std::string& view, const ViewShape& shape,
                      bool require_zero_sums) {
  std::string sql = "delete from " + view + " where " + shape.group_output +
                    " = ? and _count <= 0";
  if (require_zero_sums) {
    for (const AggItem& item : shape.aggs) {
      sql += " and " + item.output + " = 0.0";
    }
  }
  return sql;
}

/// `select <group>, <dim part>... from <dim> where <dim jk> = ? and ...`.
std::string ProbeText(const ViewShape& shape, const ProbeParts& probe) {
  std::string sql = "select " + shape.group_expr->ToString();
  for (const ExprPtr& part : probe.dim_parts) {
    sql += ", " + part->ToString();
  }
  sql += " from " + probe.dim->table;
  if (!probe.dim->alias.empty()) sql += " " + probe.dim->alias;
  sql += " where " + probe.dim_jk->ToString() + " = ?";
  for (const ExprPtr& c : probe.dim_conjuncts) {
    sql += " and " + c->ToString();
  }
  return sql;
}

/// Prepares the statements applying group deltas to `view`, whose hidden
/// `_count` column follows the shape's aggregates.
Result<std::shared_ptr<AggPlan>> PrepareAggPlan(Database& db,
                                                const std::string& view,
                                                const ViewShape& shape,
                                                bool erase_requires_zero_sums) {
  auto plan = std::make_shared<AggPlan>();
  for (const AggItem& item : shape.aggs) {
    plan->item_is_count.push_back(item.is_count);
    plan->item_is_avg.push_back(item.is_avg);
  }
  STRIP_ASSIGN_OR_RETURN(plan->update, db.Prepare(UpdateText(view, shape)));
  STRIP_ASSIGN_OR_RETURN(plan->upsert, db.Prepare(UpsertText(view, shape)));
  STRIP_ASSIGN_OR_RETURN(
      plan->count_check,
      db.Prepare("select _count from " + view + " where " +
                 shape.group_output + " = ?"));
  STRIP_ASSIGN_OR_RETURN(
      plan->erase,
      db.Prepare(EraseText(view, shape, erase_requires_zero_sums)));
  if (shape.has_avg) {
    STRIP_ASSIGN_OR_RETURN(plan->avg_read,
                           db.Prepare(AvgReadText(view, shape)));
  }
  return plan;
}

/// Indexes `table.column` unless an index exists: every generated statement
/// addresses the view by this column, and without the index each UPDATE,
/// count check, erase and point read scans the whole view. Runs as DDL, so
/// the catalog generation moves and cached plans re-resolve.
Status EnsureIndex(Database& db, const std::string& table,
                   const std::string& column) {
  STRIP_ASSIGN_OR_RETURN(Table * t, db.catalog().GetTable(table));
  if (t->FindIndex(column) != nullptr) return Status::OK();
  return db.Execute("create index on " + table + " (" + column + ")")
      .status();
}

// ---------------------------------------------------------------------------
// Dimension-change fallback
// ---------------------------------------------------------------------------

/// Installs one coarse rule per dimension table whose action falls back to
/// a from-scratch recompute of the view. The counter + warning make the
/// known dim-side gap of the delta rules observable instead of silent.
Status InstallDimFallback(Database& db, const std::string& view_name,
                          const std::vector<TableRef>& dims,
                          double delay_seconds, GeneratedRule& out) {
  if (dims.empty()) return Status::OK();
  std::string fn = "dim_refresh_" + view_name;
  // Every firing counts (the counter stays exact), but a dim-heavy
  // workload fires this once per delay window per dim table — the WARN is
  // throttled so steady-state fallback traffic cannot flood the log.
  auto warn_limit = std::make_shared<LogRateLimiter>();
  STRIP_RETURN_IF_ERROR(db.RegisterFunction(
      fn, [view_name, warn_limit](FunctionContext& ctx) -> Status {
        ctx.db().metrics().counter("viewmaint.dim_fallback_recompute")->Add();
        uint64_t suppressed = 0;
        if (warn_limit->ShouldLog(&suppressed)) {
          STRIP_LOG(WARN,
                    "dimension change hit the recompute fallback for view "
                    "'%s' (generated delta rules cover fact-table changes "
                    "only; %llu similar warnings suppressed)",
                    view_name.c_str(),
                    static_cast<unsigned long long>(suppressed));
        }
        return ctx.db().views().RefreshView(view_name);
      }));
  for (const TableRef& dim : dims) {
    CreateRuleStmt rule;
    rule.rule_name = "dim_fallback_" + view_name + "_" + ToLower(dim.table);
    std::string rule_name = rule.rule_name;
    rule.table = ToLower(dim.table);
    rule.events = {RuleEvent{RuleEventKind::kInserted, {}},
                   RuleEvent{RuleEventKind::kDeleted, {}},
                   RuleEvent{RuleEventKind::kUpdated, {}}};
    rule.function_name = fn;
    // One recompute per delay window, however much dim churn it batches.
    rule.unique = true;
    rule.delay_seconds = delay_seconds;
    STRIP_RETURN_IF_ERROR(db.rules().CreateRule(std::move(rule)));
    out.extra_rule_names.push_back(std::move(rule_name));
  }
  return Status::OK();
}

}  // namespace

Result<GeneratedRule> GenerateMaintenanceRule(Database& db,
                                              const std::string& view_name,
                                              const std::string& fact_table,
                                              const RuleGenOptions& options) {
  const ViewDef* view = db.views().Find(view_name);
  if (view == nullptr) {
    return Status::NotFound(StrFormat("no view '%s'", view_name.c_str()));
  }
  if (!view->materialized) {
    return Status::FailedPrecondition(StrFormat(
        "view '%s' is not materialized", view_name.c_str()));
  }
  std::string fact = ToLower(fact_table);
  STRIP_ASSIGN_OR_RETURN(Table * fact_tbl, db.catalog().GetTable(fact));
  const Schema& fact_schema = fact_tbl->schema();

  // Split the view's FROM into the fact table and the dimensions.
  bool fact_in_from = false;
  std::vector<TableRef> dims;
  std::vector<const Schema*> dim_schemas;
  for (const TableRef& ref : view->query.from) {
    if (ToLower(ref.table) == fact && ref.alias.empty()) {
      fact_in_from = true;
      continue;
    }
    STRIP_ASSIGN_OR_RETURN(Table * dim, db.catalog().GetTable(ref.table));
    dims.push_back(ref);
    dim_schemas.push_back(&dim->schema());
  }
  if (!fact_in_from) {
    return Status::InvalidArgument(StrFormat(
        "table '%s' does not appear (unaliased) in view '%s'", fact.c_str(),
        view_name.c_str()));
  }

  STRIP_ASSIGN_OR_RETURN(ViewShape shape, AnalyzeView(*view));

  std::string bound_name = view_name + "_changes";
  std::string function_name = "maintain_" + view_name;
  std::string rule_name = "do_maintain_" + view_name;

  GeneratedRule out;
  out.rule_name = rule_name;
  out.function_name = function_name;

  if (shape.is_aggregation) {
    ProbeParts probe;
    AggStrategy strategy = ChooseStrategy(*view, shape, fact, fact_schema,
                                          dims, dim_schemas, probe);
    out.strategy = strategy == AggStrategy::kDirect      ? "direct"
                   : strategy == AggStrategy::kDimProbe ? "dim-probe"
                                                        : "join-in-condition";

    // Hidden count: deletes erase a group once its membership reaches
    // zero, and AVG's quotient update divides by it.
    for (const AggItem& item : shape.aggs) {
      if (item.output == "_count") {
        return Status::InvalidArgument(
            "view column '_count' collides with the hidden group count");
      }
    }
    STRIP_RETURN_IF_ERROR(db.views().EnableHiddenCount(view_name));
    STRIP_RETURN_IF_ERROR(EnsureIndex(db, view_name, shape.group_output));
    STRIP_ASSIGN_OR_RETURN(
        std::shared_ptr<AggPlan> plan,
        PrepareAggPlan(db, view_name, shape,
                       /*erase_requires_zero_sums=*/false));
    if (strategy == AggStrategy::kDimProbe) {
      STRIP_ASSIGN_OR_RETURN(plan->probe,
                             db.Prepare(ProbeText(shape, probe)));
    }

    // The `updated [columns]` transition predicate: every fact column the
    // view reads — SUM arguments, the group key, and the WHERE clause
    // (join keys), so key-moving updates fire too.
    std::vector<std::string> updated_columns;
    for (const AggItem& item : shape.aggs) {
      if (item.arg != nullptr) {
        CollectFactColumns(*item.arg, fact, fact_schema, updated_columns);
      }
    }
    CollectFactColumns(*shape.group_expr, fact, fact_schema, updated_columns);
    if (view->query.where != nullptr) {
      CollectFactColumns(*view->query.where, fact, fact_schema,
                         updated_columns);
    }

    // Three companion rules: updates carry both delta halves, inserts the
    // positive half, deletes the negative half. Each needs its own
    // function — rules sharing a function must define their bound tables
    // identically (§2), and these condition queries differ.
    struct RuleSpec {
      const char* suffix;
      RuleEventKind event;
      bool positive;
      bool negative;
    };
    const RuleSpec specs[] = {{"", RuleEventKind::kUpdated, true, true},
                              {"_ins", RuleEventKind::kInserted, true, false},
                              {"_del", RuleEventKind::kDeleted, false, true}};
    for (const RuleSpec& spec : specs) {
      plan->sibling_functions.push_back(function_name + spec.suffix);
    }

    for (const RuleSpec& spec : specs) {
      const char* pos_src = spec.event == RuleEventKind::kInserted
                                ? "inserted"
                                : "new";
      const char* neg_src = spec.event == RuleEventKind::kDeleted
                                ? "deleted"
                                : "old";
      SelectStmt cond;
      ExprPtr where;
      auto clone_to = [&](const Expr& e,
                          const char* target) -> Result<ExprPtr> {
        // Dim-probe condition queries see no dimension tables, so pass an
        // empty dimension list: bare fact columns rewrite unconditionally
        // (strategy selection already excluded ambiguous references).
        static const std::vector<const Schema*> kNoDims;
        return CloneRewritten(
            e, fact, fact_schema,
            strategy == AggStrategy::kDimProbe ? kNoDims : dim_schemas,
            target);
      };
      if (strategy == AggStrategy::kDimProbe) {
        // Fact-local query: `_key` is the fact join key, the delta columns
        // the factored fact parts. Old and new keys ship separately, so
        // join-key updates maintain both groups exactly.
        const char* key_src = spec.positive ? pos_src : neg_src;
        cond.from.push_back(TableRef{key_src, ""});
        if (spec.positive && spec.negative) {
          cond.from.push_back(TableRef{neg_src, ""});
          where = MakeBinary(BinaryOp::kEq,
                             MakeColumnRef(pos_src, "execute_order"),
                             MakeColumnRef(neg_src, "execute_order"));
        }
        STRIP_ASSIGN_OR_RETURN(ExprPtr key,
                               clone_to(*probe.fact_jk, key_src));
        cond.items.push_back(SelectItem{std::move(key), "_key"});
        if (spec.positive && spec.negative) {
          STRIP_ASSIGN_OR_RETURN(ExprPtr old_key,
                                 clone_to(*probe.fact_jk, neg_src));
          cond.items.push_back(SelectItem{std::move(old_key), "_old_key"});
        }
        for (size_t i = 0; i < probe.fact_parts.size(); ++i) {
          if (spec.positive) {
            STRIP_ASSIGN_OR_RETURN(ExprPtr e,
                                   clone_to(*probe.fact_parts[i], pos_src));
            cond.items.push_back(
                SelectItem{std::move(e), StrFormat("_new%zu", i)});
          }
          if (spec.negative) {
            STRIP_ASSIGN_OR_RETURN(ExprPtr e,
                                   clone_to(*probe.fact_parts[i], neg_src));
            cond.items.push_back(
                SelectItem{std::move(e), StrFormat("_old%zu", i)});
          }
        }
      } else {
        // Direct / join-in-condition: the query computes the group key and
        // SUM arguments itself (joining the dimensions when present).
        // Known fallback limits: the WHERE and the dimension join see the
        // positive image, so with dimensions a join-key-changing update
        // mis-attributes the old half (use dim-probe shapes to avoid).
        cond.from = dims;
        const char* main_src = spec.positive ? pos_src : neg_src;
        cond.from.push_back(TableRef{main_src, ""});
        if (spec.positive && spec.negative) {
          cond.from.push_back(TableRef{neg_src, ""});
          where = MakeBinary(BinaryOp::kEq,
                             MakeColumnRef(pos_src, "execute_order"),
                             MakeColumnRef(neg_src, "execute_order"));
        }
        if (view->query.where != nullptr) {
          STRIP_ASSIGN_OR_RETURN(ExprPtr w,
                                 clone_to(*view->query.where, main_src));
          where = where == nullptr
                      ? std::move(w)
                      : MakeBinary(BinaryOp::kAnd, std::move(where),
                                   std::move(w));
        }
        STRIP_ASSIGN_OR_RETURN(ExprPtr key,
                               clone_to(*shape.group_expr, main_src));
        cond.items.push_back(SelectItem{std::move(key), "_key"});
        if (spec.positive && spec.negative) {
          STRIP_ASSIGN_OR_RETURN(ExprPtr old_key,
                                 clone_to(*shape.group_expr, neg_src));
          cond.items.push_back(SelectItem{std::move(old_key), "_old_key"});
        }
        size_t sum_idx = 0;
        for (const AggItem& item : shape.aggs) {
          if (item.is_count) continue;
          if (spec.positive) {
            STRIP_ASSIGN_OR_RETURN(ExprPtr e, clone_to(*item.arg, pos_src));
            cond.items.push_back(
                SelectItem{std::move(e), StrFormat("_new%zu", sum_idx)});
          }
          if (spec.negative) {
            STRIP_ASSIGN_OR_RETURN(ExprPtr e, clone_to(*item.arg, neg_src));
            cond.items.push_back(
                SelectItem{std::move(e), StrFormat("_old%zu", sum_idx)});
          }
          ++sum_idx;
        }
      }
      cond.where = std::move(where);

      std::string fn = function_name + spec.suffix;
      std::string bound = bound_name + spec.suffix;
      STRIP_RETURN_IF_ERROR(db.RegisterFunction(
          fn, MakeFoldAndApply(
                  bound,
                  FactDeltaDecoder(shape.num_sums, spec.positive,
                                   spec.negative),
                  ApplyStep(plan),
                  [plan](FunctionContext& ctx, const TempTable&) {
                    return SweepIfIdle(ctx, *plan);
                  })));

      CreateRuleStmt rule;
      rule.rule_name = rule_name + spec.suffix;
      rule.table = fact;
      RuleEvent ev;
      ev.kind = spec.event;
      if (spec.event == RuleEventKind::kUpdated) {
        ev.columns = updated_columns;
      }
      rule.events.push_back(std::move(ev));
      RuleQuery rq;
      rq.query = std::move(cond);
      rq.bind_as = bound;
      rule.condition.push_back(std::move(rq));
      rule.function_name = fn;
      // §8 rule of thumb for the unit of batching: the delta key — the
      // view's group column (direct / join) or the fact join key
      // (dim-probe). Same-key deltas are exactly the ones the fold
      // collapses.
      rule.unique = true;
      rule.unique_columns = {"_key"};
      rule.delay_seconds = options.delay_seconds;

      if (spec.suffix[0] == '\0') {
        out.rule_sql = StrFormat(
            "create rule %s on %s when updated %s if %s bind as %s then "
            "execute %s unique on _key after %g seconds",
            rule.rule_name.c_str(), fact.c_str(),
            Join(rule.events[0].columns, ", ").c_str(),
            rule.condition[0].query.ToString().c_str(), bound.c_str(),
            fn.c_str(), options.delay_seconds);
      } else {
        out.extra_rule_names.push_back(rule.rule_name);
      }
      STRIP_RETURN_IF_ERROR(db.rules().CreateRule(std::move(rule)));
    }
    STRIP_RETURN_IF_ERROR(InstallDimFallback(db, view_name, dims,
                                             options.delay_seconds, out));
    STRIP_RETURN_IF_ERROR(db.views().MarkMaintained(view_name));
    return out;
  }

  // --- projection view ------------------------------------------------------
  out.strategy = "projection";
  SelectStmt cond;
  cond.from = dims;
  cond.from.push_back(TableRef{"new", ""});
  ExprPtr where;
  if (view->query.where != nullptr) {
    STRIP_ASSIGN_OR_RETURN(where, CloneRewritten(*view->query.where, fact,
                                                 fact_schema, dim_schemas,
                                                 "new"));
  }
  std::vector<std::string> updated_columns;
  STRIP_ASSIGN_OR_RETURN(
      ExprPtr key_new, CloneRewritten(*shape.key_expr, fact, fact_schema,
                                      dim_schemas, "new"));
  cond.items.push_back(SelectItem{std::move(key_new), "_key"});
  for (size_t i = 0; i < shape.value_exprs.size(); ++i) {
    STRIP_ASSIGN_OR_RETURN(
        ExprPtr val_new,
        CloneRewritten(*shape.value_exprs[i], fact, fact_schema,
                       dim_schemas, "new"));
    cond.items.push_back(
        SelectItem{std::move(val_new), StrFormat("_v%zu", i)});
    CollectFactColumns(*shape.value_exprs[i], fact, fact_schema,
                       updated_columns);
  }
  cond.where = std::move(where);

  // update <view> set c1 = ?, ..., cn = ? where <key> = ?
  STRIP_RETURN_IF_ERROR(EnsureIndex(db, view_name, shape.key_output));
  std::string update_sql = "update " + view_name + " set ";
  for (const std::string& col : shape.value_outputs) {
    update_sql += col + " = ?, ";
  }
  update_sql.resize(update_sql.size() - 2);
  update_sql += " where " + shape.key_output + " = ?";
  STRIP_ASSIGN_OR_RETURN(PreparedStatementPtr update,
                         db.Prepare(update_sql));
  STRIP_RETURN_IF_ERROR(db.RegisterFunction(
      function_name,
      MakeProjectionMaintainer(update, bound_name,
                               static_cast<int>(shape.value_exprs.size()))));

  CreateRuleStmt rule;
  rule.rule_name = rule_name;
  rule.table = fact;
  RuleEvent ev;
  ev.kind = RuleEventKind::kUpdated;
  ev.columns = updated_columns;
  rule.events.push_back(std::move(ev));
  RuleQuery rq;
  rq.query = std::move(cond);
  rq.bind_as = bound_name;
  rule.condition.push_back(std::move(rq));
  rule.function_name = function_name;
  // Batching per view row would flood the system when the fact -> view
  // fan-out is high (§5.2), so projection rules batch coarsely: one
  // recompute pass per delay window.
  rule.unique = true;
  rule.delay_seconds = options.delay_seconds;

  out.rule_sql = StrFormat(
      "create rule %s on %s when updated %s if %s bind as %s then execute "
      "%s unique after %g seconds",
      rule_name.c_str(), fact.c_str(),
      Join(rule.events[0].columns, ", ").c_str(),
      rule.condition[0].query.ToString().c_str(), bound_name.c_str(),
      function_name.c_str(), options.delay_seconds);

  STRIP_RETURN_IF_ERROR(db.rules().CreateRule(std::move(rule)));
  STRIP_RETURN_IF_ERROR(InstallDimFallback(db, view_name, dims,
                                           options.delay_seconds, out));
  STRIP_RETURN_IF_ERROR(db.views().MarkMaintained(view_name));
  return out;
}

// ---------------------------------------------------------------------------
// Two-tier maintenance: shard delta export
// ---------------------------------------------------------------------------

namespace {

/// Shared state of the three export action functions of one partial view.
struct ExportPlan {
  ShardDeltaSink sink;
  uint64_t shard_bits = 0;  // shard id << 48, high bits of every _seq
  std::atomic<uint64_t> next_seq{1};
};

/// Parses a generated SELECT text into a rule condition query.
Result<SelectStmt> ParseSelectText(const std::string& sql) {
  STRIP_ASSIGN_OR_RETURN(Statement stmt, Parser::ParseStatement(sql));
  if (!std::holds_alternative<SelectStmt>(stmt)) {
    return Status::Internal("generated text is not a SELECT");
  }
  return std::get<SelectStmt>(std::move(stmt));
}

/// Export contributions: the partial view's netting query already computes
/// each changed row's (_key, _d<i>, _dc).
DeltaDecoder ViewChangeDecoder(size_t num_sums) {
  return [num_sums](const TempTable& rows, Timestamp change_time)
             -> Result<std::vector<GroupDelta>> {
    const Schema& s = rows.schema();
    int key_col = s.FindColumn("_key");
    int cnt_col = s.FindColumn("_dc");
    std::vector<int> sum_cols;
    for (size_t i = 0; i < num_sums; ++i) {
      sum_cols.push_back(s.FindColumn(StrFormat("_d%zu", i)));
    }
    bool missing = key_col < 0 || cnt_col < 0;
    for (int c : sum_cols) missing = missing || c < 0;
    if (missing) {
      return Status::Internal("generated export bound table misses columns");
    }
    std::vector<GroupDelta> contrib;
    contrib.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      GroupDelta d;
      d.key = rows.Get(i, key_col);
      for (int c : sum_cols) d.sums.push_back(rows.Get(i, c).as_double());
      d.count = rows.Get(i, cnt_col).as_int();
      d.change_time = change_time;
      contrib.push_back(std::move(d));
    }
    return contrib;
  };
}

/// Export step: the net delta (the fold is REQUIRED before anything
/// crosses the shard boundary) goes to the sink as a staging-layout feed
/// record tracing back to this firing.
DeltaStep ShipStep(std::shared_ptr<ExportPlan> plan) {
  return [plan](FunctionContext& ctx, const GroupDelta& d) -> Status {
    uint64_t seq = plan->shard_bits |
                   plan->next_seq.fetch_add(1, std::memory_order_relaxed);
    FeedRecord rec;
    rec.at = 0;  // release immediately on the merge engine's clock
    rec.values = EncodeGroupDeltaRow(d, static_cast<int64_t>(seq));
    // The shipped record continues this firing's trace, so the merge
    // commit chains back through the shard firing to the router root.
    rec.trace = ChildOf(ctx.task().trace);
    return plan->sink(rec);
  };
}

}  // namespace

Result<ShardExportSpec> GenerateShardDeltaExport(
    Database& db, const std::string& view_name,
    const ShardExportOptions& options, ShardDeltaSink sink) {
  const ViewDef* view = db.views().Find(view_name);
  if (view == nullptr) {
    return Status::NotFound(StrFormat("no view '%s'", view_name.c_str()));
  }
  if (!view->maintained || !view->hidden_count) {
    return Status::FailedPrecondition(StrFormat(
        "view '%s' must be maintained with the hidden _count before its "
        "deltas can be exported",
        view_name.c_str()));
  }
  STRIP_ASSIGN_OR_RETURN(ViewShape shape, AnalyzeView(*view));
  if (!shape.is_aggregation) {
    return Status::Unimplemented(
        "delta export covers aggregation views only");
  }
  for (const AggItem& item : shape.aggs) {
    if (item.is_avg || item.is_count) {
      return Status::Unimplemented(
          "partial views for two-tier maintenance must be pure SUM "
          "aggregates over the hidden _count (AVG quotients and COUNT "
          "columns do not ship as deltas; derive them on the merge side)");
    }
  }

  auto plan = std::make_shared<ExportPlan>();
  plan->sink = std::move(sink);
  plan->shard_bits = static_cast<uint64_t>(options.shard_id) << 48;

  // Delta columns of the partial view, in select order.
  std::vector<std::string> sum_cols;
  for (const AggItem& item : shape.aggs) sum_cols.push_back(item.output);
  const std::string& g = shape.group_output;

  // Per event kind, the netting query over the view table's transition
  // tables: _key, _d<i> (per SUM column), _dc (hidden count).
  struct ExportSpecRow {
    const char* suffix;
    RuleEventKind event;
    std::string query;
  };
  std::string upd = "select new." + g + " as _key";
  std::string ins = "select " + g + " as _key";
  std::string del = "select " + g + " as _key";
  for (size_t i = 0; i < sum_cols.size(); ++i) {
    upd += StrFormat(", new.%s - old.%s as _d%zu", sum_cols[i].c_str(),
                     sum_cols[i].c_str(), i);
    ins += StrFormat(", %s as _d%zu", sum_cols[i].c_str(), i);
    del += StrFormat(", 0 - %s as _d%zu", sum_cols[i].c_str(), i);
  }
  upd += ", new._count - old._count as _dc from new, old "
         "where new.execute_order = old.execute_order";
  ins += ", _count as _dc from inserted";
  del += ", 0 - _count as _dc from deleted";
  std::vector<ExportSpecRow> specs = {
      {"_upd", RuleEventKind::kUpdated, upd},
      {"_ins", RuleEventKind::kInserted, ins},
      {"_del", RuleEventKind::kDeleted, del},
  };

  ShardExportSpec out;
  for (const ExportSpecRow& spec : specs) {
    std::string fn = "export_" + view_name + spec.suffix;
    std::string bound = view_name + "_export" + spec.suffix;
    STRIP_RETURN_IF_ERROR(db.RegisterFunction(
        fn, MakeFoldAndApply(bound, ViewChangeDecoder(sum_cols.size()),
                             ShipStep(plan), nullptr)));

    CreateRuleStmt rule;
    rule.rule_name = "do_export_" + view_name + spec.suffix;
    rule.table = view_name;
    RuleEvent ev;
    ev.kind = spec.event;
    rule.events.push_back(std::move(ev));
    RuleQuery rq;
    STRIP_ASSIGN_OR_RETURN(rq.query, ParseSelectText(spec.query));
    rq.bind_as = bound;
    rule.condition.push_back(std::move(rq));
    rule.function_name = fn;
    rule.unique = true;  // one shipment per export window
    rule.delay_seconds = options.delay_seconds;
    out.rule_names.push_back(rule.rule_name);
    out.function_names.push_back(fn);
    STRIP_RETURN_IF_ERROR(db.rules().CreateRule(std::move(rule)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Two-tier maintenance: merge rule
// ---------------------------------------------------------------------------

namespace {

/// Merge contributions: staged rows in the EncodeGroupDeltaRow layout.
/// The shipped change time survives the hop, so the merge commit is judged
/// against the oldest shard-side update it applies.
DeltaDecoder StagedDeltaDecoder(size_t num_sums) {
  return [num_sums](const TempTable& rows,
                    Timestamp) -> Result<std::vector<GroupDelta>> {
    std::vector<GroupDelta> staged;
    staged.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      STRIP_ASSIGN_OR_RETURN(GroupDelta d,
                             DecodeGroupDeltaRow(rows.MaterializeRow(i)));
      if (d.sums.size() != num_sums) {
        return Status::Internal("staged delta arity mismatch");
      }
      staged.push_back(std::move(d));
    }
    return staged;
  };
}

}  // namespace

Result<MergeRuleSpec> GenerateMergeRule(Database& db,
                                        const std::string& view_table,
                                        const MergeRuleOptions& options) {
  STRIP_ASSIGN_OR_RETURN(Table * table, db.catalog().GetTable(view_table));
  const Schema& schema = table->schema();
  int count_col = schema.FindColumn("_count");
  if (schema.num_columns() < 2 ||
      count_col != schema.num_columns() - 1) {
    return Status::InvalidArgument(StrFormat(
        "merge view table '%s' must end in a _count column (group key "
        "first, SUM columns between)",
        view_table.c_str()));
  }
  // The merge view reads like a pure-SUM aggregation view whose hidden
  // count is already in place.
  ViewShape shape;
  shape.is_aggregation = true;
  shape.group_output = schema.column(0).name;
  for (int c = 1; c < count_col; ++c) {
    shape.aggs.push_back(AggItem{false, false, nullptr, schema.column(c).name});
  }
  shape.num_sums = shape.aggs.size();

  MergeRuleSpec out;
  out.staging_table = view_table + "_deltas";
  out.function_name = "merge_" + view_table;
  out.rule_name = "do_merge_" + view_table;

  // Staging table in the EncodeGroupDeltaRow layout, keyed + indexed on
  // _seq so the cluster's staging FeedImporter can ingest shipped records.
  std::string ddl = "create table " + out.staging_table + " (_seq int, _g " +
                    ValueTypeName(schema.column(0).type);
  for (size_t i = 0; i < shape.num_sums; ++i) {
    ddl += StrFormat(", _s%zu double", i);
  }
  ddl += ", _cnt int, _ct int); create index on " + out.staging_table +
         " (_seq);";
  STRIP_RETURN_IF_ERROR(db.ExecuteScript(ddl));
  STRIP_RETURN_IF_ERROR(EnsureIndex(db, view_table, shape.group_output));

  // Unlike tier-1, the erase also demands every SUM column be exactly
  // zero: NumQueued can only see shipments already staged HERE, not
  // windows still batching on a shard, so a count-0 row with nonzero sums
  // is an out-of-order interim (its insert delta is still in flight) and
  // must survive. A truly emptied group's shipments telescope — each is a
  // difference of stored backing values — so under exactly-representable
  // deltas (the generator's contract; see GenerateShardDeltaExport) a dead
  // group reaches exact zeros and the stricter predicate never strands it.
  STRIP_ASSIGN_OR_RETURN(
      std::shared_ptr<AggPlan> plan,
      PrepareAggPlan(db, view_table, shape,
                     /*erase_requires_zero_sums=*/true));
  plan->sibling_functions = {out.function_name};
  STRIP_ASSIGN_OR_RETURN(
      PreparedStatementPtr retire,
      db.Prepare("delete from " + out.staging_table + " where _seq = ?"));

  std::string bound = "_merge_" + view_table;
  STRIP_RETURN_IF_ERROR(db.RegisterFunction(
      out.function_name,
      MakeFoldAndApply(
          bound, StagedDeltaDecoder(shape.num_sums), ApplyStep(plan),
          [plan, retire](FunctionContext& ctx,
                         const TempTable& rows) -> Status {
            // Consumed staged rows are spent; remove them so the staging
            // table stays O(in-flight deltas), not O(history).
            for (size_t i = 0; i < rows.size(); ++i) {
              STRIP_ASSIGN_OR_RETURN(int n,
                                     ctx.Exec(*retire, {rows.Get(i, 0)}));
              (void)n;
            }
            return SweepIfIdle(ctx, *plan);
          })));

  // Explicit column list (not SELECT *): the bound rows must match the
  // DecodeGroupDeltaRow layout exactly, without the transition table's
  // trailing execute_order.
  std::string cond = "select _seq, _g";
  for (size_t i = 0; i < shape.num_sums; ++i) {
    cond += StrFormat(", _s%zu", i);
  }
  cond += ", _cnt, _ct from inserted";

  CreateRuleStmt rule;
  rule.rule_name = out.rule_name;
  rule.table = out.staging_table;
  RuleEvent ev;
  ev.kind = RuleEventKind::kInserted;
  rule.events.push_back(std::move(ev));
  RuleQuery rq;
  STRIP_ASSIGN_OR_RETURN(rq.query, ParseSelectText(cond));
  rq.bind_as = bound;
  rule.condition.push_back(std::move(rq));
  rule.function_name = out.function_name;
  rule.unique = true;  // fold a whole merge window into one pass
  rule.delay_seconds = options.delay_seconds;
  STRIP_RETURN_IF_ERROR(db.rules().CreateRule(std::move(rule)));
  return out;
}

}  // namespace strip
