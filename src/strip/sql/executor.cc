#include "strip/sql/executor.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "strip/common/logging.h"
#include "strip/common/string_util.h"

namespace strip {

namespace {

/// True iff `expr` contains no column references (after pseudo columns are
/// accounted as constants they still count as non-column here only if they
/// are resolvable; we treat any colref as non-constant for safety except
/// pseudo ones).
bool IsConstantExpr(const Expr& expr, const InputSet& inputs,
                    const std::map<std::string, Value>* pseudo) {
  std::vector<int> refs;
  Status st = CollectReferencedInputs(expr, inputs, pseudo, refs);
  return st.ok() && refs.empty();
}

/// Result type inference for output schemas. Types are advisory for temp
/// tables (used when materializing into standard tables).
ValueType InferExprType(const Expr& expr, const InputSet& inputs) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal.type() == ValueType::kNull ? ValueType::kDouble
                                                     : expr.literal.type();
    case ExprKind::kColumnRef: {
      auto acc = inputs.Resolve(expr.qualifier, expr.column);
      if (acc.ok()) {
        return inputs.inputs()[static_cast<size_t>(acc->input)]
            .schema()
            .column(acc->column)
            .type;
      }
      return ValueType::kDouble;  // pseudo columns are timestamps (ints) or
                                  // app-defined; double is the safe default
    }
    case ExprKind::kUnary:
      return expr.un_op == UnaryOp::kNot
                 ? ValueType::kInt
                 : InferExprType(*expr.args[0], inputs);
    case ExprKind::kBinary:
      switch (expr.bin_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul: {
          ValueType l = InferExprType(*expr.args[0], inputs);
          ValueType r = InferExprType(*expr.args[1], inputs);
          return (l == ValueType::kInt && r == ValueType::kInt)
                     ? ValueType::kInt
                     : ValueType::kDouble;
        }
        case BinaryOp::kDiv:
          return ValueType::kDouble;
        default:
          return ValueType::kInt;  // comparisons / logic -> boolean int
      }
    case ExprKind::kFuncCall:
    case ExprKind::kParameter:
      return ValueType::kDouble;
    case ExprKind::kAggregate: {
      if (expr.func_name == "count") return ValueType::kInt;
      if (expr.func_name == "avg") return ValueType::kDouble;
      if (!expr.args.empty()) return InferExprType(*expr.args[0], inputs);
      return ValueType::kDouble;
    }
  }
  return ValueType::kDouble;
}

/// Collects pointers to every aggregate node in `expr`.
void CollectAggregates(const Expr& expr, std::vector<const Expr*>& out) {
  if (expr.kind == ExprKind::kAggregate) {
    out.push_back(&expr);
    return;  // nested aggregates are rejected at evaluation time
  }
  for (const auto& a : expr.args) CollectAggregates(*a, out);
}

/// Streaming accumulator for one aggregate call within one group.
struct AggState {
  int64_t count = 0;          // non-null inputs seen (rows for count(*))
  double sum_d = 0;
  int64_t sum_i = 0;
  bool saw_double = false;
  bool has_extremum = false;
  Value extremum;

  void Accumulate(const Expr& agg, const Value& v) {
    if (agg.star_arg) {  // count(*)
      ++count;
      return;
    }
    if (v.is_null()) return;
    ++count;
    if (agg.func_name == "sum" || agg.func_name == "avg") {
      if (v.type() == ValueType::kDouble) saw_double = true;
      sum_d += v.as_double();
      if (v.type() == ValueType::kInt) sum_i += v.as_int();
    } else if (agg.func_name == "min" || agg.func_name == "max") {
      if (!has_extremum) {
        extremum = v;
        has_extremum = true;
      } else {
        int c = Value::Compare(v, extremum);
        if ((agg.func_name == "min" && c < 0) ||
            (agg.func_name == "max" && c > 0)) {
          extremum = v;
        }
      }
    }
  }

  Value Finalize(const Expr& agg) const {
    if (agg.func_name == "count") return Value::Int(count);
    if (count == 0) return Value::Null();
    if (agg.func_name == "sum") {
      return saw_double ? Value::Double(sum_d) : Value::Int(sum_i);
    }
    if (agg.func_name == "avg") {
      return Value::Double(sum_d / static_cast<double>(count));
    }
    return extremum;  // min / max
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// SELECT planning
// ---------------------------------------------------------------------------

Result<SelectPlan> SelectPlan::Build(
    const SelectStmt& stmt, const Catalog* catalog,
    const std::vector<TempSource>& temps,
    const std::map<std::string, Value>* pseudo,
    const ScalarFuncRegistry* funcs) {
  SelectPlan plan;
  plan.stmt_ = &stmt;
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM clause is empty");
  }
  for (const TableRef& ref : stmt.from) {
    std::string name = ToLower(ref.table);
    auto temp = std::find_if(temps.begin(), temps.end(),
                             [&](const TempSource& t) {
                               return EqualsIgnoreCase(t.name, name);
                             });
    if (temp != temps.end()) {
      plan.inputs_.AddTemp(ref.EffectiveName(), *temp->schema,
                           static_cast<int>(temp - temps.begin()));
      continue;
    }
    Table* table = catalog != nullptr ? catalog->FindTable(name) : nullptr;
    if (table == nullptr) {
      return Status::NotFound(StrFormat("no table '%s'", name.c_str()));
    }
    plan.inputs_.Add(ref.EffectiveName(), table);
  }
  const InputSet& inputs = plan.inputs_;
  const size_t n = inputs.inputs().size();
  STRIP_ASSIGN_OR_RETURN(plan.conjuncts_,
                         ClassifyConjuncts(stmt.where.get(), inputs, pseudo));

  // Every expression the executor evaluates is compiled once, on first
  // use, and named by its position in programs_.
  std::unordered_map<const Expr*, Program> program_of;
  auto compile = [&](const Expr* e) -> Program {
    if (e == nullptr) return kNoProgram;
    auto [it, inserted] = program_of.try_emplace(
        e, static_cast<Program>(plan.programs_.size()));
    if (inserted) {
      plan.programs_.push_back(
          CompiledExpr::Compile(*e, inputs, pseudo, funcs));
    }
    return it->second;
  };

  // Single-input conjuncts become that input's scan filters; the rest are
  // joins, with the index on each bare-column equi-join side.
  std::vector<std::vector<const Expr*>> filters(n);
  auto side_index = [&](const Expr* side, int input, Index*& index,
                        int& column) {
    if (side->kind != ExprKind::kColumnRef) return;
    auto acc = inputs.Resolve(side->qualifier, side->column);
    const BoundInput& in = inputs.inputs()[static_cast<size_t>(input)];
    if (!acc.ok() || acc->input != input || in.is_temp()) return;
    index = in.table->FindIndexByPosition(acc->column);
    if (index != nullptr) column = acc->column;
  };
  for (const Conjunct& c : plan.conjuncts_) {
    if (c.referenced.size() <= 1) {
      int target = c.referenced.empty() ? 0 : c.referenced[0];
      filters[static_cast<size_t>(target)].push_back(c.expr);
      continue;
    }
    Join j;
    j.conjunct = &c;
    j.expr = compile(c.expr);
    if (c.equi_join) {
      j.lhs = compile(c.lhs);
      j.rhs = compile(c.rhs);
      side_index(c.lhs, c.lhs_input, j.lhs_index, j.lhs_column);
      side_index(c.rhs, c.rhs_input, j.rhs_index, j.rhs_column);
    }
    plan.joins_.push_back(j);
  }
  plan.input_filters_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (const Expr* f : filters[i]) {
      plan.input_filters_[i].push_back(compile(f));
    }
  }

  // Per standard input: does an indexed equality pin it (join ordering),
  // and which `col = <constant>` filter probes its index (the scan)?
  plan.pinned_.assign(n, false);
  plan.probes_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const BoundInput& in = inputs.inputs()[i];
    if (in.is_temp()) continue;
    for (const Expr* f : filters[i]) {
      if (f->kind != ExprKind::kBinary || f->bin_op != BinaryOp::kEq) continue;
      for (int side = 0; side < 2; ++side) {
        const Expr& col_side = *f->args[static_cast<size_t>(side)];
        const Expr& const_side = *f->args[static_cast<size_t>(1 - side)];
        if (col_side.kind != ExprKind::kColumnRef) continue;
        auto acc = inputs.Resolve(col_side.qualifier, col_side.column);
        if (!acc.ok() || acc->input != static_cast<int>(i)) continue;
        Index* idx = in.table->FindIndexByPosition(acc->column);
        if (idx == nullptr) continue;
        plan.pinned_[i] = true;
        if (plan.probes_[i].index == nullptr &&
            IsConstantExpr(const_side, inputs, pseudo)) {
          plan.probes_[i] = Probe{idx, acc->column, compile(&const_side)};
        }
      }
    }
  }

  // Expand the select list (star -> every column of every input).
  if (stmt.star) {
    for (const BoundInput& in : inputs.inputs()) {
      for (int c = 0; c < in.schema().num_columns(); ++c) {
        SelectItem item;
        item.expr = MakeColumnRef(in.name, in.schema().column(c).name);
        item.alias = in.schema().column(c).name;
        plan.expanded_.push_back(std::move(item));
      }
    }
  }
  const std::vector<SelectItem>& items = plan.items();
  if (items.empty()) {
    return Status::InvalidArgument("empty select list");
  }

  // Every column reference in the select list, group-by and order-by must
  // resolve (or be a pseudo column), even when the inputs are empty.
  auto is_output_name = [&](const Expr& e) {
    if (e.kind != ExprKind::kColumnRef || !e.qualifier.empty()) return -1;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].OutputName(static_cast<int>(i)) == e.column) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  {
    std::vector<int> refs;
    for (const SelectItem& item : items) {
      STRIP_RETURN_IF_ERROR(
          CollectReferencedInputs(*item.expr, inputs, pseudo, refs));
    }
    for (const auto& g : stmt.group_by) {
      STRIP_RETURN_IF_ERROR(CollectReferencedInputs(*g, inputs, pseudo, refs));
    }
    for (const auto& ob : stmt.order_by) {
      // An order-by may also name an output column.
      if (is_output_name(*ob.expr) >= 0) continue;
      STRIP_RETURN_IF_ERROR(
          CollectReferencedInputs(*ob.expr, inputs, pseudo, refs));
    }
  }

  plan.has_aggregates_ = !stmt.group_by.empty();
  for (const SelectItem& item : items) {
    if (item.expr->ContainsAggregate()) plan.has_aggregates_ = true;
  }
  if (stmt.having != nullptr) {
    if (stmt.having->ContainsAggregate()) plan.has_aggregates_ = true;
    if (!plan.has_aggregates_) {
      return Status::InvalidArgument("HAVING requires aggregation");
    }
    std::vector<int> refs;
    STRIP_RETURN_IF_ERROR(
        CollectReferencedInputs(*stmt.having, inputs, pseudo, refs));
  }

  for (size_t i = 0; i < items.size(); ++i) {
    plan.out_schema_.AddColumn(items[i].OutputName(static_cast<int>(i)),
                               InferExprType(*items[i].expr, inputs));
  }

  for (const SelectItem& item : items) {
    plan.item_programs_.push_back(compile(item.expr.get()));
  }
  if (plan.has_aggregates_) {
    for (const SelectItem& item : items) {
      CollectAggregates(*item.expr, plan.agg_nodes_);
    }
    for (const auto& ob : stmt.order_by) {
      CollectAggregates(*ob.expr, plan.agg_nodes_);
      // Order keys: output column name, else expression over the group.
      plan.agg_order_out_col_.push_back(
          ob.expr->kind == ExprKind::kColumnRef && ob.expr->qualifier.empty()
              ? plan.out_schema_.FindColumn(ob.expr->column)
              : -1);
      plan.order_programs_.push_back(compile(ob.expr.get()));
    }
    if (stmt.having != nullptr) {
      CollectAggregates(*stmt.having, plan.agg_nodes_);
    }
    for (const ExprPtr& g : stmt.group_by) {
      plan.group_programs_.push_back(compile(g.get()));
    }
    plan.having_program_ = compile(stmt.having.get());
    for (const Expr* agg : plan.agg_nodes_) {
      plan.agg_arg_programs_.push_back(
          !agg->star_arg && agg->args.size() == 1
              ? compile(agg->args[0].get())
              : kNoProgram);
    }
    return plan;
  }

  // §6.1 pointer layout: bare standard-table column refs stay
  // pointer-backed; everything else is materialized.
  plan.out_slot_of_input_.assign(n, -1);
  for (size_t i = 0; i < items.size(); ++i) {
    const Expr* e = items[i].expr.get();
    OutCol oc;
    if (e->kind == ExprKind::kColumnRef) {
      auto acc = inputs.Resolve(e->qualifier, e->column);
      if (acc.ok() &&
          !inputs.inputs()[static_cast<size_t>(acc->input)].is_temp()) {
        oc.pointer = true;
        oc.input = acc->input;
        int& slot = plan.out_slot_of_input_[static_cast<size_t>(acc->input)];
        if (slot < 0) slot = plan.num_out_slots_++;
        plan.layout_.push_back(TempColumnMap{slot, acc->column});
        plan.out_cols_.push_back(oc);
        continue;
      }
    }
    oc.program = plan.item_programs_[i];
    plan.layout_.push_back(TempColumnMap{TempColumnMap::kMaterializedSlot,
                                         plan.num_out_extra_++});
    plan.out_cols_.push_back(oc);
  }
  // An unqualified order key that does not resolve in the inputs but
  // names an output column orders by that output expression.
  for (const auto& ob : stmt.order_by) {
    const Expr* e = ob.expr.get();
    if (e->kind == ExprKind::kColumnRef && e->qualifier.empty() &&
        !inputs.Resolve("", e->column).ok()) {
      int out = is_output_name(*e);
      if (out >= 0) e = items[static_cast<size_t>(out)].expr.get();
    }
    plan.order_keys_.push_back(compile(e));
  }
  return plan;
}

bool SelectPlan::uses_index_probe() const {
  return std::any_of(probes_.begin(), probes_.end(),
                     [](const Probe& p) { return p.index != nullptr; });
}

TempTable SelectPlan::NewOutput(const std::string& name) const {
  if (has_aggregates_) return TempTable::Materialized(name, out_schema_);
  return TempTable(name, out_schema_, layout_, num_out_slots_,
                   num_out_extra_);
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

void SqlExecutor::Trace(std::string line) {
  if (ctx_.plan_trace != nullptr) ctx_.plan_trace->push_back(std::move(line));
}

Status SqlExecutor::LockTable(Table* table, LockMode mode) {
  if (ctx_.locks == nullptr || ctx_.txn == nullptr) return Status::OK();
  return ctx_.locks->Acquire(ctx_.txn, LockKey::WholeTable(table), mode);
}

const TempTable& SqlExecutor::TempOf(int input) const {
  return *input_temps_[static_cast<size_t>(input)];
}

Result<Value> SqlExecutor::Eval(SelectPlan::Program program,
                                const JoinCell* row) {
  frame_.row = row;
  return plan_->programs_[static_cast<size_t>(program)].Eval(frame_);
}

Status SqlExecutor::ScanInput(int input, JoinCell* scratch,
                              const std::function<Status()>& emit) {
  const BoundInput& in = plan_->inputs_.inputs()[static_cast<size_t>(input)];
  const std::vector<SelectPlan::Program>& filters =
      plan_->input_filters_[static_cast<size_t>(input)];
  const SelectPlan::Probe& probe =
      plan_->probes_[static_cast<size_t>(input)];
  JoinCell& cell = scratch[input];

  // Filters read only this input's cell.
  auto emit_if_passes = [&]() -> Status {
    for (SelectPlan::Program f : filters) {
      STRIP_ASSIGN_OR_RETURN(Value v, Eval(f, scratch));
      if (!v.IsTruthy()) return Status::OK();
    }
    return emit();
  };

  if (probe.index != nullptr) {
    // The key side references no inputs.
    STRIP_ASSIGN_OR_RETURN(Value index_key, Eval(probe.key, scratch));
    if (tracing()) {
      Trace(StrFormat("scan %s: index probe %s = %s", in.name.c_str(),
                      in.table->schema().column(probe.column).name.c_str(),
                      index_key.ToString().c_str()));
    }
    std::vector<RowHandle> rows;
    probe.index->Lookup(index_key, rows);
    for (RowHandle r : rows) {
      cell.row = r.get();
      STRIP_RETURN_IF_ERROR(emit_if_passes());
    }
    return Status::OK();
  }

  if (!in.is_temp()) {
    // Batched full scan: gather a ScanBatch of live-slot handles per page
    // walk, then run the filter loop tight over the batch so compiled
    // expression programs read contiguous slots instead of chasing nodes.
    PageManager::ScanPos pos;
    ScanBatch batch;
    while (in.table->NextBatch(pos, batch)) {
      if (ctx_.rows_scanned != nullptr) *ctx_.rows_scanned += batch.count;
      for (size_t i = 0; i < batch.count; ++i) {
        cell.row = batch.rows[i].get();
        STRIP_RETURN_IF_ERROR(emit_if_passes());
      }
    }
    return Status::OK();
  }

  for (const TempTuple& t : TempOf(input).tuples()) {
    cell.tuple = &t;
    STRIP_RETURN_IF_ERROR(emit_if_passes());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Join pipeline
// ---------------------------------------------------------------------------

Status SqlExecutor::RunJoin(std::vector<JoinCell>& current) {
  const InputSet& inputs = plan_->inputs_;
  const std::vector<SelectPlan::Join>& joins = plan_->joins_;
  const int n = static_cast<int>(inputs.width());
  const size_t width = inputs.width();

  // Effective input size: tiny when an indexed equality pins the scan.
  auto effective_size = [&](int i) -> size_t {
    const BoundInput& in = inputs.inputs()[static_cast<size_t>(i)];
    if (in.is_temp()) return TempOf(i).size();
    return plan_->pinned_[static_cast<size_t>(i)] ? 1 : in.table->size();
  };

  // Pick the starting input: the smallest.
  std::vector<bool> joined(width, false);
  int first = 0;
  for (int i = 1; i < n; ++i) {
    if (effective_size(i) < effective_size(first)) first = i;
  }

  if (tracing()) {
    Trace(StrFormat("start with %s",
                    inputs.inputs()[static_cast<size_t>(first)].name.c_str()));
  }
  // One join row of scratch: each step fills it from a base row and a
  // candidate of the next input, and appends it to `merged` if it joins.
  const JoinCell null_cell{nullptr};
  std::vector<JoinCell> scratch(width, null_cell);
  auto append = [&](std::vector<JoinCell>& to) {
    to.insert(to.end(), scratch.begin(), scratch.end());
  };
  current.clear();
  STRIP_RETURN_IF_ERROR(ScanInput(first, scratch.data(), [&] {
    append(current);
    return Status::OK();
  }));
  joined[static_cast<size_t>(first)] = true;

  auto all_joined = [&](const std::vector<int>& refs) {
    for (int r : refs) {
      if (!joined[static_cast<size_t>(r)]) return false;
    }
    return true;
  };

  std::vector<bool> join_applied(joins.size(), false);
  std::vector<JoinCell> merged;
  // Per step: the usable equi-join keys for the next input, the side
  // reading it and the side reading joined inputs, and their joins.
  std::vector<SelectPlan::Program> next_keys;
  std::vector<SelectPlan::Program> other_keys;
  std::vector<size_t> used_joins;

  for (int step = 1; step < n; ++step) {
    // Choose the next input: prefer one connected by an equi-join to the
    // joined set; among candidates, smallest effective size. The join side
    // on the new input must be resolvable; the other side must be fully
    // joined already.
    int next = -1;
    size_t next_size = 0;
    bool next_connected = false;
    for (int i = 0; i < n; ++i) {
      if (joined[static_cast<size_t>(i)]) continue;
      bool connected = false;
      for (const SelectPlan::Join& j : joins) {
        const Conjunct& c = *j.conjunct;
        if (!c.equi_join) continue;
        int other = -1;
        if (c.lhs_input == i) other = c.rhs_input;
        if (c.rhs_input == i) other = c.lhs_input;
        if (other >= 0 && joined[static_cast<size_t>(other)]) {
          connected = true;
          break;
        }
      }
      size_t sz = effective_size(i);
      if (next < 0 || (connected && !next_connected) ||
          (connected == next_connected && sz < next_size)) {
        next = i;
        next_size = sz;
        next_connected = connected;
      }
    }
    STRIP_CHECK(next >= 0);

    // Collect the usable equi-join keys for `next`, and the first of them
    // whose `next` side is an indexed bare column (index-nested-loop).
    next_keys.clear();
    other_keys.clear();
    used_joins.clear();
    Index* index = nullptr;
    int index_column = -1;
    size_t index_join_slot = 0;
    for (size_t ji = 0; ji < joins.size(); ++ji) {
      const SelectPlan::Join& j = joins[ji];
      const Conjunct& c = *j.conjunct;
      if (!c.equi_join || join_applied[ji]) continue;
      SelectPlan::Program mine = SelectPlan::kNoProgram;
      SelectPlan::Program theirs = SelectPlan::kNoProgram;
      int other_input = -1;
      Index* mine_index = nullptr;
      int mine_column = -1;
      if (c.lhs_input == next) {
        mine = j.lhs;
        theirs = j.rhs;
        other_input = c.rhs_input;
        mine_index = j.lhs_index;
        mine_column = j.lhs_column;
      } else if (c.rhs_input == next) {
        mine = j.rhs;
        theirs = j.lhs;
        other_input = c.lhs_input;
        mine_index = j.rhs_index;
        mine_column = j.rhs_column;
      } else {
        continue;
      }
      if (!joined[static_cast<size_t>(other_input)]) continue;
      if (index == nullptr && mine_index != nullptr) {
        index = mine_index;
        index_column = mine_column;
        index_join_slot = next_keys.size();
      }
      next_keys.push_back(mine);
      other_keys.push_back(theirs);
      used_joins.push_back(ji);
    }

    merged.clear();
    const BoundInput& nin = inputs.inputs()[static_cast<size_t>(next)];
    const auto& filters = plan_->input_filters_[static_cast<size_t>(next)];
    JoinCell& next_cell = scratch[static_cast<size_t>(next)];

    // Appends scratch to `merged` when its remaining equality keys hold.
    auto emit_if_match = [&]() -> Status {
      for (size_t k = 0; k < next_keys.size(); ++k) {
        if (index != nullptr && k == index_join_slot) continue;
        STRIP_ASSIGN_OR_RETURN(Value a, Eval(next_keys[k], scratch.data()));
        STRIP_ASSIGN_OR_RETURN(Value b, Eval(other_keys[k], scratch.data()));
        if (a.is_null() || b.is_null() || a != b) return Status::OK();
      }
      append(merged);
      return Status::OK();
    };
    // Makes room in `merged` for `more` rows, growing it geometrically.
    auto reserve_for = [&](size_t more) {
      const size_t need = merged.size() + more * width;
      if (need > merged.capacity()) {
        merged.reserve(std::max(need, 2 * merged.capacity()));
      }
    };
    // Points scratch at base row `b` of `current`.
    auto load_base = [&](size_t b) {
      std::copy_n(current.begin() + static_cast<ptrdiff_t>(b * width), width,
                  scratch.begin());
    };
    const size_t num_rows = current.size() / width;

    if (index != nullptr) {
      if (tracing()) {
        Trace(StrFormat("index-nested-loop join %s (index on %s)",
                        nin.name.c_str(),
                        nin.table->schema().column(index_column).name.c_str()));
      }
      std::vector<RowHandle> rows;  // reused across probes (Lookup appends)
      for (size_t b = 0; b < num_rows; ++b) {
        load_base(b);
        STRIP_ASSIGN_OR_RETURN(
            Value key, Eval(other_keys[index_join_slot], scratch.data()));
        if (key.is_null()) continue;
        rows.clear();
        index->Lookup(key, rows);
        reserve_for(rows.size());
        for (RowHandle r : rows) {
          // Apply next's pushed-down filters on the candidate first.
          next_cell.row = r.get();
          bool pass = true;
          for (SelectPlan::Program f : filters) {
            STRIP_ASSIGN_OR_RETURN(Value v, Eval(f, scratch.data()));
            if (!v.IsTruthy()) {
              pass = false;
              break;
            }
          }
          if (pass) STRIP_RETURN_IF_ERROR(emit_if_match());
        }
      }
    } else if (!next_keys.empty()) {
      // Hash join: build on `next`, probe with current rows.
      if (tracing()) {
        Trace(StrFormat("hash join %s (%zu equi key%s)", nin.name.c_str(),
                        next_keys.size(), next_keys.size() == 1 ? "" : "s"));
      }
      std::unordered_map<std::vector<Value>, std::vector<JoinCell>,
                         ValueVectorHash, ValueVectorEq>
          build;
      std::fill(scratch.begin(), scratch.end(), null_cell);
      STRIP_RETURN_IF_ERROR(
          ScanInput(next, scratch.data(), [&]() -> Status {
            std::vector<Value> key;
            key.reserve(next_keys.size());
            for (SelectPlan::Program e : next_keys) {
              STRIP_ASSIGN_OR_RETURN(Value v, Eval(e, scratch.data()));
              key.push_back(std::move(v));
            }
            build[std::move(key)].push_back(next_cell);
            return Status::OK();
          }));
      std::vector<Value> key;
      for (size_t b = 0; b < num_rows; ++b) {
        load_base(b);
        key.clear();
        bool null_key = false;
        for (SelectPlan::Program e : other_keys) {
          STRIP_ASSIGN_OR_RETURN(Value v, Eval(e, scratch.data()));
          if (v.is_null()) {
            null_key = true;
            break;
          }
          key.push_back(std::move(v));
        }
        if (null_key) continue;
        auto it = build.find(key);
        if (it == build.end()) continue;
        reserve_for(it->second.size());
        for (JoinCell cell : it->second) {
          next_cell = cell;
          append(merged);
        }
      }
    } else {
      // Cross / nested-loop join.
      if (tracing()) {
        Trace(StrFormat("nested-loop join %s", nin.name.c_str()));
      }
      std::vector<JoinCell> candidates;
      std::fill(scratch.begin(), scratch.end(), null_cell);
      STRIP_RETURN_IF_ERROR(ScanInput(next, scratch.data(), [&] {
        candidates.push_back(next_cell);
        return Status::OK();
      }));
      for (size_t b = 0; b < num_rows; ++b) {
        load_base(b);
        for (JoinCell cell : candidates) {
          next_cell = cell;
          STRIP_RETURN_IF_ERROR(emit_if_match());
        }
      }
    }

    for (size_t ji : used_joins) join_applied[ji] = true;
    joined[static_cast<size_t>(next)] = true;
    current.swap(merged);

    // Apply any residual conjunct that just became fully bound, keeping
    // the rows that pass in place.
    for (size_t ji = 0; ji < joins.size(); ++ji) {
      if (join_applied[ji]) continue;
      const Conjunct& c = *joins[ji].conjunct;
      if (!all_joined(c.referenced)) continue;
      size_t kept = 0;
      for (size_t r = 0; r < current.size(); r += width) {
        STRIP_ASSIGN_OR_RETURN(Value v, Eval(joins[ji].expr, &current[r]));
        if (!v.IsTruthy()) continue;
        if (kept != r) {
          std::copy_n(current.begin() + static_cast<ptrdiff_t>(r), width,
                      current.begin() + static_cast<ptrdiff_t>(kept));
        }
        kept += width;
      }
      current.resize(kept);
      join_applied[ji] = true;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

Result<TempTable> SqlExecutor::ExecuteSelect(const SelectStmt& stmt,
                                             const std::string& output_name) {
  // The task's bound tables shadow the catalog (§6.3).
  std::vector<SelectPlan::TempSource> sources;
  std::vector<const TempTable*> temps;
  if (ctx_.bound != nullptr) {
    for (const TempTable& t : ctx_.bound->tables()) {
      sources.push_back(SelectPlan::TempSource{t.name(), &t.schema()});
      temps.push_back(&t);
    }
  }
  STRIP_ASSIGN_OR_RETURN(SelectPlan plan,
                         SelectPlan::Build(stmt, ctx_.catalog, sources,
                                           ctx_.pseudo, ctx_.funcs));
  return Execute(plan, temps, output_name);
}

Result<TempTable> SqlExecutor::Execute(
    const SelectPlan& plan, const std::vector<const TempTable*>& temps,
    const std::string& output_name) {
  plan_ = &plan;
  const SelectStmt& stmt = *plan.stmt_;
  const InputSet& inputs = plan.inputs_;

  // Locks are per-execution, never part of a plan: take a shared lock on
  // every standard input, in FROM order.
  input_temps_.assign(inputs.width(), nullptr);
  for (size_t i = 0; i < inputs.width(); ++i) {
    const BoundInput& in = inputs.inputs()[i];
    if (!in.is_temp()) {
      STRIP_RETURN_IF_ERROR(LockTable(in.table, LockMode::kShared));
      if (tracing()) {
        Trace(StrFormat("source %s: table (%zu rows)", in.name.c_str(),
                        in.table->size()));
      }
      continue;
    }
    const size_t source = static_cast<size_t>(in.temp_source);
    if (source >= temps.size() || temps[source] == nullptr ||
        temps[source]->schema().num_columns() !=
            in.temp_schema->num_columns()) {
      return Status::Internal(StrFormat(
          "temp table bound to '%s' does not match its SELECT plan",
          in.name.c_str()));
    }
    input_temps_[i] = temps[source];
    if (tracing()) {
      Trace(StrFormat("source %s: temp table (%zu rows)", in.name.c_str(),
                      temps[source]->size()));
    }
  }
  frame_.rec = nullptr;
  frame_.temps = input_temps_.data();
  frame_.params = ctx_.params;
  frame_.pseudo = ctx_.pseudo;

  std::vector<JoinCell> rows;
  STRIP_RETURN_IF_ERROR(RunJoin(rows));
  const size_t width = inputs.width();
  const size_t num_rows = rows.size() / width;
  auto row_at = [&](size_t r) { return &rows[r * width]; };
  const Schema& out_schema = plan.out_schema_;
  TempTable result = plan.NewOutput(output_name);

  if (plan.has_aggregates_) {
    if (tracing()) {
      Trace(StrFormat("hash aggregate: %zu group key(s)%s",
                      stmt.group_by.size(),
                      stmt.having != nullptr ? ", having filter" : ""));
    }
    // ---- hash aggregation ----
    const std::vector<const Expr*>& agg_nodes = plan.agg_nodes_;
    struct Group {
      size_t representative;
      std::vector<AggState> states;
    };
    std::unordered_map<std::vector<Value>, Group, ValueVectorHash,
                       ValueVectorEq>
        groups;
    for (size_t r = 0; r < num_rows; ++r) {
      std::vector<Value> key;
      key.reserve(plan.group_programs_.size());
      for (SelectPlan::Program g : plan.group_programs_) {
        STRIP_ASSIGN_OR_RETURN(Value v, Eval(g, row_at(r)));
        key.push_back(std::move(v));
      }
      auto [it, inserted] = groups.try_emplace(std::move(key));
      if (inserted) {
        it->second.representative = r;
        it->second.states.resize(agg_nodes.size());
      }
      for (size_t a = 0; a < agg_nodes.size(); ++a) {
        const Expr& agg = *agg_nodes[a];
        Value v;  // null for count(*)
        if (!agg.star_arg) {
          if (agg.args.size() != 1) {
            return Status::InvalidArgument(StrFormat(
                "%s() takes exactly one argument", agg.func_name.c_str()));
          }
          STRIP_ASSIGN_OR_RETURN(v,
                                 Eval(plan.agg_arg_programs_[a], row_at(r)));
        }
        it->second.states[a].Accumulate(agg, v);
      }
    }
    // A global aggregate over zero rows still produces one output row.
    if (groups.empty() && stmt.group_by.empty()) {
      Group g;
      g.representative = SIZE_MAX;
      g.states.resize(agg_nodes.size());
      groups.emplace(std::vector<Value>{}, std::move(g));
    }

    // Output expressions read the group's finalized aggregates and its
    // representative row; in the empty global group every column is NULL.
    struct OutRow {
      std::vector<Value> values;
      std::vector<Value> sort_keys;
    };
    std::vector<OutRow> produced;
    produced.reserve(groups.size());
    AggregateValues agg_values;
    auto produce = [&](const Group& group) -> Status {
      for (size_t a = 0; a < agg_nodes.size(); ++a) {
        agg_values[agg_nodes[a]] = group.states[a].Finalize(*agg_nodes[a]);
      }
      frame_.null_columns = group.representative == SIZE_MAX;
      const JoinCell* row =
          frame_.null_columns ? nullptr : row_at(group.representative);
      if (plan.having_program_ != SelectPlan::kNoProgram) {
        STRIP_ASSIGN_OR_RETURN(Value keep, Eval(plan.having_program_, row));
        if (!keep.IsTruthy()) return Status::OK();
      }
      OutRow out;
      out.values.reserve(plan.item_programs_.size());
      for (SelectPlan::Program item : plan.item_programs_) {
        STRIP_ASSIGN_OR_RETURN(Value v, Eval(item, row));
        out.values.push_back(std::move(v));
      }
      for (size_t k = 0; k < stmt.order_by.size(); ++k) {
        int out_col = plan.agg_order_out_col_[k];
        if (out_col >= 0) {
          out.sort_keys.push_back(out.values[static_cast<size_t>(out_col)]);
        } else {
          STRIP_ASSIGN_OR_RETURN(Value v, Eval(plan.order_programs_[k], row));
          out.sort_keys.push_back(std::move(v));
        }
      }
      produced.push_back(std::move(out));
      return Status::OK();
    };
    Status st;
    frame_.aggregates = &agg_values;
    for (const auto& [key, group] : groups) {
      st = produce(group);
      if (!st.ok()) break;
    }
    frame_.aggregates = nullptr;
    frame_.null_columns = false;
    STRIP_RETURN_IF_ERROR(st);
    if (!stmt.order_by.empty()) {
      if (tracing()) {
        Trace(StrFormat("sort %zu group row(s)", produced.size()));
      }
      std::stable_sort(produced.begin(), produced.end(),
                       [&](const OutRow& a, const OutRow& b) {
                         for (size_t k = 0; k < stmt.order_by.size(); ++k) {
                           int c = Value::Compare(a.sort_keys[k],
                                                  b.sort_keys[k]);
                           if (c != 0) {
                             return stmt.order_by[k].descending ? c > 0
                                                                : c < 0;
                           }
                         }
                         return false;
                       });
    }
    if (stmt.distinct) {
      std::unordered_set<std::vector<Value>, ValueVectorHash, ValueVectorEq>
          seen;
      std::vector<OutRow> unique_rows;
      for (OutRow& out : produced) {
        if (seen.insert(out.values).second) {
          unique_rows.push_back(std::move(out));
        }
      }
      produced = std::move(unique_rows);
    }
    for (OutRow& out : produced) {
      if (stmt.limit >= 0 &&
          static_cast<int64_t>(result.size()) >= stmt.limit) {
        break;
      }
      TempTuple t;
      t.extra = std::move(out.values);
      result.Append(std::move(t));
    }
    return result;
  }

  // ---- non-aggregate projection with the §6.1 pointer layout ----
  // Sort order for non-aggregate queries: evaluate order keys per join row.
  // Without ORDER BY rows are produced in join order.
  std::vector<size_t> row_order;
  if (!stmt.order_by.empty()) {
    row_order.resize(num_rows);
    for (size_t i = 0; i < num_rows; ++i) row_order[i] = i;
    if (tracing()) Trace(StrFormat("sort %zu row(s)", num_rows));
    std::vector<std::vector<Value>> keys(num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      keys[i].reserve(plan.order_keys_.size());
      for (SelectPlan::Program ke : plan.order_keys_) {
        STRIP_ASSIGN_OR_RETURN(Value v, Eval(ke, row_at(i)));
        keys[i].push_back(std::move(v));
      }
    }
    std::stable_sort(row_order.begin(), row_order.end(),
                     [&](size_t a, size_t b) {
                       for (size_t k = 0; k < stmt.order_by.size(); ++k) {
                         int c = Value::Compare(keys[a][k], keys[b][k]);
                         if (c != 0) {
                           return stmt.order_by[k].descending ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
  }

  std::unordered_set<std::vector<Value>, ValueVectorHash, ValueVectorEq>
      seen;
  result.Reserve(stmt.limit >= 0
                     ? std::min(num_rows, static_cast<size_t>(stmt.limit))
                     : num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    if (stmt.limit >= 0 &&
        static_cast<int64_t>(result.size()) >= stmt.limit) {
      break;
    }
    const JoinCell* row = row_at(row_order.empty() ? i : row_order[i]);
    TempTuple t;
    t.slots.resize(static_cast<size_t>(plan.num_out_slots_));
    t.extra.resize(static_cast<size_t>(plan.num_out_extra_));
    int extra_i = 0;
    for (const SelectPlan::OutCol& oc : plan.out_cols_) {
      if (oc.pointer) {
        // The one place a join row takes a reference on a record version.
        RecordRef& slot = t.slots[static_cast<size_t>(
            plan.out_slot_of_input_[static_cast<size_t>(oc.input)])];
        if (slot == nullptr) slot = row[oc.input].row->rec;
      } else {
        STRIP_ASSIGN_OR_RETURN(Value v, Eval(oc.program, row));
        t.extra[static_cast<size_t>(extra_i++)] = std::move(v);
      }
    }
    if (stmt.distinct) {
      std::vector<Value> key;
      key.reserve(static_cast<size_t>(out_schema.num_columns()));
      for (int c = 0; c < out_schema.num_columns(); ++c) {
        key.push_back(result.Get(t, c));
      }
      if (!seen.insert(std::move(key)).second) continue;
    }
    result.Append(std::move(t));
  }
  return result;
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

namespace {

/// Finds the first indexed `col = <column-free expr>` conjunct of `where`
/// and compiles its key; leaves plan.index null when there is none.
void PlanIndexProbe(DmlPlan& plan, const Expr* where,
                    const ScalarFuncRegistry* funcs) {
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(where, conjuncts);
  const Schema& schema = plan.table->schema();
  for (const Expr* f : conjuncts) {
    if (f->kind != ExprKind::kBinary || f->bin_op != BinaryOp::kEq) continue;
    for (int side = 0; side < 2; ++side) {
      const Expr& col_side = *f->args[static_cast<size_t>(side)];
      const Expr& const_side = *f->args[static_cast<size_t>(1 - side)];
      if (col_side.kind != ExprKind::kColumnRef) continue;
      if (!col_side.qualifier.empty() &&
          col_side.qualifier != plan.table->name()) {
        continue;
      }
      int c = schema.FindColumn(col_side.column);
      if (c < 0 || !IsColumnFree(const_side)) continue;
      Index* idx = plan.table->FindIndexByPosition(c);
      if (idx == nullptr) continue;
      plan.index = idx;
      plan.index_key = CompiledExpr::CompileConstant(const_side, funcs);
      plan.note = StrFormat("dml: index probe on %s.%s",
                            plan.table->name().c_str(),
                            schema.column(c).name.c_str());
      return;
    }
  }
  plan.note = StrFormat("dml: full scan of %s", plan.table->name().c_str());
}

Status NoColumn(const std::string& column, const std::string& table) {
  return Status::NotFound(StrFormat("no column '%s' in table '%s'",
                                    column.c_str(), table.c_str()));
}

}  // namespace

Result<DmlPlan> DmlPlan::Build(const Statement& stmt, const Catalog& catalog,
                               const ScalarFuncRegistry* funcs) {
  DmlPlan plan;
  if (const auto* s = std::get_if<InsertStmt>(&stmt)) {
    plan.kind = Kind::kInsert;
    STRIP_ASSIGN_OR_RETURN(plan.table, catalog.GetTable(s->table));
    const Schema& schema = plan.table->schema();
    if (s->columns.empty()) {
      for (int i = 0; i < schema.num_columns(); ++i) {
        plan.insert_mapping.push_back(i);
      }
    } else {
      for (const std::string& col : s->columns) {
        int c = schema.FindColumn(col);
        if (c < 0) return NoColumn(col, s->table);
        plan.insert_mapping.push_back(c);
      }
    }
    for (const auto& row_exprs : s->rows) {
      if (row_exprs.size() != plan.insert_mapping.size()) {
        return Status::InvalidArgument(StrFormat(
            "INSERT arity mismatch: %zu values for %zu columns",
            row_exprs.size(), plan.insert_mapping.size()));
      }
      std::vector<CompiledExpr> row;
      row.reserve(row_exprs.size());
      for (const ExprPtr& e : row_exprs) {
        row.push_back(CompiledExpr::CompileConstant(*e, funcs));
      }
      plan.insert_rows.push_back(std::move(row));
    }
    plan.note = StrFormat("dml: insert %zu row(s) into %s",
                          plan.insert_rows.size(),
                          plan.table->name().c_str());
    return plan;
  }

  const Expr* where = nullptr;
  if (const auto* s = std::get_if<UpdateStmt>(&stmt)) {
    plan.kind = Kind::kUpdate;
    STRIP_ASSIGN_OR_RETURN(plan.table, catalog.GetTable(s->table));
    const Schema& schema = plan.table->schema();
    for (const auto& sc : s->sets) {
      int c = schema.FindColumn(sc.column);
      if (c < 0) return NoColumn(sc.column, s->table);
      plan.set_cols.push_back(c);
      plan.set_exprs.push_back(CompiledExpr::CompileSingleTable(
          *sc.expr, plan.table->name(), schema, nullptr, funcs));
    }
    where = s->where.get();
  } else if (const auto* s = std::get_if<DeleteStmt>(&stmt)) {
    plan.kind = Kind::kDelete;
    STRIP_ASSIGN_OR_RETURN(plan.table, catalog.GetTable(s->table));
    where = s->where.get();
  } else {
    return Status::InvalidArgument("ExecuteDml takes INSERT/UPDATE/DELETE");
  }
  if (where != nullptr) {
    plan.where = CompiledExpr::CompileSingleTable(
        *where, plan.table->name(), plan.table->schema(), nullptr, funcs);
  }
  PlanIndexProbe(plan, where, funcs);
  return plan;
}

Result<int> SqlExecutor::ExecuteDml(const DmlPlan& plan) {
  if (ctx_.txn == nullptr) {
    return Status::FailedPrecondition("DML requires a transaction");
  }
  Table* table = plan.table;
  STRIP_RETURN_IF_ERROR(LockTable(table, LockMode::kExclusive));
  frame_.row = nullptr;
  frame_.rec = nullptr;
  frame_.params = ctx_.params;
  frame_.pseudo = nullptr;

  if (plan.kind == DmlPlan::Kind::kInsert) {
    const Schema& schema = table->schema();
    int inserted = 0;
    for (const auto& row_progs : plan.insert_rows) {
      std::vector<Value> values(static_cast<size_t>(schema.num_columns()));
      for (size_t i = 0; i < row_progs.size(); ++i) {
        STRIP_ASSIGN_OR_RETURN(Value v, row_progs[i].Eval(frame_));
        values[static_cast<size_t>(plan.insert_mapping[i])] = std::move(v);
      }
      STRIP_ASSIGN_OR_RETURN(RowHandle it,
                             table->Insert(MakeRecord(std::move(values))));
      ctx_.txn->log().Append(LogOp::kInsert, table, it->id, nullptr, it->rec);
      ++inserted;
    }
    return inserted;
  }

  // UPDATE / DELETE: collect every matching row first, then apply, so the
  // statement never sees its own changes.
  auto matches = [&](const RecordRef& rec) -> Result<bool> {
    if (!plan.where.has_value()) return true;
    frame_.rec = rec.get();
    STRIP_ASSIGN_OR_RETURN(Value v, plan.where->Eval(frame_));
    return v.IsTruthy();
  };
  std::optional<Value> key;
  if (plan.index != nullptr) {
    // A key that fails to evaluate falls back to the scan: the full WHERE
    // subsumes the probe conjunct and reports the error lazily, per row.
    auto k = plan.index_key->Eval(frame_);
    if (k.ok()) key = k.take();
  }
  std::vector<RowHandle> targets;
  if (key.has_value()) {
    std::vector<RowHandle> candidates;
    plan.index->Lookup(*key, candidates);
    for (RowHandle r : candidates) {
      STRIP_ASSIGN_OR_RETURN(bool ok, matches(r->rec));
      if (ok) targets.push_back(r);
    }
  } else {
    PageManager::ScanPos pos;
    ScanBatch batch;
    while (table->NextBatch(pos, batch)) {
      if (ctx_.rows_scanned != nullptr) *ctx_.rows_scanned += batch.count;
      for (size_t i = 0; i < batch.count; ++i) {
        STRIP_ASSIGN_OR_RETURN(bool ok, matches(batch.rows[i]->rec));
        if (ok) targets.push_back(batch.rows[i]);
      }
    }
  }

  if (plan.kind == DmlPlan::Kind::kDelete) {
    for (RowHandle it : targets) {
      ctx_.txn->log().Append(LogOp::kDelete, table, it->id, it->rec, nullptr);
      table->Erase(it);
    }
    return static_cast<int>(targets.size());
  }
  for (RowHandle it : targets) {
    RecordRef old_rec = it->rec;
    frame_.rec = old_rec.get();
    std::vector<Value> values = old_rec->values;
    for (size_t i = 0; i < plan.set_exprs.size(); ++i) {
      STRIP_ASSIGN_OR_RETURN(Value v, plan.set_exprs[i].Eval(frame_));
      values[static_cast<size_t>(plan.set_cols[i])] = std::move(v);
    }
    STRIP_RETURN_IF_ERROR(table->Update(it, MakeRecord(std::move(values))));
    ctx_.txn->log().Append(LogOp::kUpdate, table, it->id, old_rec, it->rec);
  }
  return static_cast<int>(targets.size());
}

}  // namespace strip
