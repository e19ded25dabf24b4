#include "strip/sql/executor.h"

#include <algorithm>
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
// Binding and scans
// ---------------------------------------------------------------------------

void SqlExecutor::Trace(const std::string& line) {
  if (ctx_.plan_trace != nullptr) ctx_.plan_trace->push_back(line);
}

Result<InputSet> SqlExecutor::BindFrom(const std::vector<TableRef>& from) {
  InputSet inputs;
  if (from.empty()) {
    return Status::InvalidArgument("FROM clause is empty");
  }
  for (const TableRef& ref : from) {
    std::string name = ToLower(ref.table);
    const TempTable* temp = nullptr;
    if (ctx_.transition != nullptr) temp = ctx_.transition->Find(name);
    if (temp == nullptr && ctx_.bound != nullptr) {
      temp = ctx_.bound->Find(name);
    }
    if (temp != nullptr) {
      inputs.Add(ref.EffectiveName(), nullptr, temp);
      Trace(StrFormat("source %s: temp table (%zu rows)",
                      ref.EffectiveName().c_str(), temp->size()));
      continue;
    }
    if (ctx_.catalog != nullptr) {
      Table* table = ctx_.catalog->FindTable(name);
      if (table != nullptr) {
        STRIP_RETURN_IF_ERROR(LockTable(table, LockMode::kShared));
        inputs.Add(ref.EffectiveName(), table, nullptr);
        Trace(StrFormat("source %s: table (%zu rows)",
                        ref.EffectiveName().c_str(), table->size()));
        continue;
      }
    }
    return Status::NotFound(StrFormat("no table '%s'", name.c_str()));
  }
  return inputs;
}

Status SqlExecutor::LockTable(Table* table, LockMode mode) {
  if (ctx_.locks == nullptr || ctx_.txn == nullptr) return Status::OK();
  return ctx_.locks->Acquire(ctx_.txn, LockKey::WholeTable(table), mode);
}

Result<Value> SqlExecutor::Eval(const Expr& expr, const InputSet& inputs,
                                const JoinRow& row) {
  const CompiledExpr* prog = nullptr;
  if (ctx_.precompiled != nullptr) {
    auto it = ctx_.precompiled->find(&expr);
    if (it != ctx_.precompiled->end()) prog = &it->second;
  }
  if (prog == nullptr) {
    auto it = compiled_.find(&expr);
    if (it == compiled_.end()) {
      it = compiled_
               .emplace(&expr, CompiledExpr::Compile(expr, inputs, ctx_.pseudo,
                                                     ctx_.funcs))
               .first;
    }
    prog = &it->second;
  }
  frame_.row = &row;
  frame_.rec = nullptr;
  frame_.params = ctx_.params;
  frame_.pseudo = ctx_.pseudo;
  return prog->Eval(frame_);
}

Status SqlExecutor::ScanInput(
    const InputSet& inputs, int input, const std::vector<const Expr*>& filters,
    const std::function<Status(const ScanItem&)>& emit) {
  const BoundInput& in = inputs.inputs()[static_cast<size_t>(input)];

  // Probe for an indexable `col = const` filter on a standard table.
  const Index* index = nullptr;
  Value index_key;
  if (in.table != nullptr) {
    for (const Expr* f : filters) {
      if (f->kind != ExprKind::kBinary || f->bin_op != BinaryOp::kEq) continue;
      for (int side = 0; side < 2 && index == nullptr; ++side) {
        const Expr& col_side = *f->args[static_cast<size_t>(side)];
        const Expr& const_side = *f->args[static_cast<size_t>(1 - side)];
        if (col_side.kind != ExprKind::kColumnRef) continue;
        auto acc = inputs.Resolve(col_side.qualifier, col_side.column);
        if (!acc.ok() || acc->input != input) continue;
        if (!IsConstantExpr(const_side, inputs, ctx_.pseudo)) continue;
        Index* idx = in.table->FindIndexByPosition(acc->column);
        if (idx == nullptr) continue;
        JoinRow empty;  // constant side references no inputs
        empty.slots.resize(static_cast<size_t>(inputs.num_slots()));
        empty.extras.resize(static_cast<size_t>(inputs.num_extras()));
        STRIP_ASSIGN_OR_RETURN(index_key, Eval(const_side, inputs, empty));
        index = idx;
      }
      if (index != nullptr) break;
    }
  }

  JoinRow probe;
  probe.slots.resize(static_cast<size_t>(inputs.num_slots()));
  probe.extras.resize(static_cast<size_t>(inputs.num_extras()));

  auto passes = [&](const ScanItem& item) -> Result<bool> {
    if (item.rec != nullptr) {
      inputs.FillFromStandard(probe, input, item.rec);
    } else {
      inputs.FillFromTemp(probe, input, *item.tuple);
    }
    for (const Expr* f : filters) {
      STRIP_ASSIGN_OR_RETURN(Value v, Eval(*f, inputs, probe));
      if (!v.IsTruthy()) return false;
    }
    return true;
  };

  if (index != nullptr) {
    Trace(StrFormat("scan %s: index probe %s = %s", in.name.c_str(),
                    in.table->schema().column(index->column()).name.c_str(),
                    index_key.ToString().c_str()));
    std::vector<RowHandle> rows;
    index->Lookup(index_key, rows);
    for (RowHandle r : rows) {
      ScanItem item;
      item.rec = r->rec;
      STRIP_ASSIGN_OR_RETURN(bool ok, passes(item));
      if (ok) STRIP_RETURN_IF_ERROR(emit(item));
    }
    return Status::OK();
  }

  if (in.table != nullptr) {
    // Batched full scan: gather a ScanBatch of live-slot handles per page
    // walk, then run the filter loop tight over the batch so compiled
    // expression programs read contiguous slots instead of chasing nodes.
    PageManager::ScanPos pos;
    ScanBatch batch;
    while (in.table->NextBatch(pos, batch)) {
      if (ctx_.rows_scanned != nullptr) *ctx_.rows_scanned += batch.count;
      for (size_t i = 0; i < batch.count; ++i) {
        ScanItem item;
        item.rec = batch.rows[i]->rec;
        STRIP_ASSIGN_OR_RETURN(bool ok, passes(item));
        if (ok) STRIP_RETURN_IF_ERROR(emit(item));
      }
    }
    return Status::OK();
  }

  for (const TempTuple& t : in.temp->tuples()) {
    ScanItem item;
    item.tuple = &t;
    STRIP_ASSIGN_OR_RETURN(bool ok, passes(item));
    if (ok) STRIP_RETURN_IF_ERROR(emit(item));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Join pipeline
// ---------------------------------------------------------------------------

Result<std::vector<JoinRow>> SqlExecutor::RunJoin(
    const InputSet& inputs, const std::vector<Conjunct>& conjuncts) {
  const int n = static_cast<int>(inputs.inputs().size());

  // Partition conjuncts: per-input filters, equi-joins, residual.
  std::vector<std::vector<const Expr*>> input_filters(
      static_cast<size_t>(n));
  std::vector<const Conjunct*> joins;     // multi-input
  for (const Conjunct& c : conjuncts) {
    if (c.referenced.size() <= 1) {
      int target = c.referenced.empty() ? 0 : c.referenced[0];
      input_filters[static_cast<size_t>(target)].push_back(c.expr);
    } else {
      joins.push_back(&c);
    }
  }

  // Effective input size: tiny when an indexed equality pins the scan.
  auto effective_size = [&](int i) -> size_t {
    const BoundInput& in = inputs.inputs()[static_cast<size_t>(i)];
    size_t sz = in.EstimatedRows();
    if (in.table != nullptr) {
      for (const Expr* f : input_filters[static_cast<size_t>(i)]) {
        if (f->kind == ExprKind::kBinary && f->bin_op == BinaryOp::kEq) {
          for (int side = 0; side < 2; ++side) {
            const Expr& cs = *f->args[static_cast<size_t>(side)];
            if (cs.kind != ExprKind::kColumnRef) continue;
            auto acc = inputs.Resolve(cs.qualifier, cs.column);
            if (acc.ok() && acc->input == i &&
                in.table->FindIndexByPosition(acc->column) != nullptr) {
              return 1;
            }
          }
        }
      }
    }
    return sz;
  };

  // Pick the starting input: the smallest.
  std::vector<bool> joined(static_cast<size_t>(n), false);
  int first = 0;
  for (int i = 1; i < n; ++i) {
    if (effective_size(i) < effective_size(first)) first = i;
  }

  Trace(StrFormat("start with %s",
                  inputs.inputs()[static_cast<size_t>(first)].name.c_str()));
  std::vector<JoinRow> current;
  {
    JoinRow proto;
    proto.slots.resize(static_cast<size_t>(inputs.num_slots()));
    proto.extras.resize(static_cast<size_t>(inputs.num_extras()));
    STRIP_RETURN_IF_ERROR(ScanInput(
        inputs, first, input_filters[static_cast<size_t>(first)],
        [&](const ScanItem& item) {
          JoinRow row = proto;
          if (item.rec != nullptr) {
            inputs.FillFromStandard(row, first, item.rec);
          } else {
            inputs.FillFromTemp(row, first, *item.tuple);
          }
          current.push_back(std::move(row));
          return Status::OK();
        }));
  }
  joined[static_cast<size_t>(first)] = true;

  auto all_joined = [&](const std::vector<int>& refs) {
    for (int r : refs) {
      if (!joined[static_cast<size_t>(r)]) return false;
    }
    return true;
  };

  std::vector<bool> join_applied(joins.size(), false);

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
      for (const Conjunct* j : joins) {
        if (!j->equi_join) continue;
        int other = -1;
        if (j->lhs_input == i) other = j->rhs_input;
        if (j->rhs_input == i) other = j->lhs_input;
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

    // Collect the usable equi-join keys for `next`.
    std::vector<const Expr*> next_keys;    // side referencing `next`
    std::vector<const Expr*> other_keys;   // side referencing joined inputs
    std::vector<size_t> used_joins;
    for (size_t ji = 0; ji < joins.size(); ++ji) {
      const Conjunct* j = joins[ji];
      if (!j->equi_join || join_applied[ji]) continue;
      const Expr* mine = nullptr;
      const Expr* theirs = nullptr;
      int other_input = -1;
      if (j->lhs_input == next) {
        mine = j->lhs;
        theirs = j->rhs;
        other_input = j->rhs_input;
      } else if (j->rhs_input == next) {
        mine = j->rhs;
        theirs = j->lhs;
        other_input = j->lhs_input;
      } else {
        continue;
      }
      if (!joined[static_cast<size_t>(other_input)]) continue;
      next_keys.push_back(mine);
      other_keys.push_back(theirs);
      used_joins.push_back(ji);
    }

    std::vector<JoinRow> merged;

    // Index-nested-loop: single equality whose `next` side is a bare
    // indexed column of a standard table.
    const BoundInput& nin = inputs.inputs()[static_cast<size_t>(next)];
    Index* index = nullptr;
    int index_key_pos = -1;
    size_t index_join_slot = 0;
    if (nin.table != nullptr && !next_keys.empty()) {
      for (size_t k = 0; k < next_keys.size(); ++k) {
        const Expr* mine = next_keys[k];
        if (mine->kind != ExprKind::kColumnRef) continue;
        auto acc = inputs.Resolve(mine->qualifier, mine->column);
        if (!acc.ok() || acc->input != next) continue;
        Index* idx = nin.table->FindIndexByPosition(acc->column);
        if (idx != nullptr) {
          index = idx;
          index_key_pos = acc->column;
          index_join_slot = k;
          break;
        }
      }
    }

    const auto& filters = input_filters[static_cast<size_t>(next)];

    auto emit_if_match = [&](JoinRow& base, const ScanItem& item)
        -> Status {
      JoinRow row = base;
      if (item.rec != nullptr) {
        inputs.FillFromStandard(row, next, item.rec);
      } else {
        inputs.FillFromTemp(row, next, *item.tuple);
      }
      // Remaining equality keys + next's filters.
      for (size_t k = 0; k < next_keys.size(); ++k) {
        if (index != nullptr && k == index_join_slot) continue;
        STRIP_ASSIGN_OR_RETURN(Value a, Eval(*next_keys[k], inputs, row));
        STRIP_ASSIGN_OR_RETURN(Value b, Eval(*other_keys[k], inputs, row));
        if (a.is_null() || b.is_null() || a != b) return Status::OK();
      }
      merged.push_back(std::move(row));
      return Status::OK();
    };

    if (index != nullptr) {
      (void)index_key_pos;
      Trace(StrFormat("index-nested-loop join %s (index on %s)",
                      nin.name.c_str(),
                      nin.table->schema()
                          .column(index_key_pos)
                          .name.c_str()));
      std::vector<RowHandle> rows;  // reused across probes (Lookup appends)
      for (JoinRow& base : current) {
        STRIP_ASSIGN_OR_RETURN(Value key,
                               Eval(*other_keys[index_join_slot], inputs,
                                    base));
        if (key.is_null()) continue;
        rows.clear();
        index->Lookup(key, rows);
        for (RowHandle r : rows) {
          // Apply next's pushed-down filters on the candidate first.
          JoinRow probe = base;
          inputs.FillFromStandard(probe, next, r->rec);
          bool pass = true;
          for (const Expr* f : filters) {
            STRIP_ASSIGN_OR_RETURN(Value v, Eval(*f, inputs, probe));
            if (!v.IsTruthy()) {
              pass = false;
              break;
            }
          }
          if (!pass) continue;
          ScanItem item;
          item.rec = r->rec;
          STRIP_RETURN_IF_ERROR(emit_if_match(base, item));
        }
      }
    } else if (!next_keys.empty()) {
      // Hash join: build on `next`, probe with current rows.
      Trace(StrFormat("hash join %s (%zu equi key%s)", nin.name.c_str(),
                      next_keys.size(), next_keys.size() == 1 ? "" : "s"));
      std::unordered_map<std::vector<Value>, std::vector<ScanItem>,
                         ValueVectorHash, ValueVectorEq>
          build;
      JoinRow probe;
      probe.slots.resize(static_cast<size_t>(inputs.num_slots()));
      probe.extras.resize(static_cast<size_t>(inputs.num_extras()));
      STRIP_RETURN_IF_ERROR(ScanInput(
          inputs, next, filters, [&](const ScanItem& item) -> Status {
            if (item.rec != nullptr) {
              inputs.FillFromStandard(probe, next, item.rec);
            } else {
              inputs.FillFromTemp(probe, next, *item.tuple);
            }
            std::vector<Value> key;
            key.reserve(next_keys.size());
            for (const Expr* e : next_keys) {
              STRIP_ASSIGN_OR_RETURN(Value v, Eval(*e, inputs, probe));
              key.push_back(std::move(v));
            }
            build[std::move(key)].push_back(item);
            return Status::OK();
          }));
      for (JoinRow& base : current) {
        std::vector<Value> key;
        key.reserve(other_keys.size());
        bool null_key = false;
        for (const Expr* e : other_keys) {
          STRIP_ASSIGN_OR_RETURN(Value v, Eval(*e, inputs, base));
          if (v.is_null()) {
            null_key = true;
            break;
          }
          key.push_back(std::move(v));
        }
        if (null_key) continue;
        auto it = build.find(key);
        if (it == build.end()) continue;
        for (const ScanItem& item : it->second) {
          JoinRow row = base;
          if (item.rec != nullptr) {
            inputs.FillFromStandard(row, next, item.rec);
          } else {
            inputs.FillFromTemp(row, next, *item.tuple);
          }
          merged.push_back(std::move(row));
        }
      }
    } else {
      // Cross / nested-loop join.
      Trace(StrFormat("nested-loop join %s", nin.name.c_str()));
      std::vector<ScanItem> items;
      STRIP_RETURN_IF_ERROR(
          ScanInput(inputs, next, filters, [&](const ScanItem& item) {
            items.push_back(item);
            return Status::OK();
          }));
      for (JoinRow& base : current) {
        for (const ScanItem& item : items) {
          STRIP_RETURN_IF_ERROR(emit_if_match(base, item));
        }
      }
    }

    for (size_t ji : used_joins) join_applied[ji] = true;
    joined[static_cast<size_t>(next)] = true;
    current = std::move(merged);

    // Apply any residual conjunct that just became fully bound.
    for (size_t ji = 0; ji < joins.size(); ++ji) {
      if (join_applied[ji]) continue;
      const Conjunct* j = joins[ji];
      if (!all_joined(j->referenced)) continue;
      std::vector<JoinRow> kept;
      kept.reserve(current.size());
      for (JoinRow& row : current) {
        STRIP_ASSIGN_OR_RETURN(Value v, Eval(*j->expr, inputs, row));
        if (v.IsTruthy()) kept.push_back(std::move(row));
      }
      current = std::move(kept);
      join_applied[ji] = true;
    }
  }

  return current;
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

Result<TempTable> SqlExecutor::ExecuteSelect(const SelectStmt& stmt,
                                             const std::string& output_name) {
  STRIP_ASSIGN_OR_RETURN(InputSet inputs, BindFrom(stmt.from));
  STRIP_ASSIGN_OR_RETURN(
      std::vector<Conjunct> conjuncts,
      ClassifyConjuncts(stmt.where.get(), inputs, ctx_.pseudo));
  return ExecuteSelectBound(stmt, inputs, conjuncts, output_name);
}

Result<TempTable> SqlExecutor::ExecuteSelectBound(
    const SelectStmt& stmt, const InputSet& inputs,
    const std::vector<Conjunct>& conjuncts, const std::string& output_name) {
  // Programs cached in earlier executions carry slot positions for a
  // different InputSet; drop them before touching this one.
  compiled_.clear();

  // Locks are per-execution, never part of a frozen plan: re-acquire shared
  // locks on every standard input (a no-op when BindFrom just did).
  for (const BoundInput& in : inputs.inputs()) {
    if (in.table != nullptr) {
      STRIP_RETURN_IF_ERROR(LockTable(in.table, LockMode::kShared));
    }
  }

  STRIP_ASSIGN_OR_RETURN(std::vector<JoinRow> rows,
                         RunJoin(inputs, conjuncts));

  // Expand the select list (star -> every column of every input).
  std::vector<SelectItem> expanded;
  const std::vector<SelectItem>* items = &stmt.items;
  if (stmt.star) {
    for (const BoundInput& in : inputs.inputs()) {
      for (int c = 0; c < in.schema().num_columns(); ++c) {
        SelectItem item;
        item.expr = MakeColumnRef(in.name, in.schema().column(c).name);
        item.alias = in.schema().column(c).name;
        expanded.push_back(std::move(item));
      }
    }
    items = &expanded;
  }
  if (items->empty()) {
    return Status::InvalidArgument("empty select list");
  }

  // Bind-time validation: every column reference in the select list,
  // group-by, and order-by must resolve (or be a pseudo column), even when
  // the inputs are empty.
  {
    std::vector<int> refs;
    for (const SelectItem& item : *items) {
      STRIP_RETURN_IF_ERROR(
          CollectReferencedInputs(*item.expr, inputs, ctx_.pseudo, refs));
    }
    for (const auto& g : stmt.group_by) {
      STRIP_RETURN_IF_ERROR(
          CollectReferencedInputs(*g, inputs, ctx_.pseudo, refs));
    }
    for (const auto& ob : stmt.order_by) {
      // An order-by may also name an output column.
      if (ob.expr->kind == ExprKind::kColumnRef &&
          ob.expr->qualifier.empty()) {
        bool is_output = false;
        for (size_t i = 0; i < items->size(); ++i) {
          if ((*items)[i].OutputName(static_cast<int>(i)) ==
              ob.expr->column) {
            is_output = true;
            break;
          }
        }
        if (is_output) continue;
      }
      STRIP_RETURN_IF_ERROR(
          CollectReferencedInputs(*ob.expr, inputs, ctx_.pseudo, refs));
    }
  }

  bool has_aggregates = !stmt.group_by.empty();
  for (const SelectItem& item : *items) {
    if (item.expr->ContainsAggregate()) has_aggregates = true;
  }
  if (stmt.having != nullptr) {
    if (stmt.having->ContainsAggregate()) has_aggregates = true;
    if (!has_aggregates) {
      return Status::InvalidArgument("HAVING requires aggregation");
    }
    std::vector<int> refs;
    STRIP_RETURN_IF_ERROR(
        CollectReferencedInputs(*stmt.having, inputs, ctx_.pseudo, refs));
  }

  // Output schema.
  Schema out_schema;
  for (size_t i = 0; i < items->size(); ++i) {
    out_schema.AddColumn((*items)[i].OutputName(static_cast<int>(i)),
                         InferExprType(*(*items)[i].expr, inputs));
  }

  std::vector<std::vector<Value>> out_rows;       // aggregate path
  std::vector<size_t> row_order;                  // non-agg: index into rows
  TempTable result = TempTable::Materialized(output_name, out_schema);

  if (has_aggregates) {
    Trace(StrFormat("hash aggregate: %zu group key(s)%s",
                    stmt.group_by.size(),
                    stmt.having != nullptr ? ", having filter" : ""));
    // ---- hash aggregation ----
    std::vector<const Expr*> agg_nodes;
    for (const SelectItem& item : *items) {
      CollectAggregates(*item.expr, agg_nodes);
    }
    for (const auto& ob : stmt.order_by) {
      CollectAggregates(*ob.expr, agg_nodes);
    }
    if (stmt.having != nullptr) CollectAggregates(*stmt.having, agg_nodes);
    struct Group {
      size_t representative;
      std::vector<AggState> states;
    };
    std::unordered_map<std::vector<Value>, Group, ValueVectorHash,
                       ValueVectorEq>
        groups;
    for (size_t r = 0; r < rows.size(); ++r) {
      std::vector<Value> key;
      key.reserve(stmt.group_by.size());
      for (const auto& g : stmt.group_by) {
        STRIP_ASSIGN_OR_RETURN(Value v, Eval(*g, inputs, rows[r]));
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
          STRIP_ASSIGN_OR_RETURN(v, Eval(*agg.args[0], inputs, rows[r]));
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
    const JoinRow no_row;
    auto produce = [&](const Group& group) -> Status {
      for (size_t a = 0; a < agg_nodes.size(); ++a) {
        agg_values[agg_nodes[a]] = group.states[a].Finalize(*agg_nodes[a]);
      }
      frame_.null_columns = group.representative == SIZE_MAX;
      const JoinRow& row =
          frame_.null_columns ? no_row : rows[group.representative];
      if (stmt.having != nullptr) {
        STRIP_ASSIGN_OR_RETURN(Value keep, Eval(*stmt.having, inputs, row));
        if (!keep.IsTruthy()) return Status::OK();
      }
      OutRow out;
      out.values.reserve(items->size());
      for (const SelectItem& item : *items) {
        STRIP_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, inputs, row));
        out.values.push_back(std::move(v));
      }
      for (const auto& ob : stmt.order_by) {
        // Order keys: output column name, else expression over the group.
        if (ob.expr->kind == ExprKind::kColumnRef &&
            ob.expr->qualifier.empty() &&
            out_schema.FindColumn(ob.expr->column) >= 0) {
          out.sort_keys.push_back(
              out.values[static_cast<size_t>(
                  out_schema.FindColumn(ob.expr->column))]);
        } else {
          STRIP_ASSIGN_OR_RETURN(Value v, Eval(*ob.expr, inputs, row));
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
      Trace(StrFormat("sort %zu group row(s)", produced.size()));
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
  // Classify output columns: bare standard-table column refs stay
  // pointer-backed; everything else is materialized.
  struct OutCol {
    bool pointer = false;
    int input = -1;        // for pointer columns
    int column = -1;
    const Expr* expr = nullptr;
  };
  std::vector<OutCol> out_cols;
  std::vector<int> used_slot_of_input(inputs.inputs().size(), -1);
  int num_out_slots = 0;
  int num_out_extra = 0;
  std::vector<TempColumnMap> layout;
  for (const SelectItem& item : *items) {
    OutCol oc;
    oc.expr = item.expr.get();
    if (item.expr->kind == ExprKind::kColumnRef) {
      auto acc = inputs.Resolve(item.expr->qualifier, item.expr->column);
      if (acc.ok() &&
          !inputs.inputs()[static_cast<size_t>(acc->input)].is_temp()) {
        oc.pointer = true;
        oc.input = acc->input;
        oc.column = acc->column;
        int& slot = used_slot_of_input[static_cast<size_t>(acc->input)];
        if (slot < 0) slot = num_out_slots++;
        layout.push_back(TempColumnMap{slot, acc->column});
        out_cols.push_back(oc);
        continue;
      }
    }
    layout.push_back(
        TempColumnMap{TempColumnMap::kMaterializedSlot, num_out_extra++});
    out_cols.push_back(oc);
  }
  result = TempTable(output_name, out_schema, std::move(layout),
                     num_out_slots, num_out_extra);

  // Sort order for non-aggregate queries: evaluate order keys per join row.
  row_order.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) row_order[i] = i;
  if (!stmt.order_by.empty()) {
    Trace(StrFormat("sort %zu row(s)", rows.size()));
    // Resolve each order key: an unqualified name that does not resolve in
    // the inputs but matches an output column orders by that output
    // expression.
    std::vector<const Expr*> key_exprs;
    for (const auto& ob : stmt.order_by) {
      const Expr* e = ob.expr.get();
      if (e->kind == ExprKind::kColumnRef && e->qualifier.empty() &&
          !inputs.Resolve("", e->column).ok()) {
        for (size_t i = 0; i < items->size(); ++i) {
          if ((*items)[i].OutputName(static_cast<int>(i)) == e->column) {
            e = (*items)[i].expr.get();
            break;
          }
        }
      }
      key_exprs.push_back(e);
    }
    std::vector<std::vector<Value>> keys(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      keys[i].reserve(stmt.order_by.size());
      for (const Expr* ke : key_exprs) {
        STRIP_ASSIGN_OR_RETURN(Value v, Eval(*ke, inputs, rows[i]));
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
  for (size_t ri : row_order) {
    if (stmt.limit >= 0 &&
        static_cast<int64_t>(result.size()) >= stmt.limit) {
      break;
    }
    const JoinRow& row = rows[ri];
    TempTuple t;
    t.slots.resize(static_cast<size_t>(num_out_slots));
    t.extra.resize(static_cast<size_t>(num_out_extra));
    int extra_i = 0;
    for (const OutCol& oc : out_cols) {
      if (oc.pointer) {
        const BoundInput& in = inputs.inputs()[static_cast<size_t>(oc.input)];
        int slot = used_slot_of_input[static_cast<size_t>(oc.input)];
        t.slots[static_cast<size_t>(slot)] =
            row.slots[static_cast<size_t>(in.slot)];
      } else {
        STRIP_ASSIGN_OR_RETURN(Value v, Eval(*oc.expr, inputs, row));
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
