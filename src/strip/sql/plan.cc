#include "strip/sql/plan.h"

#include <algorithm>

#include "strip/common/logging.h"
#include "strip/common/string_util.h"

namespace strip {

void InputSet::Add(std::string name, Table* table) {
  STRIP_CHECK(table != nullptr);
  BoundInput in;
  in.name = ToLower(name);
  in.table = table;
  inputs_.push_back(std::move(in));
}

void InputSet::AddTemp(std::string name, const Schema& schema, int source) {
  BoundInput in;
  in.name = ToLower(name);
  in.temp_schema = &schema;
  in.temp_source = source;
  inputs_.push_back(std::move(in));
}

Result<ColumnAccessor> InputSet::Resolve(const std::string& qualifier,
                                         const std::string& column) const {
  if (!qualifier.empty()) {
    for (size_t i = 0; i < inputs_.size(); ++i) {
      if (inputs_[i].name == qualifier) {
        int c = inputs_[i].schema().FindColumn(column);
        if (c < 0) {
          return Status::NotFound(StrFormat("no column '%s' in '%s'",
                                            column.c_str(),
                                            qualifier.c_str()));
        }
        return ColumnAccessor{static_cast<int>(i), c};
      }
    }
    return Status::NotFound(
        StrFormat("unknown table '%s' in column reference", qualifier.c_str()));
  }
  ColumnAccessor found;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    int c = inputs_[i].schema().FindColumn(column);
    if (c >= 0) {
      if (found.valid()) {
        return Status::InvalidArgument(
            StrFormat("ambiguous column '%s'", column.c_str()));
      }
      found = ColumnAccessor{static_cast<int>(i), c};
    }
  }
  if (!found.valid()) {
    return Status::NotFound(StrFormat("unknown column '%s'", column.c_str()));
  }
  return found;
}

bool IsColumnFree(const Expr& expr) {
  if (expr.kind == ExprKind::kColumnRef) return false;
  for (const auto& a : expr.args) {
    if (!IsColumnFree(*a)) return false;
  }
  return true;
}

void SplitConjuncts(const Expr* where, std::vector<const Expr*>& out) {
  if (where == nullptr) return;
  if (where->kind == ExprKind::kBinary && where->bin_op == BinaryOp::kAnd) {
    SplitConjuncts(where->args[0].get(), out);
    SplitConjuncts(where->args[1].get(), out);
    return;
  }
  out.push_back(where);
}

Status CollectReferencedInputs(const Expr& expr, const InputSet& inputs,
                               const std::map<std::string, Value>* pseudo,
                               std::vector<int>& out) {
  if (expr.kind == ExprKind::kColumnRef) {
    auto acc = inputs.Resolve(expr.qualifier, expr.column);
    if (!acc.ok()) {
      if (expr.qualifier.empty() && pseudo != nullptr &&
          pseudo->count(expr.column) > 0) {
        return Status::OK();  // pseudo column: no input
      }
      return acc.status();
    }
    if (std::find(out.begin(), out.end(), acc->input) == out.end()) {
      out.push_back(acc->input);
    }
    return Status::OK();
  }
  for (const auto& a : expr.args) {
    STRIP_RETURN_IF_ERROR(
        CollectReferencedInputs(*a, inputs, pseudo, out));
  }
  return Status::OK();
}

Result<std::vector<Conjunct>> ClassifyConjuncts(
    const Expr* where, const InputSet& inputs,
    const std::map<std::string, Value>* pseudo) {
  std::vector<const Expr*> raw;
  SplitConjuncts(where, raw);
  std::vector<Conjunct> out;
  out.reserve(raw.size());
  for (const Expr* e : raw) {
    Conjunct c;
    c.expr = e;
    STRIP_RETURN_IF_ERROR(
        CollectReferencedInputs(*e, inputs, pseudo, c.referenced));
    std::sort(c.referenced.begin(), c.referenced.end());
    if (e->kind == ExprKind::kBinary && e->bin_op == BinaryOp::kEq) {
      std::vector<int> l, r;
      STRIP_RETURN_IF_ERROR(
          CollectReferencedInputs(*e->args[0], inputs, pseudo, l));
      STRIP_RETURN_IF_ERROR(
          CollectReferencedInputs(*e->args[1], inputs, pseudo, r));
      if (l.size() == 1 && r.size() == 1 && l[0] != r[0]) {
        c.equi_join = true;
        c.lhs = e->args[0].get();
        c.lhs_input = l[0];
        c.rhs = e->args[1].get();
        c.rhs_input = r[0];
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace strip
