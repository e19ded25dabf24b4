#include "strip/sql/compiled_expr.h"

#include <utility>

#include "strip/common/string_util.h"

namespace strip {

/// Emits ops for one Expr tree. Exactly one of `inputs` / `schema` is set
/// (join vs. single-table mode); both null means constant mode.
struct ExprCompiler {
  CompiledExpr* out;
  const InputSet* inputs = nullptr;
  const std::string* table_name = nullptr;
  const Schema* schema = nullptr;
  const std::map<std::string, Value>* pseudo = nullptr;
  const ScalarFuncRegistry* funcs = nullptr;

  int32_t AddLiteral(Value v) {
    out->literals_.push_back(std::move(v));
    return static_cast<int32_t>(out->literals_.size() - 1);
  }

  int32_t Emit(ExprOpCode code, int32_t a = 0, int32_t b = 0) {
    ExprOp op;
    op.code = code;
    op.a = a;
    op.b = b;
    out->ops_.push_back(op);
    return static_cast<int32_t>(out->ops_.size() - 1);
  }

  void EmitError(Status error) {
    out->errors_.push_back(std::move(error));
    Emit(ExprOpCode::kError, static_cast<int32_t>(out->errors_.size() - 1));
  }

  void EmitColumnRef(const Expr& expr) {
    if (inputs != nullptr) {
      auto acc = inputs->Resolve(expr.qualifier, expr.column);
      if (acc.ok()) {
        const BoundInput& in =
            inputs->inputs()[static_cast<size_t>(acc->input)];
        Emit(in.is_temp() ? ExprOpCode::kPushTempColumn
                          : ExprOpCode::kPushColumn,
             acc->input, acc->column);
        return;
      }
      return EmitPseudoOrError(expr, acc.status());
    }
    if (schema != nullptr) {
      if (expr.qualifier.empty() || expr.qualifier == *table_name) {
        int c = schema->FindColumn(expr.column);
        if (c >= 0) {
          Emit(ExprOpCode::kPushRecord, c);
          return;
        }
      }
      return EmitPseudoOrError(
          expr, Status::NotFound(StrFormat("unknown column '%s'",
                                           expr.column.c_str())));
    }
    EmitError(Status::InvalidArgument(StrFormat(
        "column '%s' referenced in a constant context", expr.column.c_str())));
  }

  void EmitPseudoOrError(const Expr& expr, Status resolve_error) {
    if (expr.qualifier.empty() && pseudo != nullptr &&
        pseudo->count(expr.column) > 0) {
      out->names_.push_back(expr.column);
      Emit(ExprOpCode::kPushPseudo,
           static_cast<int32_t>(out->names_.size() - 1));
      return;
    }
    EmitError(std::move(resolve_error));
  }

  void EmitExpr(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kLiteral:
        Emit(ExprOpCode::kPushLiteral, AddLiteral(expr.literal));
        return;
      case ExprKind::kParameter:
        Emit(ExprOpCode::kPushParam, expr.param_index);
        return;
      case ExprKind::kColumnRef:
        return EmitColumnRef(expr);
      case ExprKind::kBinary: {
        if (expr.bin_op == BinaryOp::kAnd || expr.bin_op == BinaryOp::kOr) {
          // lhs; JumpIf{False,True} end; rhs; ToBool; end:
          EmitExpr(*expr.args[0]);
          int32_t jump = Emit(expr.bin_op == BinaryOp::kAnd
                                  ? ExprOpCode::kJumpIfFalse
                                  : ExprOpCode::kJumpIfTrue);
          EmitExpr(*expr.args[1]);
          Emit(ExprOpCode::kToBool);
          out->ops_[static_cast<size_t>(jump)].a =
              static_cast<int32_t>(out->ops_.size());
          return;
        }
        EmitExpr(*expr.args[0]);
        EmitExpr(*expr.args[1]);
        ExprOp op;
        op.code = ExprOpCode::kBinary;
        op.bin_op = expr.bin_op;
        out->ops_.push_back(op);
        return;
      }
      case ExprKind::kUnary:
        EmitExpr(*expr.args[0]);
        Emit(expr.un_op == UnaryOp::kNot ? ExprOpCode::kNot
                                         : ExprOpCode::kNegate);
        return;
      case ExprKind::kFuncCall: {
        // The function is looked up before its arguments run.
        const ScalarFunc* fn =
            funcs != nullptr ? funcs->Find(expr.func_name) : nullptr;
        if (fn == nullptr) {
          return EmitError(
              funcs == nullptr
                  ? Status::InvalidArgument(
                        StrFormat("no function registry for call to '%s'",
                                  expr.func_name.c_str()))
                  : Status::NotFound(StrFormat("unknown function '%s'",
                                               expr.func_name.c_str())));
        }
        for (const auto& a : expr.args) EmitExpr(*a);
        out->call_funcs_.push_back(fn);
        Emit(ExprOpCode::kCall,
             static_cast<int32_t>(out->call_funcs_.size() - 1),
             static_cast<int32_t>(expr.args.size()));
        return;
      }
      case ExprKind::kAggregate:
        out->aggs_.push_back(&expr);
        Emit(ExprOpCode::kPushAggregate,
             static_cast<int32_t>(out->aggs_.size() - 1));
        return;
    }
    EmitError(Status::Internal("unexpected expression kind"));
  }
};

namespace {

CompiledExpr RunCompiler(const Expr& expr, ExprCompiler compiler) {
  CompiledExpr compiled;
  compiler.out = &compiled;
  compiler.EmitExpr(expr);
  return compiled;
}

}  // namespace

CompiledExpr CompiledExpr::Compile(const Expr& expr, const InputSet& inputs,
                                   const std::map<std::string, Value>* pseudo,
                                   const ScalarFuncRegistry* funcs) {
  ExprCompiler c;
  c.inputs = &inputs;
  c.pseudo = pseudo;
  c.funcs = funcs;
  return RunCompiler(expr, c);
}

CompiledExpr CompiledExpr::CompileSingleTable(
    const Expr& expr, const std::string& table_name, const Schema& schema,
    const std::map<std::string, Value>* pseudo,
    const ScalarFuncRegistry* funcs) {
  ExprCompiler c;
  c.table_name = &table_name;
  c.schema = &schema;
  c.pseudo = pseudo;
  c.funcs = funcs;
  return RunCompiler(expr, c);
}

CompiledExpr CompiledExpr::CompileConstant(const Expr& expr,
                                           const ScalarFuncRegistry* funcs) {
  ExprCompiler c;
  c.funcs = funcs;
  return RunCompiler(expr, c);
}

Result<Value> CompiledExpr::Eval(EvalFrame& frame) const {
  std::vector<Value>& st = frame.stack;
  st.clear();
  const size_t n = ops_.size();
  size_t pc = 0;
  while (pc < n) {
    const ExprOp& op = ops_[pc];
    switch (op.code) {
      case ExprOpCode::kPushLiteral:
        st.push_back(literals_[static_cast<size_t>(op.a)]);
        break;
      case ExprOpCode::kPushParam:
        if (frame.params == nullptr || op.a < 0 ||
            op.a >= static_cast<int32_t>(frame.params->size())) {
          return Status::InvalidArgument(
              StrFormat("unbound statement parameter ?%d", op.a + 1));
        }
        st.push_back((*frame.params)[static_cast<size_t>(op.a)]);
        break;
      case ExprOpCode::kPushColumn: {
        if (frame.null_columns) {
          st.emplace_back();
          break;
        }
        const Row* row = frame.row[op.a].row;
        if (row == nullptr) {
          return Status::Internal("compiled read of an unjoined input");
        }
        st.push_back(row->rec->values[static_cast<size_t>(op.b)]);
        break;
      }
      case ExprOpCode::kPushTempColumn: {
        if (frame.null_columns) {
          st.emplace_back();
          break;
        }
        const TempTuple* tuple = frame.row[op.a].tuple;
        if (tuple == nullptr) {
          return Status::Internal("compiled read of an unjoined input");
        }
        st.push_back(frame.temps[op.a]->Get(*tuple, op.b));
        break;
      }
      case ExprOpCode::kPushRecord:
        if (frame.null_columns) {
          st.emplace_back();
          break;
        }
        st.push_back(frame.rec->values[static_cast<size_t>(op.a)]);
        break;
      case ExprOpCode::kPushPseudo: {
        if (frame.null_columns) {
          st.emplace_back();
          break;
        }
        const std::string& name = names_[static_cast<size_t>(op.a)];
        if (frame.pseudo != nullptr) {
          auto it = frame.pseudo->find(name);
          if (it != frame.pseudo->end()) {
            st.push_back(it->second);
            break;
          }
        }
        return Status::NotFound(
            StrFormat("unknown column '%s'", name.c_str()));
      }
      case ExprOpCode::kPushAggregate: {
        const Expr* agg = aggs_[static_cast<size_t>(op.a)];
        if (frame.aggregates != nullptr) {
          auto it = frame.aggregates->find(agg);
          if (it != frame.aggregates->end()) {
            st.push_back(it->second);
            break;
          }
        }
        return Status::InvalidArgument(
            StrFormat("aggregate %s() outside of a select list",
                      agg->func_name.c_str()));
      }
      case ExprOpCode::kBinary: {
        STRIP_ASSIGN_OR_RETURN(
            Value v, EvalBinaryOp(op.bin_op, st[st.size() - 2], st.back()));
        st.pop_back();
        st.back() = std::move(v);
        break;
      }
      case ExprOpCode::kNegate: {
        Value& v = st.back();
        if (!v.is_null()) {
          if (v.type() == ValueType::kInt) {
            v = Value::Int(-v.as_int());
          } else if (v.type() == ValueType::kDouble) {
            v = Value::Double(-v.as_double());
          } else {
            return Status::InvalidArgument("negation of non-numeric value");
          }
        }
        break;
      }
      case ExprOpCode::kNot:
        st.back() = Value::Bool(!st.back().IsTruthy());
        break;
      case ExprOpCode::kCall: {
        const size_t argc = static_cast<size_t>(op.b);
        frame.call_args.clear();
        for (size_t i = st.size() - argc; i < st.size(); ++i) {
          frame.call_args.push_back(std::move(st[i]));
        }
        st.resize(st.size() - argc);
        STRIP_ASSIGN_OR_RETURN(
            Value v,
            (*call_funcs_[static_cast<size_t>(op.a)])(frame.call_args));
        st.push_back(std::move(v));
        break;
      }
      case ExprOpCode::kJumpIfFalse: {
        bool truthy = st.back().IsTruthy();
        st.pop_back();
        if (!truthy) {
          st.push_back(Value::Bool(false));
          pc = static_cast<size_t>(op.a);
          continue;
        }
        break;
      }
      case ExprOpCode::kJumpIfTrue: {
        bool truthy = st.back().IsTruthy();
        st.pop_back();
        if (truthy) {
          st.push_back(Value::Bool(true));
          pc = static_cast<size_t>(op.a);
          continue;
        }
        break;
      }
      case ExprOpCode::kToBool:
        st.back() = Value::Bool(st.back().IsTruthy());
        break;
      case ExprOpCode::kError:
        return errors_[static_cast<size_t>(op.a)];
    }
    ++pc;
  }
  return std::move(st.back());
}

}  // namespace strip
