#include "strip/sql/expr_eval.h"

#include <cmath>

#include "strip/common/string_util.h"

namespace strip {

namespace {

Result<Value> EvalArith(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    if (op == BinaryOp::kAdd && a.type() == ValueType::kString &&
        b.type() == ValueType::kString) {
      return Value::Str(a.as_string() + b.as_string());  // concatenation
    }
    return Status::InvalidArgument(
        StrFormat("arithmetic on non-numeric values (%s %s %s)",
                  a.ToString().c_str(), BinaryOpName(op),
                  b.ToString().c_str()));
  }
  // Division always yields double (financial workloads; avoids silent
  // truncation). Other ops preserve int when both sides are ints.
  if (op == BinaryOp::kDiv) {
    double d = b.as_double();
    if (d == 0.0) {
      return Status::InvalidArgument("division by zero");
    }
    return Value::Double(a.as_double() / d);
  }
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
    int64_t x = a.as_int(), y = b.as_int();
    switch (op) {
      case BinaryOp::kAdd: return Value::Int(x + y);
      case BinaryOp::kSub: return Value::Int(x - y);
      case BinaryOp::kMul: return Value::Int(x * y);
      default: break;
    }
  }
  double x = a.as_double(), y = b.as_double();
  switch (op) {
    case BinaryOp::kAdd: return Value::Double(x + y);
    case BinaryOp::kSub: return Value::Double(x - y);
    case BinaryOp::kMul: return Value::Double(x * y);
    default: break;
  }
  return Status::Internal("unexpected arithmetic operator");
}

Result<Value> EvalCompare(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.is_numeric() != b.is_numeric()) {
    return Status::InvalidArgument(StrFormat(
        "cannot compare %s with %s", ValueTypeName(a.type()),
        ValueTypeName(b.type())));
  }
  int c = Value::Compare(a, b);
  bool r = false;
  switch (op) {
    case BinaryOp::kEq: r = c == 0; break;
    case BinaryOp::kNe: r = c != 0; break;
    case BinaryOp::kLt: r = c < 0; break;
    case BinaryOp::kLe: r = c <= 0; break;
    case BinaryOp::kGt: r = c > 0; break;
    case BinaryOp::kGe: r = c >= 0; break;
    default:
      return Status::Internal("unexpected comparison operator");
  }
  return Value::Bool(r);
}

Result<Value> Arg1Math(const std::vector<Value>& args, const char* name,
                       double (*fn)(double)) {
  if (args.size() != 1) {
    return Status::InvalidArgument(
        StrFormat("%s() takes exactly one argument", name));
  }
  if (args[0].is_null()) return Value::Null();
  if (!args[0].is_numeric()) {
    return Status::InvalidArgument(
        StrFormat("%s() requires a numeric argument", name));
  }
  return Value::Double(fn(args[0].as_double()));
}

}  // namespace

Result<Value> EvalBinaryOp(BinaryOp op, const Value& a, const Value& b) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      return EvalArith(op, a, b);
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return EvalCompare(op, a, b);
    case BinaryOp::kAnd:
      return Value::Bool(a.IsTruthy() && b.IsTruthy());
    case BinaryOp::kOr:
      return Value::Bool(a.IsTruthy() || b.IsTruthy());
  }
  return Status::Internal("unexpected binary operator");
}

Status ScalarFuncRegistry::Register(const std::string& name, ScalarFunc fn) {
  std::string key = ToLower(name);
  if (funcs_.count(key) > 0) {
    return Status::AlreadyExists(
        StrFormat("function '%s' already registered", key.c_str()));
  }
  funcs_.emplace(std::move(key), std::move(fn));
  return Status::OK();
}

const ScalarFunc* ScalarFuncRegistry::Find(const std::string& name) const {
  auto it = funcs_.find(ToLower(name));
  return it == funcs_.end() ? nullptr : &it->second;
}

ScalarFuncRegistry ScalarFuncRegistry::WithBuiltins() {
  ScalarFuncRegistry r;
  auto reg1 = [&r](const char* name, double (*fn)(double)) {
    Status st = r.Register(name, [name, fn](const std::vector<Value>& args) {
      return Arg1Math(args, name, fn);
    });
    (void)st;
  };
  reg1("sqrt", [](double x) { return std::sqrt(x); });
  reg1("exp", [](double x) { return std::exp(x); });
  reg1("ln", [](double x) { return std::log(x); });
  reg1("log", [](double x) { return std::log10(x); });
  reg1("floor", [](double x) { return std::floor(x); });
  reg1("ceil", [](double x) { return std::ceil(x); });
  reg1("erf", [](double x) { return std::erf(x); });
  // Cumulative distribution function of the standard normal, computed from
  // the C math library error function as in the paper (§4.3).
  reg1("normcdf",
       [](double x) { return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0))); });

  Status st = r.Register("abs", [](const std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 1) {
      return Status::InvalidArgument("abs() takes exactly one argument");
    }
    const Value& v = args[0];
    if (v.is_null()) return Value::Null();
    if (v.type() == ValueType::kInt) {
      return Value::Int(v.as_int() < 0 ? -v.as_int() : v.as_int());
    }
    if (v.type() == ValueType::kDouble) {
      return Value::Double(std::fabs(v.as_double()));
    }
    return Status::InvalidArgument("abs() requires a numeric argument");
  });
  st = r.Register("pow", [](const std::vector<Value>& args) -> Result<Value> {
    if (args.size() != 2) {
      return Status::InvalidArgument("pow() takes exactly two arguments");
    }
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    if (!args[0].is_numeric() || !args[1].is_numeric()) {
      return Status::InvalidArgument("pow() requires numeric arguments");
    }
    return Value::Double(std::pow(args[0].as_double(), args[1].as_double()));
  });
  auto extremum = [](const char* name, bool want_max) {
    return [name, want_max](const std::vector<Value>& args) -> Result<Value> {
      if (args.empty()) {
        return Status::InvalidArgument(
            StrFormat("%s() requires at least one argument", name));
      }
      Value best = args[0];
      for (const Value& v : args) {
        if (v.is_null()) return Value::Null();
        int c = Value::Compare(v, best);
        if (want_max ? c > 0 : c < 0) best = v;
      }
      return best;
    };
  };
  st = r.Register("least", extremum("least", false));
  st = r.Register("greatest", extremum("greatest", true));
  (void)st;
  return r;
}

}  // namespace strip
