#ifndef STRIP_SQL_EXPR_EVAL_H_
#define STRIP_SQL_EXPR_EVAL_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "strip/common/status.h"
#include "strip/sql/ast.h"
#include "strip/storage/value.h"

namespace strip {

/// A scalar SQL function: values in, value out.
using ScalarFunc =
    std::function<Result<Value>(const std::vector<Value>& args)>;

/// Named scalar functions available to expressions. A registry pre-loaded
/// with math builtins (abs, sqrt, exp, ln, log, pow, floor, ceil, erf,
/// normcdf, least, greatest) is created by Database; applications register
/// more (the program-trading example registers the Black-Scholes pricer as
/// `f_bs`, the paper's f_BS).
class ScalarFuncRegistry {
 public:
  /// Registry containing the builtin math functions.
  static ScalarFuncRegistry WithBuiltins();

  /// Registers `fn` under `name` (case-insensitive). Fails on duplicates.
  Status Register(const std::string& name, ScalarFunc fn);

  /// The function, or nullptr.
  const ScalarFunc* Find(const std::string& name) const;

 private:
  std::map<std::string, ScalarFunc> funcs_;
};

/// Evaluates a binary arithmetic / comparison / logic operation. Nulls
/// propagate through arithmetic and comparisons; AND/OR treat null as false
/// (two-valued logic — documented simplification, DESIGN.md "Differences
/// from SQLite"). Compiled programs (compiled_expr.h) call this for every
/// binary operator.
Result<Value> EvalBinaryOp(BinaryOp op, const Value& lhs, const Value& rhs);

}  // namespace strip

#endif  // STRIP_SQL_EXPR_EVAL_H_
