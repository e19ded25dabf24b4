#ifndef STRIP_SQL_COMPILED_EXPR_H_
#define STRIP_SQL_COMPILED_EXPR_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "strip/common/status.h"
#include "strip/sql/ast.h"
#include "strip/sql/expr_eval.h"
#include "strip/sql/plan.h"
#include "strip/storage/record.h"
#include "strip/storage/schema.h"

namespace strip {

/// Finalized aggregate values of one group, keyed by aggregate call node.
using AggregateValues = std::unordered_map<const Expr*, Value>;

/// Per-execution state for running compiled expression programs. One frame
/// is reused across rows (and across expressions): the stack and the call
/// scratch keep their capacity, so steady-state evaluation allocates
/// nothing.
struct EvalFrame {
  /// Join mode: the current join row (one cell per input) and, per input,
  /// the temp table bound to it (null for a standard input).
  const JoinCell* row = nullptr;
  const TempTable* const* temps = nullptr;
  const Record* rec = nullptr;    // single-table-mode programs read values
  const std::vector<Value>* params = nullptr;
  const std::map<std::string, Value>* pseudo = nullptr;
  /// The current group's aggregates; null outside a grouped select list.
  const AggregateValues* aggregates = nullptr;
  /// Every column reference reads NULL (the empty global aggregate group).
  bool null_columns = false;
  std::vector<Value> stack;
  std::vector<Value> call_args;
};

enum class ExprOpCode : uint8_t {
  kPushLiteral,    // push literals[a]
  kPushParam,      // push (*params)[a]; error when unbound
  kPushColumn,     // push row[a].row->rec->values[b]   (join mode)
  kPushTempColumn, // push temps[a]->Get(*row[a].tuple, b) (join mode)
  kPushRecord,     // push rec->values[a]               (single-table mode)
  kPushPseudo,     // push pseudo lookup of names[a]
  kPushAggregate,  // push the group's value of aggregate node aggs[a]
  kBinary,         // pop rhs, lhs; push EvalBinaryOp(bin_op, lhs, rhs)
  kNegate,         // pop v; push -v (null propagates)
  kNot,            // pop v; push Bool(!truthy)
  kCall,           // pop b args; push call_funcs[a](args)
  kJumpIfFalse,    // pop v; if !truthy: push Bool(false), jump to a
  kJumpIfTrue,     // pop v; if truthy: push Bool(true), jump to a
  kToBool,         // pop v; push Bool(truthy)
  kError,          // fail with errors[a]
};

struct ExprOp {
  ExprOpCode code = ExprOpCode::kPushLiteral;
  BinaryOp bin_op = BinaryOp::kAdd;
  int32_t a = 0;
  int32_t b = 0;
};

/// An Expr tree flattened into a postfix program over a value stack, with
/// every column reference resolved to a slot/offset at compile time —
/// evaluation performs no name hashing, no string lowering, and (after
/// frame warmup) no allocation. AND/OR short-circuit via jump opcodes (left
/// operand first, Bool result). This is the engine's only expression
/// evaluator.
///
/// Compilation never fails. A construct that cannot be resolved (unknown
/// or ambiguous column, unknown function, aggregate outside a grouped
/// select list) compiles to a kError op that reports its error only when
/// executed, so errors stay lazy: `where bogus = 1` fails on the first row
/// it is evaluated against, never on an empty table, and never behind a
/// short-circuited AND/OR operand.
class CompiledExpr {
 public:
  /// Join-row mode: columns resolve through `inputs` (inputs first, then
  /// pseudo for bare names) to a (cell, column) position.
  static CompiledExpr Compile(const Expr& expr, const InputSet& inputs,
                              const std::map<std::string, Value>* pseudo,
                              const ScalarFuncRegistry* funcs);

  /// Single-table mode: columns resolve against one record's schema
  /// (qualifier empty or == table name, then pseudo).
  static CompiledExpr CompileSingleTable(
      const Expr& expr, const std::string& table_name, const Schema& schema,
      const std::map<std::string, Value>* pseudo,
      const ScalarFuncRegistry* funcs);

  /// Constant mode (INSERT values, index probe keys): a column reference
  /// is an error. Parameters and function calls are fine.
  static CompiledExpr CompileConstant(const Expr& expr,
                                      const ScalarFuncRegistry* funcs);

  /// Runs the program against the frame's current row / record / params.
  Result<Value> Eval(EvalFrame& frame) const;

  size_t num_ops() const { return ops_.size(); }

 private:
  friend struct ExprCompiler;

  std::vector<ExprOp> ops_;
  std::vector<Value> literals_;
  std::vector<const ScalarFunc*> call_funcs_;  // stable: registry is a map
  std::vector<std::string> names_;             // pseudo-column names
  std::vector<const Expr*> aggs_;              // aggregate call nodes
  std::vector<Status> errors_;                 // deferred compile errors
};

}  // namespace strip

#endif  // STRIP_SQL_COMPILED_EXPR_H_
