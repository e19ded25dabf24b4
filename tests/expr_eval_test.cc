// Unit tests for expression evaluation through compiled programs:
// arithmetic, null propagation, comparisons, logic, scalar functions,
// parameters, and the deferred (execution-time) compile errors.

#include <gtest/gtest.h>

#include "strip/sql/compiled_expr.h"
#include "strip/sql/parser.h"
#include "tests/test_util.h"

namespace strip {
namespace {

/// Expressions compile in single-table mode against one record of table
/// `t` (x = 4, y = 2.5, s = 'hi', n = null, z = 9).
class ExprEvalTest : public ::testing::Test {
 protected:
  ExprEvalTest()
      : funcs_(ScalarFuncRegistry::WithBuiltins()),
        rec_(MakeRecord({Value::Int(4), Value::Double(2.5), Value::Str("hi"),
                         Value::Null(), Value::Int(9)})) {
    schema_.AddColumn("x", ValueType::kInt);
    schema_.AddColumn("y", ValueType::kDouble);
    schema_.AddColumn("s", ValueType::kString);
    schema_.AddColumn("n", ValueType::kDouble);
    schema_.AddColumn("z", ValueType::kInt);
  }

  Result<Value> Run(const std::string& text,
                    const std::vector<Value>* params) {
    auto e = Parser::ParseExpression(text);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    if (!e.ok()) return e.status();
    CompiledExpr prog =
        CompiledExpr::CompileSingleTable(**e, "t", schema_, nullptr, &funcs_);
    EvalFrame frame;
    frame.rec = rec_.get();
    frame.params = params;
    return prog.Eval(frame);
  }

  Value Eval(const std::string& text,
             const std::vector<Value>* params = nullptr) {
    auto v = Run(text, params);
    EXPECT_TRUE(v.ok()) << text << " -> " << v.status().ToString();
    return v.ok() ? *v : Value::Null();
  }

  Status EvalError(const std::string& text) {
    return Run(text, nullptr).status();
  }

  ScalarFuncRegistry funcs_;
  Schema schema_;
  RecordRef rec_;
};

TEST_F(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(Eval("1 + 2 * 3"), Value::Int(7));
  EXPECT_EQ(Eval("x - 1"), Value::Int(3));
  EXPECT_DOUBLE_EQ(Eval("x * y").as_double(), 10.0);
  EXPECT_DOUBLE_EQ(Eval("x / 2").as_double(), 2.0);  // div is always double
  EXPECT_EQ(Eval("x / 2").type(), ValueType::kDouble);
  EXPECT_EQ(Eval("-x"), Value::Int(-4));
  EXPECT_DOUBLE_EQ(Eval("-(y)").as_double(), -2.5);
}

TEST_F(ExprEvalTest, StringConcatenationViaPlus) {
  EXPECT_EQ(Eval("s + s"), Value::Str("hihi"));
}

TEST_F(ExprEvalTest, DivisionByZeroIsError) {
  EXPECT_EQ(EvalError("1 / 0").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(EvalError("1 / 0.0").code(), StatusCode::kInvalidArgument);
}

TEST_F(ExprEvalTest, NullPropagation) {
  EXPECT_TRUE(Eval("n + 1").is_null());
  EXPECT_TRUE(Eval("n = 1").is_null());
  EXPECT_TRUE(Eval("-n").is_null());
  // Null is falsey under two-valued logic.
  EXPECT_EQ(Eval("n and 1"), Value::Int(0));
  EXPECT_EQ(Eval("n or 1"), Value::Int(1));
  EXPECT_EQ(Eval("not n"), Value::Int(1));
}

TEST_F(ExprEvalTest, Comparisons) {
  EXPECT_EQ(Eval("x = 4"), Value::Int(1));
  EXPECT_EQ(Eval("x != 4"), Value::Int(0));
  EXPECT_EQ(Eval("x < y"), Value::Int(0));
  EXPECT_EQ(Eval("y <= 2.5"), Value::Int(1));
  EXPECT_EQ(Eval("s = 'hi'"), Value::Int(1));
  EXPECT_EQ(Eval("s < 'hz'"), Value::Int(1));
  // Numeric-string comparison is an error, not silently false.
  EXPECT_EQ(EvalError("x = s").code(), StatusCode::kInvalidArgument);
}

TEST_F(ExprEvalTest, ShortCircuit) {
  // The right side would divide by zero; AND must not evaluate it.
  EXPECT_EQ(Eval("0 and (1 / 0)"), Value::Int(0));
  EXPECT_EQ(Eval("1 or (1 / 0)"), Value::Int(1));
}

TEST_F(ExprEvalTest, QualifiedColumns) {
  EXPECT_EQ(Eval("t.z + 1"), Value::Int(10));
  EXPECT_EQ(EvalError("t.nope").code(), StatusCode::kNotFound);
}

TEST_F(ExprEvalTest, BuiltinFunctions) {
  EXPECT_DOUBLE_EQ(Eval("sqrt(16)").as_double(), 4.0);
  EXPECT_DOUBLE_EQ(Eval("exp(0)").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(Eval("ln(exp(1))").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(Eval("pow(2, 10)").as_double(), 1024.0);
  EXPECT_DOUBLE_EQ(Eval("floor(2.7)").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(Eval("ceil(2.2)").as_double(), 3.0);
  EXPECT_EQ(Eval("abs(-3)"), Value::Int(3));
  EXPECT_DOUBLE_EQ(Eval("abs(-3.5)").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(Eval("normcdf(0)").as_double(), 0.5);
  EXPECT_NEAR(Eval("normcdf(100)").as_double(), 1.0, 1e-12);
  EXPECT_EQ(Eval("least(3, 1, 2)"), Value::Int(1));
  EXPECT_EQ(Eval("greatest(3, 1, 2)"), Value::Int(3));
  EXPECT_TRUE(Eval("sqrt(n)").is_null());
}

TEST_F(ExprEvalTest, FunctionErrors) {
  EXPECT_EQ(EvalError("nosuchfn(1)").code(), StatusCode::kNotFound);
  EXPECT_EQ(EvalError("sqrt(1, 2)").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(EvalError("sqrt('x')").code(), StatusCode::kInvalidArgument);
}

TEST_F(ExprEvalTest, Parameters) {
  std::vector<Value> params = {Value::Int(10), Value::Str("a")};
  EXPECT_EQ(Eval("? + 1", &params), Value::Int(11));
  EXPECT_EQ(EvalError("?").code(), StatusCode::kInvalidArgument);  // unbound
}

TEST_F(ExprEvalTest, AggregateOutsideSelectIsError) {
  EXPECT_EQ(EvalError("sum(x)").code(), StatusCode::kInvalidArgument);
}

TEST_F(ExprEvalTest, CompileErrorsSurfaceOnlyWhenExecuted) {
  // Unknown columns and functions compile; their error is reported only if
  // evaluation reaches them.
  EXPECT_EQ(EvalError("bogus = 1").code(), StatusCode::kNotFound);
  EXPECT_EQ(Eval("0 and bogus = 1"), Value::Int(0));
  EXPECT_EQ(Eval("1 or nosuchfn(1)"), Value::Int(1));
  EXPECT_EQ(EvalError("x + nosuchfn(1)").code(), StatusCode::kNotFound);
}

TEST_F(ExprEvalTest, ConstantModeRejectsColumnsLazily) {
  auto e = Parser::ParseExpression("1 or x");
  ASSERT_TRUE(e.ok());
  CompiledExpr prog = CompiledExpr::CompileConstant(**e, &funcs_);
  EvalFrame frame;
  ASSERT_OK_AND_ASSIGN(Value v, prog.Eval(frame));
  EXPECT_EQ(v, Value::Int(1));
  e = Parser::ParseExpression("x + 1");
  ASSERT_TRUE(e.ok());
  prog = CompiledExpr::CompileConstant(**e, &funcs_);
  EXPECT_EQ(prog.Eval(frame).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExprEvalTest, AggregateReadsGroupValueAndNullColumns) {
  auto e = Parser::ParseExpression("max(x) + 1");
  ASSERT_TRUE(e.ok());
  CompiledExpr prog =
      CompiledExpr::CompileSingleTable(**e, "t", schema_, nullptr, &funcs_);
  AggregateValues aggs = {{(*e)->args[0].get(), Value::Int(41)}};
  EvalFrame frame;
  frame.rec = rec_.get();
  frame.aggregates = &aggs;
  ASSERT_OK_AND_ASSIGN(Value v, prog.Eval(frame));
  EXPECT_EQ(v, Value::Int(42));
  // In the empty global group every column reads NULL.
  e = Parser::ParseExpression("x");
  ASSERT_TRUE(e.ok());
  prog = CompiledExpr::CompileSingleTable(**e, "t", schema_, nullptr, &funcs_);
  frame.null_columns = true;
  ASSERT_OK_AND_ASSIGN(v, prog.Eval(frame));
  EXPECT_TRUE(v.is_null());
}

TEST(ScalarFuncRegistryTest, RegisterAndDuplicate) {
  ScalarFuncRegistry r;
  ASSERT_OK(r.Register("f", [](const std::vector<Value>&) -> Result<Value> {
    return Value::Int(1);
  }));
  EXPECT_NE(r.Find("F"), nullptr);
  EXPECT_EQ(r.Find("g"), nullptr);
  EXPECT_EQ(r.Register("F", [](const std::vector<Value>&) -> Result<Value> {
              return Value::Int(2);
            }).code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace strip
