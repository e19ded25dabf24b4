// Unit tests for the planning substrate: InputSet resolution, join-cell
// access, conjunct splitting and classification.

#include <gtest/gtest.h>

#include "strip/sql/compiled_expr.h"
#include "strip/sql/parser.h"
#include "strip/sql/plan.h"
#include "strip/storage/table.h"
#include "tests/test_util.h"

namespace strip {
namespace {

Schema AB() {
  Schema s;
  s.AddColumn("a", ValueType::kInt);
  s.AddColumn("b", ValueType::kString);
  return s;
}

Schema BC() {
  Schema s;
  s.AddColumn("b", ValueType::kString);
  s.AddColumn("c", ValueType::kDouble);
  return s;
}

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() : t1_("t1", AB()), t2_("t2", BC()) {
    inputs_.Add("t1", &t1_);
    inputs_.Add("t2", &t2_);
  }

  ExprPtr Parse(const std::string& text) {
    auto e = Parser::ParseExpression(text);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return e.ok() ? e.take() : nullptr;
  }

  /// Compiles `expr` in join-row mode and runs it against `row`, with
  /// `temps[i]` bound to input i.
  static Result<Value> EvalOn(const Expr& expr, const InputSet& inputs,
                              const std::vector<JoinCell>& row,
                              const std::vector<const TempTable*>& temps,
                              const std::map<std::string, Value>* pseudo) {
    CompiledExpr prog = CompiledExpr::Compile(expr, inputs, pseudo, nullptr);
    EvalFrame frame;
    frame.row = row.data();
    frame.temps = temps.data();
    frame.pseudo = pseudo;
    return prog.Eval(frame);
  }

  Table t1_;
  Table t2_;
  InputSet inputs_;
};

TEST_F(PlanTest, QualifiedResolution) {
  ASSERT_OK_AND_ASSIGN(ColumnAccessor acc, inputs_.Resolve("t1", "a"));
  EXPECT_EQ(acc.input, 0);
  EXPECT_EQ(acc.column, 0);
  ASSERT_OK_AND_ASSIGN(acc, inputs_.Resolve("t2", "c"));
  EXPECT_EQ(acc.input, 1);
  EXPECT_EQ(acc.column, 1);
  EXPECT_EQ(inputs_.Resolve("t1", "c").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(inputs_.Resolve("zzz", "a").status().code(),
            StatusCode::kNotFound);
}

TEST_F(PlanTest, BareNameResolutionAndAmbiguity) {
  ASSERT_OK_AND_ASSIGN(ColumnAccessor acc, inputs_.Resolve("", "a"));
  EXPECT_EQ(acc.input, 0);
  // `b` exists in both inputs.
  EXPECT_EQ(inputs_.Resolve("", "b").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(inputs_.Resolve("", "zzz").status().code(),
            StatusCode::kNotFound);
}

TEST_F(PlanTest, JoinCellsReadRowsAndTempTuplesInPlace) {
  // t1 is a standard table: its cell is a table row. The temp input's
  // cell is a tuple, read through its table's column map — here one
  // pointer-backed column and one materialized column.
  Schema ts;
  ts.AddColumn("x", ValueType::kInt);
  ts.AddColumn("y", ValueType::kString);
  TempTable temp("tmp", ts,
                 {TempColumnMap{TempColumnMap::kMaterializedSlot, 0},
                  TempColumnMap{0, 1}},
                 /*num_slots=*/1, /*num_extra=*/1);
  InputSet mixed;
  mixed.Add("t1", &t1_);
  mixed.AddTemp("tmp", temp.schema(), /*source=*/0);
  EXPECT_EQ(mixed.width(), 2u);

  Row row{1, MakeRecord({Value::Int(7), Value::Str("s")})};
  TempTuple tup{{MakeRecord({Value::Int(0), Value::Str("via pointer")})},
                {Value::Int(42)}};
  std::vector<JoinCell> cells(2);
  cells[0].row = &row;
  cells[1].tuple = &tup;
  const std::vector<const TempTable*> temps = {nullptr, &temp};

  ASSERT_OK_AND_ASSIGN(Value v,
                       EvalOn(*Parse("t1.a"), mixed, cells, temps, nullptr));
  EXPECT_EQ(v, Value::Int(7));
  ASSERT_OK_AND_ASSIGN(v, EvalOn(*Parse("x"), mixed, cells, temps, nullptr));
  EXPECT_EQ(v, Value::Int(42));
  ASSERT_OK_AND_ASSIGN(v, EvalOn(*Parse("y"), mixed, cells, temps, nullptr));
  EXPECT_EQ(v, Value::Str("via pointer"));

  // A cell not yet joined is an internal error, not a crash.
  cells[1].tuple = nullptr;
  EXPECT_EQ(EvalOn(*Parse("x"), mixed, cells, temps, nullptr).status().code(),
            StatusCode::kInternal);
}

TEST_F(PlanTest, PseudoColumnsResolveAfterInputs) {
  std::map<std::string, Value> pseudo = {
      {"commit_time", Value::Int(123)},
      {"a", Value::Int(999)},  // shadowed by t1.a
  };
  Row r1{1, MakeRecord({Value::Int(1), Value::Str("x")})};
  Row r2{2, MakeRecord({Value::Str("y"), Value::Double(2)})};
  std::vector<JoinCell> row(2);
  row[0].row = &r1;
  row[1].row = &r2;
  const std::vector<const TempTable*> temps(2, nullptr);
  ASSERT_OK_AND_ASSIGN(
      Value v, EvalOn(*Parse("commit_time"), inputs_, row, temps, &pseudo));
  EXPECT_EQ(v, Value::Int(123));
  // Real columns win over pseudo columns.
  ASSERT_OK_AND_ASSIGN(v, EvalOn(*Parse("a"), inputs_, row, temps, &pseudo));
  EXPECT_EQ(v, Value::Int(1));
}

TEST_F(PlanTest, SplitConjunctsFlattensAndTree) {
  ExprPtr e = Parse("a = 1 and (c > 2 and t1.b = t2.b) and not a = 3");
  std::vector<const Expr*> out;
  SplitConjuncts(e.get(), out);
  ASSERT_EQ(out.size(), 4u);
  // ORs are not split.
  ExprPtr o = Parse("a = 1 or c = 2");
  out.clear();
  SplitConjuncts(o.get(), out);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  SplitConjuncts(nullptr, out);
  EXPECT_TRUE(out.empty());
}

TEST_F(PlanTest, ClassifyFindsEquiJoins) {
  ExprPtr e = Parse("t1.b = t2.b and a > 1 and c < 2.0 and a + c = 3");
  ASSERT_OK_AND_ASSIGN(std::vector<Conjunct> cs,
                       ClassifyConjuncts(e.get(), inputs_, nullptr));
  ASSERT_EQ(cs.size(), 4u);
  // t1.b = t2.b: an equi-join between inputs 0 and 1.
  EXPECT_TRUE(cs[0].equi_join);
  EXPECT_EQ(cs[0].referenced, (std::vector<int>{0, 1}));
  // a > 1: single-input.
  EXPECT_FALSE(cs[1].equi_join);
  EXPECT_EQ(cs[1].referenced, (std::vector<int>{0}));
  // c < 2.0: single-input on input 1.
  EXPECT_EQ(cs[2].referenced, (std::vector<int>{1}));
  // a + c = 3: references both but each side is not single-input -> not an
  // equi-join usable for hash/index joins.
  EXPECT_FALSE(cs[3].equi_join);
  EXPECT_EQ(cs[3].referenced, (std::vector<int>{0, 1}));
}

TEST_F(PlanTest, ClassifyEquiJoinOnExpressions) {
  // Expression sides still qualify when each references one input.
  ExprPtr e = Parse("a * 2 = c + 1");
  ASSERT_OK_AND_ASSIGN(std::vector<Conjunct> cs,
                       ClassifyConjuncts(e.get(), inputs_, nullptr));
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_TRUE(cs[0].equi_join);
  EXPECT_EQ(cs[0].lhs_input, 0);
  EXPECT_EQ(cs[0].rhs_input, 1);
}

TEST_F(PlanTest, ClassifyRejectsUnknownColumns) {
  ExprPtr e = Parse("nope = 1");
  EXPECT_EQ(ClassifyConjuncts(e.get(), inputs_, nullptr).status().code(),
            StatusCode::kNotFound);
  // ...unless it is a pseudo column.
  std::map<std::string, Value> pseudo = {{"nope", Value::Int(1)}};
  ASSERT_OK_AND_ASSIGN(std::vector<Conjunct> cs,
                       ClassifyConjuncts(e.get(), inputs_, &pseudo));
  EXPECT_TRUE(cs[0].referenced.empty());
}

}  // namespace
}  // namespace strip
