// Unit tests for the §6.1 temporary-table machinery: the pointer-based
// tuple layout, version retention via RecordRefs, bound-table merging.

#include <gtest/gtest.h>

#include "strip/storage/bound_table_set.h"
#include "strip/storage/table.h"
#include "strip/storage/temp_table.h"
#include "tests/test_util.h"

namespace strip {
namespace {

Schema BaseSchema() {
  Schema s;
  s.AddColumn("k", ValueType::kString);
  s.AddColumn("v", ValueType::kDouble);
  return s;
}

/// A temp table like a transition table: base columns pointer-backed
/// through slot 0 plus one materialized column.
TempTable PointerBacked(const std::string& name) {
  Schema s = BaseSchema();
  s.AddColumn("seq", ValueType::kInt);
  std::vector<TempColumnMap> map = {
      {0, 0}, {0, 1}, {TempColumnMap::kMaterializedSlot, 0}};
  return TempTable(name, std::move(s), std::move(map), 1, 1);
}

TEST(TempTableTest, PointerColumnsReadThroughRecords) {
  TempTable t = PointerBacked("t");
  RecordRef rec = MakeRecord({Value::Str("a"), Value::Double(1.5)});
  t.Append(TempTuple{{rec}, {Value::Int(7)}});
  EXPECT_EQ(t.Get(0, 0), Value::Str("a"));
  EXPECT_DOUBLE_EQ(t.Get(0, 1).as_double(), 1.5);
  EXPECT_EQ(t.Get(0, 2), Value::Int(7));
}

TEST(TempTableTest, MaterializedFactoryLayout) {
  TempTable t = TempTable::Materialized("m", BaseSchema());
  EXPECT_EQ(t.num_slots(), 0);
  EXPECT_EQ(t.num_extra(), 2);
  t.Append(TempTuple{{}, {Value::Str("x"), Value::Double(2)}});
  EXPECT_EQ(t.Get(0, 0), Value::Str("x"));
}

TEST(TempTableTest, RecordsSurviveTableUpdateAndErase) {
  // The central §6.1 guarantee: standard records are never changed in
  // place, so bound tables see the database state at bind time even after
  // the base row is updated or deleted.
  Table base("base", BaseSchema());
  ASSERT_OK_AND_ASSIGN(
      RowHandle row, base.Insert(MakeRecord({Value::Str("a"), Value::Double(1)})));

  TempTable bound = PointerBacked("bound");
  bound.Append(TempTuple{{row->rec}, {Value::Int(1)}});

  ASSERT_OK(base.Update(row, MakeRecord({Value::Str("a"), Value::Double(99)})));
  EXPECT_DOUBLE_EQ(bound.Get(0, 1).as_double(), 1.0);  // still the old image

  base.Erase(row);
  EXPECT_DOUBLE_EQ(bound.Get(0, 1).as_double(), 1.0);  // still alive
}

TEST(TempTableTest, MaterializeRowCopiesValues) {
  TempTable t = PointerBacked("t");
  t.Append(TempTuple{{MakeRecord({Value::Str("z"), Value::Double(4)})},
                     {Value::Int(2)}});
  std::vector<Value> row = t.MaterializeRow(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], Value::Str("z"));
  EXPECT_EQ(row[2], Value::Int(2));
}

TEST(TempTableTest, MaterializeWholeTable) {
  TempTable t = PointerBacked("t");
  t.Append(TempTuple{{MakeRecord({Value::Str("a"), Value::Double(1)})},
                     {Value::Int(1)}});
  t.Append(TempTuple{{MakeRecord({Value::Str("b"), Value::Double(2)})},
                     {Value::Int(2)}});
  ResultSet rs = t.Materialize();
  EXPECT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[1][0], Value::Str("b"));
  EXPECT_NE(rs.ToString().find("a\t1\t1"), std::string::npos);
}

TEST(TempTableTest, SameLayoutComparesSchemaAndColumnMap) {
  EXPECT_TRUE(PointerBacked("x").SameLayout(PointerBacked("x")));
  // Same schema, different layout: not appendable as is.
  EXPECT_FALSE(PointerBacked("x").SameLayout(
      TempTable::Materialized("x", PointerBacked("x").schema())));
  EXPECT_FALSE(PointerBacked("x").SameLayout(
      TempTable::Materialized("x", BaseSchema())));
}

TEST(TempTableTest, CloneSharesRecordsButNotTuples) {
  TempTable a = PointerBacked("x");
  RecordRef rec = MakeRecord({Value::Str("a"), Value::Double(1)});
  a.Append(TempTuple{{rec}, {Value::Int(1)}});
  TempTable c = a.Clone();
  EXPECT_EQ(c.size(), 1u);
  // Pointer columns share the same record object (cheap clone).
  EXPECT_EQ(c.tuples()[0].slots[0].get(), rec.get());
  // But appending to the clone does not affect the original.
  c.Append(TempTuple{{rec}, {Value::Int(2)}});
  EXPECT_EQ(a.size(), 1u);
}

TEST(BoundTableSetTest, AddAndFindByName) {
  BoundTableSet set;
  ASSERT_OK(set.Add(PointerBacked("matches")));
  EXPECT_NE(set.Find("MATCHES"), nullptr);
  EXPECT_EQ(set.Find("other"), nullptr);
  EXPECT_EQ(set.Add(PointerBacked("matches")).code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace strip
