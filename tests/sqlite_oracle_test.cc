// Differential tests of the SQL engine against SQLite, the oracle that
// shares no code with it.
//
//   RandomQueryOracle  seeded random schemas, data, queries and DML over the
//                      supported subset (2- and 3-table joins with and
//                      without indexes, GROUP BY / HAVING, IN / BETWEEN,
//                      DISTINCT / ORDER BY / LIMIT, NULLs, and count / sum
//                      / avg / min / max), each run on two engine instances
//                      (indexed, through the plan cache; unindexed, through
//                      per-call planning) and on SQLite.
//   PtaOracle          the program-trading tables with fixed queries, the
//                      trace's prepared updates and a prepared point read.
//   KnownDifferences   the semantic differences the oracle cannot translate
//                      away, each pinned to its expected engine error.
//
// Known differences from SQLite (DESIGN.md "Differences from SQLite") are
// never skipped: each one is either rewritten by a named translation when a
// query is rendered for SQLite, or asserted by an expected-error test.
//
//   RealDivision     `/` always returns a double: SQLite gets
//                    `CAST(lhs AS REAL) / rhs`.
//   TwoValuedLogic   NULL counts as false in AND / OR / NOT (and in the IN /
//                    BETWEEN chains the parser desugars into them): SQLite
//                    gets every logical operand wrapped in `COALESCE(x, 0)`.
//   PlusConcatenates `+` on two strings concatenates: SQLite gets `||`.
//   Least/Greatest   the engine's least() / greatest() are SQLite's
//                    multi-argument min() / max().
//   Division by zero and string-vs-number comparison are engine errors
//   (SQLite yields NULL / a type-ordered answer): KnownDifferences.
//
// Generator rules that keep answers deterministic (not differences): ORDER
// BY always ends with every output column, LIMIT only follows ORDER BY,
// grouped select lists name only group keys and aggregates, divisors are
// non-zero literals, and doubles are multiples of 0.25 so sums are exact.

#include <sqlite3.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "strip/common/string_util.h"
#include "strip/engine/database.h"
#include "strip/market/populate.h"
#include "strip/market/trace.h"
#include "strip/sql/parser.h"
#include "tests/test_util.h"

namespace strip {
namespace {

using Rows = std::vector<std::vector<Value>>;

// ---------------------------------------------------------------------------
// SQLite side
// ---------------------------------------------------------------------------

/// An in-memory SQLite database.
class Sqlite {
 public:
  Sqlite() {
    if (sqlite3_open(":memory:", &db_) != SQLITE_OK) db_ = nullptr;
  }
  ~Sqlite() { sqlite3_close(db_); }
  Sqlite(const Sqlite&) = delete;
  Sqlite& operator=(const Sqlite&) = delete;

  sqlite3* handle() { return db_; }

  /// Runs one statement with `params` bound to its '?' placeholders.
  /// Returns the result rows; `changes` receives the rows a DML statement
  /// modified.
  Result<Rows> Run(const std::string& sql,
                   const std::vector<Value>& params = {},
                   int* changes = nullptr) {
    sqlite3_stmt* stmt = nullptr;
    if (sqlite3_prepare_v2(db_, sql.c_str(), -1, &stmt, nullptr) !=
        SQLITE_OK) {
      return Error(sql);
    }
    std::unique_ptr<sqlite3_stmt, int (*)(sqlite3_stmt*)> guard(
        stmt, sqlite3_finalize);
    for (size_t i = 0; i < params.size(); ++i) {
      int pos = static_cast<int>(i) + 1;
      const Value& v = params[i];
      switch (v.type()) {
        case ValueType::kNull: sqlite3_bind_null(stmt, pos); break;
        case ValueType::kInt: sqlite3_bind_int64(stmt, pos, v.as_int()); break;
        case ValueType::kDouble:
          sqlite3_bind_double(stmt, pos, v.as_double());
          break;
        case ValueType::kString:
          sqlite3_bind_text(stmt, pos, v.as_string().c_str(), -1,
                            SQLITE_TRANSIENT);
          break;
      }
    }
    Rows rows;
    for (;;) {
      int rc = sqlite3_step(stmt);
      if (rc == SQLITE_DONE) break;
      if (rc != SQLITE_ROW) return Error(sql);
      std::vector<Value> row;
      for (int c = 0; c < sqlite3_column_count(stmt); ++c) {
        switch (sqlite3_column_type(stmt, c)) {
          case SQLITE_INTEGER:
            row.push_back(Value::Int(sqlite3_column_int64(stmt, c)));
            break;
          case SQLITE_FLOAT:
            row.push_back(Value::Double(sqlite3_column_double(stmt, c)));
            break;
          case SQLITE_TEXT:
            row.push_back(Value::Str(reinterpret_cast<const char*>(
                sqlite3_column_text(stmt, c))));
            break;
          default:
            row.push_back(Value::Null());
            break;
        }
      }
      rows.push_back(std::move(row));
    }
    if (changes != nullptr) *changes = sqlite3_changes(db_);
    return rows;
  }

 private:
  Status Error(const std::string& sql) {
    return Status::Internal(StrFormat("sqlite: %s\n  in: %s",
                                      sqlite3_errmsg(db_), sql.c_str()));
  }

  sqlite3* db_ = nullptr;
};

/// The SQLite literal for `v`.
std::string SqliteLiteral(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt: return std::to_string(v.as_int());
    case ValueType::kDouble: return StrFormat("%.17g", v.as_double());
    case ValueType::kString: return "'" + v.as_string() + "'";
  }
  return "NULL";
}

/// Copies every row of the engine table `name` into a new SQLite table,
/// reading the storage directly (no SQL on the engine side).
void CopyTable(Database& db, Sqlite& lite, const std::string& name) {
  Table* table = db.catalog().FindTable(name);
  ASSERT_NE(table, nullptr) << name;
  const Schema& schema = table->schema();
  std::string ddl = "CREATE TABLE " + name + " (";
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) ddl += ", ";
    const ValueType t = schema.column(c).type;
    ddl += schema.column(c).name + (t == ValueType::kInt      ? " INTEGER"
                                     : t == ValueType::kDouble ? " REAL"
                                                               : " TEXT");
  }
  ASSERT_OK(lite.Run(ddl + ")").status());
  ASSERT_OK(lite.Run("BEGIN").status());
  table->ForEachRecord([&](const RecordRef& rec) {
    std::string sql = "INSERT INTO " + name + " VALUES (";
    for (size_t c = 0; c < rec->values.size(); ++c) {
      sql += (c > 0 ? ", " : "") + SqliteLiteral(rec->values[c]);
    }
    EXPECT_OK(lite.Run(sql + ")").status());
  });
  ASSERT_OK(lite.Run("COMMIT").status());
}

// ---------------------------------------------------------------------------
// Result comparison
// ---------------------------------------------------------------------------

/// Same SQL value: NULL with NULL, equal strings, and numbers of the same
/// kind (int with int exactly, double with double to 1e-9 relative).
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull: return true;
    case ValueType::kInt: return a.as_int() == b.as_int();
    case ValueType::kString: return a.as_string() == b.as_string();
    case ValueType::kDouble: {
      double x = a.as_double(), y = b.as_double();
      return std::fabs(x - y) <= 1e-9 * std::max(1.0, std::fabs(x));
    }
  }
  return false;
}

std::string RowsToString(const Rows& rows) {
  std::string out;
  for (const auto& row : rows) {
    out += "  (";
    for (size_t c = 0; c < row.size(); ++c) {
      out += (c > 0 ? ", " : "") + row[c].ToString() + ":" +
             ValueTypeName(row[c].type());
    }
    out += ")\n";
  }
  return out;
}

void SortRows(Rows& rows) {
  std::sort(rows.begin(), rows.end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              return std::lexicographical_compare(
                  a.begin(), a.end(), b.begin(), b.end(),
                  [](const Value& x, const Value& y) {
                    return Value::Compare(x, y) < 0;
                  });
            });
}

/// Rows equal in order (`ordered`) or as multisets.
::testing::AssertionResult SameRows(Rows engine, Rows lite, bool ordered) {
  if (!ordered) {
    SortRows(engine);
    SortRows(lite);
  }
  bool same = engine.size() == lite.size();
  for (size_t r = 0; same && r < engine.size(); ++r) {
    same = engine[r].size() == lite[r].size();
    for (size_t c = 0; same && c < engine[r].size(); ++c) {
      same = SameValue(engine[r][c], lite[r][c]);
    }
  }
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "engine rows:\n" << RowsToString(engine) << "sqlite rows:\n"
         << RowsToString(lite);
}

// ---------------------------------------------------------------------------
// Random query generator
// ---------------------------------------------------------------------------

/// One generated SQL fragment rendered in both dialects.
struct Sql {
  std::string engine;
  std::string lite;
};

Sql Same(const std::string& text) { return {text, text}; }

Sql Wrap(const char* pre, const Sql& a, const char* post) {
  return {pre + a.engine + post, pre + a.lite + post};
}

Sql Join(const Sql& a, const char* op, const Sql& b) {
  return {"(" + a.engine + " " + op + " " + b.engine + ")",
          "(" + a.lite + " " + op + " " + b.lite + ")"};
}

// Named translations (see the file comment).
Sql RealDivision(const Sql& a, const Sql& b) {
  return {"(" + a.engine + " / " + b.engine + ")",
          "(CAST(" + a.lite + " AS REAL) / " + b.lite + ")"};
}
std::string Truth(const std::string& lite) {
  return "COALESCE(" + lite + ", 0)";
}
Sql TwoValuedLogic(const Sql& a, const char* op, const Sql& b) {
  return {"(" + a.engine + " " + op + " " + b.engine + ")",
          "(" + Truth(a.lite) + " " + op + " " + Truth(b.lite) + ")"};
}
Sql TwoValuedNot(const Sql& a) {
  return {"(not " + a.engine + ")", "(NOT " + Truth(a.lite) + ")"};
}
Sql PlusConcatenates(const Sql& a, const Sql& b) {
  return {"(" + a.engine + " + " + b.engine + ")",
          "(" + a.lite + " || " + b.lite + ")"};
}

/// Column of a generated table.
struct Col {
  std::string name;
  ValueType type;
};

/// Every generated table has the same four columns: a small-domain join key
/// `k`, an int `a`, a double `d` (multiples of 0.25) and a string `s`, all
/// nullable.
const std::vector<Col>& Columns() {
  static const std::vector<Col> cols = {{"k", ValueType::kInt},
                                        {"a", ValueType::kInt},
                                        {"d", ValueType::kDouble},
                                        {"s", ValueType::kString}};
  return cols;
}

const char* kStrings[] = {"ab", "b", "cd", "e", "xy", "b"};

/// Literal text valid in both dialects. Generated doubles are multiples of
/// 0.25 and always carry a decimal point, so both dialects type them as
/// doubles.
std::string ValueText(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return std::to_string(v.as_int());
    case ValueType::kDouble: return StrFormat("%.2f", v.as_double());
    case ValueType::kString: return "'" + v.as_string() + "'";
  }
  return "null";
}

class QueryGen {
 public:
  explicit QueryGen(uint32_t seed) : rng_(seed) {}

  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  bool Chance(int percent) { return Int(1, 100) <= percent; }
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[static_cast<size_t>(Int(0, static_cast<int>(v.size()) - 1))];
  }

  /// A random stored value of `type` (NULL 15% of the time).
  Value RandomValue(ValueType type, bool key = false) {
    if (Chance(15)) return Value::Null();
    switch (type) {
      case ValueType::kInt:
        return Value::Int(key ? Int(0, 4) : Int(-5, 12));
      case ValueType::kDouble:
        return Value::Double(Int(-14, 80) * 0.25);
      default:
        return Value::Str(kStrings[Int(0, 5)]);
    }
  }

  /// A random non-null literal of `type`.
  Sql Literal(ValueType type) {
    Value v;
    while (v.is_null()) v = RandomValue(type);
    return Same(ValueText(v));
  }

  /// INSERT of one random row into `table`.
  Sql Insert(const std::string& table) {
    std::string values;
    for (const Col& c : Columns()) {
      values += (values.empty() ? "" : ", ") +
                ValueText(RandomValue(c.type, c.name == "k"));
    }
    return Same("insert into " + table + " values (" + values + ")");
  }

  /// `tables` in scope; qualified column reference of the given type.
  Sql ColumnOf(const std::vector<std::string>& tables, ValueType type) {
    std::vector<std::string> names;
    for (const Col& c : Columns()) {
      if (c.type == type) names.push_back(c.name);
    }
    return Same(Pick(tables) + "." + Pick(names));
  }

  Sql NumColumn(const std::vector<std::string>& tables) {
    return ColumnOf(tables, Chance(50) ? ValueType::kInt : ValueType::kDouble);
  }

  /// Numeric expression of bounded depth.
  Sql Num(const std::vector<std::string>& tables, int depth) {
    int choice = depth <= 0 ? Int(0, 1) : Int(0, 8);
    switch (choice) {
      case 0: return NumColumn(tables);
      case 1:
        return Chance(10) ? Same("null")
                          : Literal(Chance(50) ? ValueType::kInt
                                               : ValueType::kDouble);
      case 2: return Join(Num(tables, depth - 1), "+", Num(tables, depth - 1));
      case 3: return Join(Num(tables, depth - 1), "-", Num(tables, depth - 1));
      case 4:
        return Join(Num(tables, depth - 1), "*",
                    Same(std::to_string(Int(-3, 4))));
      case 5:
        return RealDivision(Num(tables, depth - 1),
                            Same(Chance(50) ? std::to_string(Int(1, 4))
                                            : StrFormat("%.2f", Int(1, 8) * 0.5)));
      case 6: return Wrap("(- ", Num(tables, depth - 1), ")");
      case 7: return Wrap("abs(", Num(tables, depth - 1), ")");
      default: {
        // Least/Greatest over ints only (mixed int/double ties would pick
        // an implementation-defined argument).
        bool least = Chance(50);
        Sql a = ColumnOf(tables, ValueType::kInt);
        Sql b = Literal(ValueType::kInt);
        return {std::string(least ? "least(" : "greatest(") + a.engine +
                    ", " + b.engine + ")",
                std::string(least ? "min(" : "max(") + a.lite + ", " +
                    b.lite + ")"};
      }
    }
  }

  /// String expression.
  Sql Str(const std::vector<std::string>& tables) {
    Sql col = ColumnOf(tables, ValueType::kString);
    if (Chance(25)) return PlusConcatenates(col, Literal(ValueType::kString));
    return col;
  }

  /// Boolean expression of bounded depth.
  Sql Pred(const std::vector<std::string>& tables, int depth) {
    static const std::vector<std::string> kOps = {"=", "!=", "<",
                                                  "<=", ">", ">="};
    int choice = depth <= 0 ? Int(0, 4) : Int(0, 8);
    switch (choice) {
      case 0:
      case 1:
        return Join(Num(tables, 1), Pick(kOps).c_str(), Num(tables, 1));
      case 2:
        return Join(Str(tables), Pick(kOps).c_str(),
                    Chance(50) ? Literal(ValueType::kString)
                               : ColumnOf(tables, ValueType::kString));
      case 3: {
        // IN desugars to an OR chain of `=` (a single item is just `=`).
        bool strings = Chance(40);
        Sql lhs = strings ? ColumnOf(tables, ValueType::kString)
                          : NumColumn(tables);
        int n = Int(1, 4);
        std::string items;
        for (int i = 0; i < n; ++i) {
          if (i > 0) items += ", ";
          items += Literal(strings ? ValueType::kString
                                   : (Chance(50) ? ValueType::kInt
                                                 : ValueType::kDouble))
                       .engine;
        }
        bool negated = Chance(30);
        std::string lite = n == 1 ? "(" + lhs.lite + " = " + items + ")"
                                  : Truth(lhs.lite + " IN (" + items + ")");
        return {lhs.engine + (negated ? " not in (" : " in (") + items + ")",
                negated ? "(NOT " + Truth(lite) + ")" : lite};
      }
      case 4: {
        // BETWEEN desugars to an AND of >= and <=.
        Sql x = NumColumn(tables);
        int lo = Int(-5, 10);
        std::string range =
            std::to_string(lo) + " and " + std::to_string(lo + Int(0, 10));
        bool negated = Chance(30);
        std::string inner =
            Truth(x.lite + " BETWEEN " + range);
        return {"(" + x.engine + (negated ? " not between " : " between ") +
                    range + ")",
                negated ? "(NOT " + inner + ")" : inner};
      }
      case 5: return TwoValuedLogic(Pred(tables, depth - 1), "and",
                                    Pred(tables, depth - 1));
      case 6: return TwoValuedLogic(Pred(tables, depth - 1), "or",
                                    Pred(tables, depth - 1));
      case 7: return TwoValuedNot(Pred(tables, depth - 1));
      default:
        return Join(ColumnOf(tables, ValueType::kInt), "=",
                    ColumnOf(tables, ValueType::kDouble));
    }
  }

  /// Any scalar select-list expression.
  Sql Scalar(const std::vector<std::string>& tables) {
    switch (Int(0, 4)) {
      case 0: return Same(Pick(tables) + "." + Pick(Columns()).name);
      case 1:
      case 2: return Num(tables, 2);
      case 3: return Str(tables);
      default: return Pred(tables, 1);
    }
  }

  /// An aggregate call over `tables`.
  Sql Aggregate(const std::vector<std::string>& tables) {
    std::string col = Pick(tables) + "." + Pick(Columns()).name;
    switch (Int(0, 3)) {
      case 0: return Same("count(" + col + ")");
      case 1: return Same(std::string(Chance(50) ? "min(" : "max(") + col + ")");
      default: return NumAggregate(tables);
    }
  }

  /// An aggregate call with a numeric result.
  Sql NumAggregate(const std::vector<std::string>& tables) {
    switch (Int(0, 3)) {
      case 0: return Same("count(*)");
      case 1: return Wrap("sum(", Num(tables, 1), ")");
      case 2: return Wrap("avg(", Num(tables, 1), ")");
      default:
        return Wrap(Chance(50) ? "min(" : "max(", NumColumn(tables), ")");
    }
  }

  /// FROM list plus join predicate: 1, 2 or 3 tables.
  void FromClause(std::vector<std::string>& tables, Sql& join_pred) {
    int n = Int(1, 3);
    tables = {"t1", "t2", "t3"};
    std::shuffle(tables.begin(), tables.end(), rng_);
    tables.resize(static_cast<size_t>(n));
    join_pred = Same("");
    auto equi = [&](const std::string& x, const std::string& y) {
      static const std::vector<std::string> kKeys = {"k", "k", "a", "s"};
      if (Chance(10)) return Same(x + ".a = " + y + ".d");  // int = double
      if (Chance(10)) return Same(x + ".a < " + y + ".a");  // non-equi
      const std::string& key = Pick(kKeys);
      return Same(x + "." + key + " = " + y + "." + key);
    };
    for (size_t i = 1; i < tables.size(); ++i) {
      Sql e = equi(tables[Int(0, static_cast<int>(i) - 1)], tables[i]);
      join_pred = join_pred.engine.empty() ? e : Join(join_pred, "and", e);
    }
  }

  /// One random SELECT. `ordered` reports whether the result order is
  /// fully determined.
  Sql Select(bool& ordered) {
    std::vector<std::string> tables;
    Sql join_pred;
    FromClause(tables, join_pred);
    Sql where = join_pred;
    if (Chance(65)) {
      Sql p = Pred(tables, Int(0, 2));
      where = where.engine.empty() ? p : Join(where, "and", p);
    }

    const int kind = Int(0, 9);  // 0-2 grouped, 3 global aggregate
    std::vector<Sql> items;
    std::vector<std::string> group_by;
    Sql having;
    bool distinct = false;
    if (kind <= 2) {
      int keys = Int(1, 2);
      for (int i = 0; i < keys; ++i) {
        group_by.push_back(Pick(tables) + "." + Pick(Columns()).name);
        items.push_back(Same(group_by.back()));
      }
      int aggs = Int(1, 3);
      for (int i = 0; i < aggs; ++i) items.push_back(Aggregate(tables));
      if (Chance(40)) {
        // Comparing a string with a number is an engine error
        // (KnownDifferences), so HAVING compares a numeric aggregate.
        having = Join(NumAggregate(tables), Chance(50) ? ">" : "<=",
                      Literal(ValueType::kInt));
      }
    } else if (kind == 3) {
      int aggs = Int(1, 4);
      for (int i = 0; i < aggs; ++i) items.push_back(Aggregate(tables));
    } else {
      int n = Int(1, 4);
      for (int i = 0; i < n; ++i) items.push_back(Scalar(tables));
      distinct = Chance(30);
    }

    Sql sql = Same(distinct ? "select distinct " : "select ");
    for (size_t i = 0; i < items.size(); ++i) {
      Sql item = Wrap(i > 0 ? ", " : "", items[i],
                      StrFormat(" as c%zu", i).c_str());
      sql = {sql.engine + item.engine, sql.lite + item.lite};
    }
    std::string from = " from ";
    for (size_t i = 0; i < tables.size(); ++i) {
      from += (i > 0 ? ", " : "") + tables[i];
    }
    sql = {sql.engine + from, sql.lite + from};
    if (!where.engine.empty()) {
      sql = {sql.engine + " where " + where.engine,
             sql.lite + " where " + where.lite};
    }
    if (!group_by.empty()) {
      std::string g = " group by ";
      for (size_t i = 0; i < group_by.size(); ++i) {
        g += (i > 0 ? ", " : "") + group_by[i];
      }
      sql = {sql.engine + g, sql.lite + g};
      if (!having.engine.empty()) {
        sql = {sql.engine + " having " + having.engine,
               sql.lite + " having " + having.lite};
      }
    }
    ordered = Chance(60);
    if (ordered) {
      // A few leading keys in random directions, then every output column:
      // a total order, so ties cannot reorder rows.
      std::vector<int> order(items.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
      std::shuffle(order.begin(), order.end(), rng_);
      std::string ob = " order by ";
      for (size_t i = 0; i < order.size(); ++i) {
        ob += StrFormat("%sc%d%s", i > 0 ? ", " : "", order[i],
                        Chance(30) ? " desc" : "");
      }
      for (size_t i = 0; i < items.size(); ++i) {
        ob += StrFormat(", c%zu", i);
      }
      if (Chance(40)) ob += StrFormat(" limit %d", Int(0, 8));
      sql = {sql.engine + ob, sql.lite + ob};
    }
    return sql;
  }

  /// One random DML statement over a single table.
  Sql Dml() {
    std::string t = "t" + std::to_string(Int(1, 3));
    std::vector<std::string> tables = {t};
    switch (Int(0, 3)) {
      case 0: return Insert(t);
      case 1: {
        Sql where = Pred(tables, 1);
        Sql set = Join(Same("a"), "+", Same(std::to_string(Int(1, 3))));
        return {"update " + t + " set a = " + set.engine +
                    ", d = d * 2 where " + where.engine,
                "update " + t + " set a = " + set.lite +
                    ", d = d * 2 where " + where.lite};
      }
      case 2: {
        Sql where = Pred(tables, 1);
        return {"delete from " + t + " where " + where.engine,
                "delete from " + t + " where " + where.lite};
      }
      default: {
        Sql s = Str(tables);
        std::string where = " where k = " + std::to_string(Int(0, 5));
        return {"update " + t + " set s = " + s.engine + where,
                "update " + t + " set s = " + s.lite + where};
      }
    }
  }

 private:
  std::mt19937 rng_;
};

// ---------------------------------------------------------------------------
// RandomQueryOracle
// ---------------------------------------------------------------------------

constexpr int kSeeds = 20;
constexpr int kQueriesPerSeed = 50;

/// Per seed: the same random tables in an indexed engine (statements run
/// through Execute(sql): the plan cache and prepared plans), an unindexed
/// engine (statements run as parsed Statements: per-call planning) and
/// SQLite.
class RandomQueryOracle : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    gen_ = std::make_unique<QueryGen>(static_cast<uint32_t>(GetParam()));
    ASSERT_NE(lite_.handle(), nullptr);
    for (int t = 1; t <= 3; ++t) {
      std::string name = "t" + std::to_string(t);
      std::string ddl = "create table " + name + " (k int, a int, d double, s string)";
      ASSERT_OK(indexed_.Execute(ddl).status());
      ASSERT_OK(plain_.Execute(ddl).status());
      ASSERT_OK(lite_.Run("CREATE TABLE " + name +
                          " (k INTEGER, a INTEGER, d REAL, s TEXT)")
                    .status());
      ASSERT_OK(indexed_.Execute("create index on " + name + " (k)").status());
      if (gen_->Chance(50)) {
        ASSERT_OK(indexed_.Execute("create index on " + name + " (" +
                                   gen_->Pick(std::vector<std::string>{"a", "s"}) +
                                   ")")
                      .status());
      }
      int rows = gen_->Int(8, 24);
      for (int r = 0; r < rows; ++r) {
        ApplyDml(gen_->Insert(name));
      }
    }
  }

  /// Runs `sql` on both engines and SQLite; all must succeed and agree on
  /// rows affected.
  void ApplyDml(const Sql& sql) {
    ASSERT_OK_AND_ASSIGN(ResultSet a, indexed_.Execute(sql.engine));
    ASSERT_OK_AND_ASSIGN(Statement stmt, Parser::ParseStatement(sql.engine));
    ASSERT_OK_AND_ASSIGN(ResultSet b, plain_.Execute(stmt));
    int changes = 0;
    ASSERT_OK(lite_.Run(sql.lite, {}, &changes).status());
    EXPECT_EQ(a.rows[0][0].as_int(), changes) << sql.engine;
    EXPECT_EQ(b.rows[0][0].as_int(), changes) << sql.engine;
  }

  void ExpectQueryAgrees(const Sql& sql, bool ordered) {
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + "\n  engine: " +
                 sql.engine + "\n  sqlite: " + sql.lite);
    ASSERT_OK_AND_ASSIGN(Rows lite, lite_.Run(sql.lite));
    ASSERT_OK_AND_ASSIGN(ResultSet a, indexed_.Execute(sql.engine));
    EXPECT_TRUE(SameRows(a.rows, lite, ordered)) << "indexed, plan cache";
    ASSERT_OK_AND_ASSIGN(Statement stmt, Parser::ParseStatement(sql.engine));
    ASSERT_OK_AND_ASSIGN(ResultSet b, plain_.Execute(stmt));
    EXPECT_TRUE(SameRows(b.rows, lite, ordered)) << "unindexed, per call";
  }

  std::unique_ptr<QueryGen> gen_;
  Database indexed_;
  Database plain_;
  Sqlite lite_;
};

TEST_P(RandomQueryOracle, QueriesAndDmlMatchSqlite) {
  int queries = 0;
  while (queries < kQueriesPerSeed) {
    if (gen_->Chance(15)) {
      Sql dml = gen_->Dml();
      SCOPED_TRACE("seed " + std::to_string(GetParam()) + "\n  engine: " +
                   dml.engine + "\n  sqlite: " + dml.lite);
      ApplyDml(dml);
      if (HasFatalFailure()) return;
      continue;
    }
    bool ordered = false;
    Sql q = gen_->Select(ordered);
    ExpectQueryAgrees(q, ordered);
    if (HasFatalFailure()) return;
    ++queries;
  }
  // The tables themselves still agree after the DML.
  for (int t = 1; t <= 3; ++t) {
    ExpectQueryAgrees(Same("select k, a, d, s from t" + std::to_string(t)),
                      false);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryOracle,
                         ::testing::Range(1, kSeeds + 1));

// ---------------------------------------------------------------------------
// PtaOracle
// ---------------------------------------------------------------------------

/// The program-trading database (reusing the PTA generators) in the engine
/// and, copied row by row from storage, in SQLite, where f_bs is the same
/// registered application function.
class PtaOracle : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceOptions t;
    t.num_stocks = 40;
    t.duration_seconds = 5;
    t.target_updates = 120;
    t.seed = 1234;
    trace_ = MarketTrace::Generate(t);
    PtaConfig cfg;
    cfg.num_composites = 6;
    cfg.stocks_per_composite = 10;
    cfg.num_options = 60;
    cfg.seed = 5678;
    ASSERT_OK(PopulatePtaTables(db_, trace_, cfg));
    ASSERT_NE(lite_.handle(), nullptr);
    for (const char* name : {"stocks", "stock_stdev", "comps_list",
                             "comp_prices", "options_list", "option_prices"}) {
      CopyTable(db_, lite_, name);
    }
    const ScalarFunc* f_bs = db_.scalar_funcs().Find("f_bs");
    ASSERT_NE(f_bs, nullptr);
    ASSERT_EQ(sqlite3_create_function(
                  lite_.handle(), "f_bs", 4, SQLITE_UTF8,
                  const_cast<ScalarFunc*>(f_bs),
                  [](sqlite3_context* ctx, int argc, sqlite3_value** argv) {
                    std::vector<Value> args;
                    for (int i = 0; i < argc; ++i) {
                      args.push_back(Value::Double(sqlite3_value_double(argv[i])));
                    }
                    auto* fn = static_cast<ScalarFunc*>(sqlite3_user_data(ctx));
                    auto v = (*fn)(args);
                    if (v.ok()) {
                      sqlite3_result_double(ctx, v->as_double());
                    } else {
                      sqlite3_result_error(ctx, v.status().message().c_str(), -1);
                    }
                  },
                  nullptr, nullptr),
              SQLITE_OK);
  }

  /// Runs the engine text and the SQLite text (equal unless a named
  /// translation applies); the results must agree row for row.
  void ExpectSame(const std::string& engine_sql,
                  const std::string& lite_sql = "") {
    const std::string& lite_text = lite_sql.empty() ? engine_sql : lite_sql;
    SCOPED_TRACE(engine_sql);
    ASSERT_OK_AND_ASSIGN(ResultSet a, db_.Execute(engine_sql));
    ASSERT_OK_AND_ASSIGN(Rows b, lite_.Run(lite_text));
    EXPECT_TRUE(SameRows(a.rows, b, /*ordered=*/true));
  }

  MarketTrace trace_;
  Database db_;
  Sqlite lite_;
};

TEST_F(PtaOracle, QueriesAndDmlAgree) {
  // Apply the trace's updates through one prepared handle on the engine
  // and a bound SQLite statement.
  ASSERT_OK_AND_ASSIGN(
      PreparedStatementPtr upd,
      db_.Prepare("update stocks set price = ? where symbol = ?"));
  for (const Quote& q : trace_.quotes()) {
    std::vector<Value> params = {Value::Double(q.price),
                                 Value::Str(StockSymbol(q.stock))};
    ASSERT_OK_AND_ASSIGN(ResultSet rs, upd->Execute(params));
    int changes = 0;
    ASSERT_OK(lite_.Run("update stocks set price = ? where symbol = ?", params,
                        &changes)
                  .status());
    EXPECT_EQ(rs.rows[0][0].as_int(), changes);
  }

  ExpectSame("select symbol, price from stocks order by symbol");
  ExpectSame("select comp, price from comp_prices order by comp");
  // Join + aggregate + scalar arithmetic (the Figure-5 recompute).
  ExpectSame(
      "select comp, sum(stocks.price * weight) as price "
      "from stocks, comps_list where stocks.symbol = comps_list.symbol "
      "group by comp order by comp");
  // Scalar function (f_bs) over a three-way join.
  ExpectSame(
      "select option_symbol, "
      "f_bs(stocks.price, strike, expiration, stdev) as price "
      "from stocks, stock_stdev, options_list "
      "where stocks.symbol = options_list.stock_symbol "
      "and stocks.symbol = stock_stdev.symbol "
      "order by option_symbol limit 50");
  // Short-circuit evaluation: the second conjunct divides by a column
  // value only when reached. RealDivision + TwoValuedLogic.
  ExpectSame(
      "select symbol from stocks where price > 1e12 and 1.0 / price > 0 "
      "order by symbol",
      "select symbol from stocks where COALESCE(price > 1e12, 0) and "
      "COALESCE(CAST(1.0 AS REAL) / price > 0, 0) order by symbol");
  // Unary minus, boolean ops, DISTINCT. TwoValuedLogic.
  ExpectSame(
      "select distinct comp from comps_list "
      "where not (weight < 0) or -weight > 0 order by comp",
      "select distinct comp from comps_list "
      "where COALESCE(NOT COALESCE(weight < 0, 0), 0) or "
      "COALESCE(-weight > 0, 0) order by comp");
  ExpectSame(
      "select comp, count(*) as n from comps_list group by comp "
      "having count(*) > 2 order by comp");
  // Integer vs double division. RealDivision.
  ExpectSame("select symbol, price / 4 from stocks order by symbol limit 10",
             "select symbol, CAST(price AS REAL) / 4 from stocks "
             "order by symbol limit 10");
  ExpectSame("select symbol from stocks where price > 1e12");
}

TEST_F(PtaOracle, PreparedSelectMatchesSqlite) {
  ASSERT_OK_AND_ASSIGN(
      PreparedStatementPtr sel,
      db_.Prepare("select comp, weight from comps_list where symbol = ?"));
  for (int i = 0; i < 40; ++i) {
    std::vector<Value> params = {Value::Str(StockSymbol(i))};
    ASSERT_OK_AND_ASSIGN(ResultSet a, sel->Execute(params));
    ASSERT_OK_AND_ASSIGN(
        Rows b,
        lite_.Run("select comp, weight from comps_list where symbol = ?",
                  params));
    EXPECT_TRUE(SameRows(a.rows, b, /*ordered=*/false)) << StockSymbol(i);
  }
}

// ---------------------------------------------------------------------------
// KnownDifferences: pinned engine errors where SQLite answers
// ---------------------------------------------------------------------------

TEST(KnownDifferences, DivisionByZeroIsAnError) {
  Database db;
  ASSERT_OK(db.ExecuteScript("create table t (v int); insert into t values (1);"));
  auto r = db.Execute("select 1 / 0 from t");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  r = db.Execute("select v / 0.0 from t");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  Sqlite lite;
  ASSERT_OK_AND_ASSIGN(Rows rows, lite.Run("select 1 / 0"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].is_null());  // SQLite's answer, for the record
}

TEST(KnownDifferences, StringNumberComparisonIsAnError) {
  Database db;
  ASSERT_OK(db.ExecuteScript(
      "create table t (v int, s string); insert into t values (1, 'a');"));
  auto r = db.Execute("select v from t where s = 1");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  Sqlite lite;
  ASSERT_OK_AND_ASSIGN(Rows rows, lite.Run("select 'a' = 1"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(0));  // SQLite orders by storage class
}

}  // namespace
}  // namespace strip
