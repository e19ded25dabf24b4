#ifndef STRIP_SQL_PLAN_H_
#define STRIP_SQL_PLAN_H_

#include <map>
#include <string>
#include <vector>

#include "strip/common/status.h"
#include "strip/sql/ast.h"
#include "strip/sql/expr_eval.h"
#include "strip/storage/bound_table_set.h"
#include "strip/storage/table.h"
#include "strip/storage/temp_table.h"

namespace strip {

/// One resolved FROM-clause input: a standard table, or a temporary
/// (transition / bound) table known at plan time only by its schema and
/// bound by position at each execution. Input i occupies cell i of every
/// join row.
struct BoundInput {
  std::string name;               // effective (alias or table) name, lowered
  Table* table = nullptr;         // standard input; null for a temp input
  const Schema* temp_schema = nullptr;  // temp input: the placeholder schema
  int temp_source = -1;           // temp input: its position in the binding

  const Schema& schema() const {
    return table != nullptr ? table->schema() : *temp_schema;
  }
  bool is_temp() const { return table == nullptr; }
};

/// Identifies a column of one bound input.
struct ColumnAccessor {
  int input = -1;
  int column = -1;

  bool valid() const { return input >= 0; }
};

/// One input's cell of a join row. A join row is one cell per input, laid
/// out flat (row r of an execution starts at cell r * width), and every
/// cell is a borrowed reference, so building a joined row copies a few
/// pointers and no value (§6.1):
///   - a standard input's cell is the table row its scan reached; columns
///     are read in place through `row->rec`, which the execution's shared
///     table lock keeps from changing. Only a §6.1 pointer column of the
///     output takes a RecordRef (a copy of `row->rec`).
///   - a temp input's cell is a tuple of the temp table bound to it, read
///     in place through that table's column map.
/// Cells of inputs not yet joined are null.
union JoinCell {
  const Row* row;
  const TempTuple* tuple;
};

/// The resolved FROM clause: owns the input descriptors and resolves
/// column references.
class InputSet {
 public:
  /// Adds a standard input.
  void Add(std::string name, Table* table);
  /// Adds a temp input read through `schema` (borrowed; must outlive the
  /// set) whose table is bound per execution at position `source`.
  void AddTemp(std::string name, const Schema& schema, int source);

  const std::vector<BoundInput>& inputs() const { return inputs_; }
  /// Cells per join row: one per input.
  size_t width() const { return inputs_.size(); }

  /// Resolves `qualifier.column` (empty qualifier = search all inputs;
  /// ambiguity is an error). NotFound when no input has the column.
  Result<ColumnAccessor> Resolve(const std::string& qualifier,
                                 const std::string& column) const;

 private:
  std::vector<BoundInput> inputs_;
};

/// True when `expr` has no column references: a candidate index-probe key.
bool IsColumnFree(const Expr& expr);

/// Splits a WHERE tree into top-level AND conjuncts (borrowed pointers
/// into the statement's expression tree).
void SplitConjuncts(const Expr* where, std::vector<const Expr*>& out);

/// Appends the indexes of every input referenced by `expr` (via resolvable
/// column refs) to `out`, deduplicated. Unresolvable bare names that match
/// a pseudo column are ignored. Fails on genuinely unknown columns.
Status CollectReferencedInputs(const Expr& expr, const InputSet& inputs,
                               const std::map<std::string, Value>* pseudo,
                               std::vector<int>& out);

/// A classified WHERE conjunct.
struct Conjunct {
  const Expr* expr = nullptr;
  std::vector<int> referenced;  // input indexes, sorted

  /// Equi-join decomposition: expr is `lhs = rhs` where each side
  /// references exactly one (distinct) input.
  bool equi_join = false;
  const Expr* lhs = nullptr;
  int lhs_input = -1;
  const Expr* rhs = nullptr;
  int rhs_input = -1;
};

/// Classifies the conjuncts of `where` against `inputs`.
Result<std::vector<Conjunct>> ClassifyConjuncts(
    const Expr* where, const InputSet& inputs,
    const std::map<std::string, Value>* pseudo);

}  // namespace strip

#endif  // STRIP_SQL_PLAN_H_
