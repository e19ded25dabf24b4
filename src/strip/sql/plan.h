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
/// bound by position at each execution, with its position in intermediate
/// join rows.
struct BoundInput {
  std::string name;               // effective (alias or table) name, lowered
  Table* table = nullptr;         // standard input; null for a temp input
  const Schema* temp_schema = nullptr;  // temp input: the placeholder schema
  int temp_source = -1;           // temp input: its position in the binding

  /// Standard tables contribute one RecordRef slot to join rows; temp
  /// tables have their columns copied into the join row's extras array.
  int slot = -1;
  int extra_base = -1;

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

/// An intermediate row during join processing: one RecordRef per standard
/// input (pointer scheme, §6.1) plus materialized values for temp-input
/// columns. Slots for inputs not yet joined are null.
struct JoinRow {
  std::vector<RecordRef> slots;
  std::vector<Value> extras;
};

/// The resolved FROM clause: owns the input descriptors and resolves
/// column references.
class InputSet {
 public:
  /// Adds a standard input; assigns its slot position.
  void Add(std::string name, Table* table);
  /// Adds a temp input read through `schema` (borrowed; must outlive the
  /// set) whose table is bound per execution at position `source`;
  /// assigns its extras positions.
  void AddTemp(std::string name, const Schema& schema, int source);

  const std::vector<BoundInput>& inputs() const { return inputs_; }
  int num_slots() const { return num_slots_; }
  int num_extras() const { return num_extras_; }

  /// Resolves `qualifier.column` (empty qualifier = search all inputs;
  /// ambiguity is an error). NotFound when no input has the column.
  Result<ColumnAccessor> Resolve(const std::string& qualifier,
                                 const std::string& column) const;

  /// Reads the accessor's value from a join row.
  const Value& Read(const JoinRow& row, const ColumnAccessor& acc) const;

  /// Fills the join-row positions of input `i` from its scan row: a
  /// standard input's record, or a tuple of the temp table bound to it.
  void FillFromStandard(JoinRow& row, int input, const RecordRef& rec) const;
  void FillFromTemp(JoinRow& row, int input, const TempTable& temp,
                    const TempTuple& tuple) const;

 private:
  std::vector<BoundInput> inputs_;
  int num_slots_ = 0;
  int num_extras_ = 0;
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
