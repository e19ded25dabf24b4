#ifndef STRIP_RULES_TRANSITION_TABLES_H_
#define STRIP_RULES_TRANSITION_TABLES_H_

#include <array>

#include "strip/storage/bound_table_set.h"
#include "strip/storage/table.h"
#include "strip/txn/txn_log.h"

namespace strip {

/// Name of the sequence column the system appends to transition tables (§2).
inline constexpr char kExecuteOrderColumn[] = "execute_order";

/// The transition tables, in the order BuildTransitionTables returns them:
/// rule plans bind a commit's transition tables by these positions.
inline constexpr std::array<const char*, 4> kTransitionTableNames = {
    "inserted", "deleted", "old", "new"};

/// Builds the four transition tables — `inserted`, `deleted`, `old`, `new`,
/// in that order — for `table` from a transaction's log (§2, §6.3).
///
/// Each transition table has the base table's columns (pointer-backed, one
/// slot per tuple) plus the materialized `execute_order` column sequencing
/// the changes within the transaction; the old/new pair of an update shares
/// its execute_order value. The log is NOT reduced to net effect: a tuple
/// inserted then deleted appears in both `inserted` and `deleted`.
BoundTableSet BuildTransitionTables(const Table& table, const TxnLog& log);

/// Schema of a transition table for `table` (columns + execute_order).
Schema TransitionSchema(const Table& table);

}  // namespace strip

#endif  // STRIP_RULES_TRANSITION_TABLES_H_
