#ifndef STRIP_STORAGE_TEMP_TABLE_H_
#define STRIP_STORAGE_TEMP_TABLE_H_

#include <string>
#include <vector>

#include "strip/common/status.h"
#include "strip/storage/record.h"
#include "strip/storage/schema.h"

namespace strip {

/// Where a temporary-table column's value lives (§6.1, [Rou82] scheme):
/// either inside one of the standard-tuple records the temp tuple points to
/// (slot >= 0, offset = attribute position in that record), or in the temp
/// tuple's own materialized-value array (slot == kMaterializedSlot) for
/// aggregate / computed / timestamp attributes that exist nowhere else.
struct TempColumnMap {
  static constexpr int kMaterializedSlot = -1;

  int slot = kMaterializedSlot;
  int offset = 0;

  bool materialized() const { return slot == kMaterializedSlot; }

  friend bool operator==(const TempColumnMap& a,
                         const TempColumnMap& b) = default;
};

/// One temporary tuple: one RecordRef per contributing standard tuple plus
/// the materialized values. Holding RecordRefs is what keeps superseded
/// record versions alive until the last bound table referencing them is
/// retired (§6.1).
struct TempTuple {
  std::vector<RecordRef> slots;
  std::vector<Value> extra;
};

/// Fully materialized query result for user consumption.
struct ResultSet {
  Schema schema;
  std::vector<std::vector<Value>> rows;

  size_t num_rows() const { return rows.size(); }
  /// Tab-separated display with a header line (for examples / debugging).
  std::string ToString() const;
};

/// A temporary table: intermediate query results, transition tables, and
/// bound tables (§6.1). Stores a static column map shared by all tuples plus
/// the tuples themselves.
class TempTable {
 public:
  /// `num_slots` / `num_extra` fix the per-tuple array sizes; every column
  /// map entry must reference a valid slot/offset position.
  TempTable(std::string name, Schema schema, std::vector<TempColumnMap> map,
            int num_slots, int num_extra);

  /// Convenience: a layout in which every column is materialized (used when
  /// pointer sharing is impossible, e.g. pure aggregate outputs).
  static TempTable Materialized(std::string name, Schema schema);

  TempTable(TempTable&&) = default;
  TempTable& operator=(TempTable&&) = default;
  TempTable(const TempTable&) = delete;
  TempTable& operator=(const TempTable&) = delete;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }
  const std::vector<TempColumnMap>& column_map() const { return map_; }
  int num_slots() const { return num_slots_; }
  int num_extra() const { return num_extra_; }

  size_t size() const { return tuples_.size(); }
  const std::vector<TempTuple>& tuples() const { return tuples_; }
  std::vector<TempTuple>& tuples() { return tuples_; }

  /// Reads column `col` of tuple `t` through the static map — one
  /// indirection for pointer-backed columns.
  const Value& Get(const TempTuple& t, int col) const {
    const TempColumnMap& m = map_[static_cast<size_t>(col)];
    if (m.materialized()) return t.extra[static_cast<size_t>(m.offset)];
    return t.slots[static_cast<size_t>(m.slot)]
        ->values[static_cast<size_t>(m.offset)];
  }
  const Value& Get(size_t row, int col) const {
    return Get(tuples_[row], col);
  }

  void Append(TempTuple t);

  /// Pre-sizes the tuple vector (builders that know their row count, e.g.
  /// transition tables over a batched transaction's log).
  void Reserve(size_t n) { tuples_.reserve(n); }

  /// True when `other` has an equal schema and the same column layout, so
  /// its tuples can be appended here as they are — the unique-transaction
  /// bound-table merge (§2, §6.3). Bound tables merged this way come from
  /// identically defined rule queries, which the rule engine enforces at
  /// rule-creation time.
  bool SameLayout(const TempTable& other) const;

  /// Copies out row `i` as plain values.
  std::vector<Value> MaterializeRow(size_t i) const;

  /// Copies the whole table into a user-facing ResultSet.
  ResultSet Materialize() const;

  /// Deep-copies this table (tuples share RecordRefs; cheap for
  /// pointer-backed columns).
  TempTable Clone() const;

  /// Refcount audit API (chaos invariant a): visits every RecordRef pin
  /// this table holds — one call per non-null tuple slot. A record pinned
  /// by k tuples is visited k times, matching its use_count contribution.
  template <typename Fn>
  void ForEachPinnedRecord(Fn&& fn) const {
    for (const TempTuple& t : tuples_) {
      for (const RecordRef& r : t.slots) {
        if (r != nullptr) fn(r);
      }
    }
  }

 private:
  std::string name_;
  Schema schema_;
  std::vector<TempColumnMap> map_;
  int num_slots_;
  int num_extra_;
  std::vector<TempTuple> tuples_;
};

}  // namespace strip

#endif  // STRIP_STORAGE_TEMP_TABLE_H_
