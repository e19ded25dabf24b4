#ifndef STRIP_STORAGE_BOUND_TABLE_SET_H_
#define STRIP_STORAGE_BOUND_TABLE_SET_H_

#include <memory>
#include <string>
#include <vector>

#include "strip/common/status.h"
#include "strip/storage/temp_table.h"

namespace strip {

/// The named temporary tables a triggered task can read (§6.3): transition
/// tables and/or `bind as` query results. Resolved BEFORE the catalog when
/// the task's queries name a table. Read-only from the task's perspective.
class BoundTableSet {
 public:
  BoundTableSet() = default;
  BoundTableSet(BoundTableSet&&) = default;
  BoundTableSet& operator=(BoundTableSet&&) = default;
  BoundTableSet(const BoundTableSet&) = delete;
  BoundTableSet& operator=(const BoundTableSet&) = delete;

  /// Adds a table under its own name. Fails on duplicate names.
  Status Add(TempTable table);

  /// The table named `name` (case-insensitive), or nullptr.
  const TempTable* Find(const std::string& name) const;
  TempTable* FindMutable(const std::string& name);

  size_t size() const { return tables_.size(); }
  const std::vector<TempTable>& tables() const { return tables_; }
  std::vector<TempTable>& tables() { return tables_; }

  /// Total number of tuples across all tables (batch size metric).
  size_t TotalTuples() const;

  /// Refcount audit API (chaos invariant a): every RecordRef pin across
  /// every bound table, one call per pin.
  template <typename Fn>
  void ForEachPinnedRecord(Fn&& fn) const {
    for (const TempTable& t : tables_) t.ForEachPinnedRecord(fn);
  }

 private:
  std::vector<TempTable> tables_;
};

}  // namespace strip

#endif  // STRIP_STORAGE_BOUND_TABLE_SET_H_
