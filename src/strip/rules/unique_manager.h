#ifndef STRIP_RULES_UNIQUE_MANAGER_H_
#define STRIP_RULES_UNIQUE_MANAGER_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "strip/common/spin_lock.h"
#include "strip/common/status.h"
#include "strip/storage/bound_table_set.h"
#include "strip/txn/task.h"

namespace strip {

/// A rule firing's bound tables split per unique key (Appendix A), as row
/// indexes into the firing's own tables: partitioning copies no tuple.
/// Every array is flat, so a partition costs a handful of allocations
/// however many keys it has.
struct UniquePartition {
  /// One bound table's rows, grouped. A table holding unique columns has
  /// one group per distinct combination of its unique-column values, in
  /// order of first appearance; a table holding none has one group of all
  /// its rows, passed whole to every key. Rows keep table order in each
  /// group.
  struct TableGroups {
    std::vector<uint32_t> rows;   // group g: rows[begin[g], begin[g + 1])
    std::vector<uint32_t> begin;  // num_groups() + 1 offsets
    /// Per group: the last key receiving it. A merge moves the group's
    /// tuples into that key's task and copies them to earlier keys, so
    /// only tuples Appendix A hands to several keys are copied.
    std::vector<uint32_t> last_key;

    size_t num_groups() const { return begin.empty() ? 0 : begin.size() - 1; }
  };
  std::vector<TableGroups> tables;  // BoundTableSet order

  /// The keys: the cross product of the per-table groups (the projection
  /// of the product relation B of Appendix A), first table varying
  /// fastest. Key k's values (in unique_columns order) are
  /// key_values[k * num_columns, (k + 1) * num_columns), and the group
  /// each table hands it is key_groups[k * tables.size() + table].
  size_t num_keys = 0;
  size_t num_columns = 0;
  std::vector<Value> key_values;
  std::vector<uint32_t> key_groups;

  std::span<const Value> Key(size_t key) const {
    return {key_values.data() + key * num_columns, num_columns};
  }
  uint32_t GroupOf(size_t key, size_t table) const {
    return key_groups[key * tables.size() + table];
  }
  /// The rows of bound table `table` that key `key` receives.
  std::span<const uint32_t> Rows(size_t key, size_t table) const {
    const TableGroups& t = tables[table];
    const uint32_t g = GroupOf(key, table);
    return {t.rows.data() + t.begin[g], t.begin[g + 1] - t.begin[g]};
  }
  /// True when `key` is the last key receiving its group of `table`.
  bool IsLastKey(size_t key, size_t table) const {
    return tables[table].last_key[GroupOf(key, table)] == key;
  }
};

/// Where one `unique on` column lives among a rule's bound tables: the
/// table's position in the firing's BoundTableSet and the column's.
struct UniqueColumnHome {
  int table = -1;
  int column = -1;
};

/// Resolves `unique_columns` against the schemas of a rule's bound tables,
/// in BoundTableSet order. Appendix A assumes column names are unique
/// across the bound tables: NotFound when a column appears in no table,
/// InvalidArgument when it appears in several. The rule engine resolves
/// once per plan generation, not per firing.
Result<std::vector<UniqueColumnHome>> ResolveUniqueColumns(
    const std::vector<const Schema*>& schemas,
    const std::vector<std::string>& unique_columns);

/// The id of a bound-table set's layout: equal ids mean equal table names
/// and, per name, an equal schema and column layout (TempTable::SameLayout)
/// so one set's tuples can be appended to the other's as they are. Ids
/// are interned process-wide; the rule engine takes one per plan
/// generation, so the merge check compares two integers.
uint64_t BoundLayoutId(const BoundTableSet& tables);

/// Partitions a firing's bound tables by the unique columns at `homes`
/// (Appendix A). With no unique columns the result is a single key with an
/// empty value receiving every row (coarse `unique`); when a table holding
/// unique columns is empty there are no keys. Rows are grouped by hashing
/// their key columns in place: no key is built per row.
UniquePartition PartitionByUniqueColumns(
    const BoundTableSet& tables, const std::vector<UniqueColumnHome>& homes);

/// Hash / equality of unique keys that also take a key as a span of
/// values, so a queue is searched with a partition's key in place.
struct KeySpanHash {
  using is_transparent = void;
  size_t operator()(std::span<const Value> key) const;
  size_t operator()(const std::vector<Value>& key) const {
    return (*this)(std::span<const Value>(key));
  }
};
struct KeySpanEq {
  using is_transparent = void;
  bool operator()(std::span<const Value> a, std::span<const Value> b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

/// Implements unique transactions (§6.3): one hash table per user function
/// mapping unique-column values to the queued (not yet started) task. Each
/// key of a new firing either merges its rows into the queued task or
/// registers a fresh one. All hash-table accesses are spinlock-guarded, as
/// in STRIP.
///
/// The function-name -> hash-table directory is itself striped (hash of
/// the function name) so concurrent rule creations and task starts for
/// different functions never touch the same directory spinlock; within a
/// stripe the lock is held only for the pointer lookup, and the
/// per-function table has its own spinlock for the queued-task map.
class UniqueTxnManager {
 public:
  UniqueTxnManager() = default;
  UniqueTxnManager(const UniqueTxnManager&) = delete;
  UniqueTxnManager& operator=(const UniqueTxnManager&) = delete;

  /// One function's hash table of queued tasks, keyed by unique-column
  /// values. Handles are stable for the manager's lifetime; only the
  /// manager reads or writes their contents.
  struct FunctionQueue {
    /// A queued task and the BoundLayoutId of its bound tables.
    struct Entry {
      TaskPtr task;
      uint64_t layout = 0;
    };
    mutable SpinLock lock;
    /// Looked up by a partition's key values in place (KeySpanHash).
    std::unordered_map<std::vector<Value>, Entry, KeySpanHash, KeySpanEq>
        queued;
  };

  /// Builds (if needed) the per-function hash table and returns its
  /// handle; the paper creates it when the first rule executing the
  /// function is defined. The rule engine resolves it once per rule.
  FunctionQueue* EnsureFunction(const std::string& function_name);

  /// Factory for a fresh task; receives the unique key and the key's bound
  /// tables.
  using TaskFactory = std::function<TaskPtr(const std::vector<Value>& key,
                                            BoundTableSet&& tables)>;

  /// The check a firing passes before anything of its commit is merged:
  /// fails (Internal) when a queued, not yet started task for one of
  /// `parts`' keys holds bound tables of another layout than `layout` (the
  /// firing's BoundLayoutId), so the firing's rows could not be appended.
  Status CheckMergeable(const FunctionQueue* queue, uint64_t layout,
                        const UniquePartition& parts) const;

  /// Folds one firing, whose bound tables have layout id `layout`, into
  /// the queue: for each key of `parts`, in order, appends the key's rows
  /// of `tables` to the queued task for the key —
  /// moving each tuple into the last key that receives it and copying it
  /// to earlier ones — or builds the key's tables and a fresh task through
  /// `factory`, registers it and appends it to `created` (the caller
  /// submits it once the commit is durable). A queued task that has
  /// already started no longer accepts merges (§2), and neither does one
  /// whose layout no longer matches (a concurrent firing of another rule
  /// slipped in after CheckMergeable): a fresh task replaces it. Per key,
  /// rows stay in commit order, then condition-output order. The queued
  /// task's staleness stamps (oldest/newest change, batched firing count)
  /// fold `change_time` under its merge lock; a merged firing appends
  /// `parent_trace_id` (0 = untraced) to merged_parent_traces so the
  /// causal link survives the fold. Returns the number of keys merged.
  size_t MergeFiring(FunctionQueue* queue, uint64_t layout,
                     BoundTableSet&& tables,
                     const UniquePartition& parts, Timestamp change_time,
                     uint64_t parent_trace_id, const TaskFactory& factory,
                     std::vector<TaskPtr>& created);

  /// Removes the task's hash entry; called when the task begins to run
  /// (§6.3). Idempotent.
  void OnTaskStart(const TaskControlBlock& task);

  /// Number of queued unique tasks for a function (diagnostics / tests).
  size_t NumQueued(const std::string& function_name) const;

  /// Audit API for the chaos invariant checker (invariant c): every
  /// directory entry as (function name, queued task). The snapshot is
  /// internally consistent per stripe; call between simulated steps (no
  /// concurrent merges / starts) for a fully consistent view.
  std::vector<std::pair<std::string, TaskPtr>> SnapshotQueued() const;

 private:
  static constexpr size_t kNumStripes = 16;

  /// One directory partition; padded so stripe spinlocks don't false-share.
  struct alignas(64) Stripe {
    mutable SpinLock lock;
    // FunctionQueue values are stable under rehash (unordered_map never
    // moves mapped objects), so handles survive later inserts.
    std::unordered_map<std::string, FunctionQueue> tables;
  };

  static size_t StripeOf(const std::string& function_name);

  FunctionQueue* Find(const std::string& function_name);
  const FunctionQueue* Find(const std::string& function_name) const;

  std::array<Stripe, kNumStripes> stripes_;
};

}  // namespace strip

#endif  // STRIP_RULES_UNIQUE_MANAGER_H_
