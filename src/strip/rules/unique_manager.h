#ifndef STRIP_RULES_UNIQUE_MANAGER_H_
#define STRIP_RULES_UNIQUE_MANAGER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
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
struct UniquePartition {
  /// Per bound table (BoundTableSet order): its row groups, each in table
  /// order. A table holding unique columns has one group per distinct
  /// combination of its unique-column values, in order of first
  /// appearance; a table holding none has one group of all its rows,
  /// passed whole to every key.
  std::vector<std::vector<std::vector<uint32_t>>> groups;

  struct Key {
    std::vector<Value> values;    // in unique_columns order
    std::vector<uint32_t> group;  // per bound table: the group it receives
  };
  /// The cross product of the per-table groups (the projection of the
  /// product relation B of Appendix A), first table varying fastest.
  std::vector<Key> keys;

  /// Per bound table, per group: the last key receiving it. A merge moves
  /// the group's tuples into that key's task and copies them to earlier
  /// keys, so only tuples Appendix A hands to several keys are copied.
  std::vector<std::vector<uint32_t>> last_key;

  /// The rows of bound table `table` that key `key` receives.
  const std::vector<uint32_t>& Rows(size_t key, size_t table) const {
    return groups[table][keys[key].group[table]];
  }
};

/// Partitions a firing's bound tables by the unique columns (Appendix A).
/// With no unique columns the result is a single key with an empty value
/// receiving every row (coarse `unique`); when a table holding unique
/// columns is empty there are no keys. Fails if a unique column appears in
/// no table or in several.
Result<UniquePartition> PartitionByUniqueColumns(
    const BoundTableSet& tables,
    const std::vector<std::string>& unique_columns);

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
    mutable SpinLock lock;
    std::unordered_map<std::vector<Value>, TaskPtr, ValueVectorHash,
                       ValueVectorEq>
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
  /// `parts`' keys holds bound tables whose names, schemas or layouts
  /// differ from `tables`, so the firing's rows could not be appended.
  Status CheckMergeable(const FunctionQueue* queue,
                        const BoundTableSet& tables,
                        const UniquePartition& parts) const;

  /// Folds one firing into the queue: for each key of `parts`, in order,
  /// appends the key's rows of `tables` to the queued task for the key —
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
  size_t MergeFiring(FunctionQueue* queue, BoundTableSet&& tables,
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
