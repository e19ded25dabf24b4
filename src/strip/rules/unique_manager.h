#ifndef STRIP_RULES_UNIQUE_MANAGER_H_
#define STRIP_RULES_UNIQUE_MANAGER_H_

#include <array>
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

/// Splits a rule firing's bound tables into per-unique-key partitions
/// (Appendix A). Tables containing unique columns are partitioned by the
/// distinct combinations of their unique-column values; tables containing
/// none are passed whole (cloned) to every partition. With no unique
/// columns, the result is a single partition with an empty key (coarse
/// `unique`). Fails if a unique column appears in no table or in several.
Result<std::vector<std::pair<std::vector<Value>, BoundTableSet>>>
PartitionByUniqueColumns(BoundTableSet&& tables,
                         const std::vector<std::string>& unique_columns);

/// Implements unique transactions (§6.3): one hash table per user function
/// mapping unique-column values to the queued (not yet started) task. A new
/// firing either merges its bound tables into the queued task or registers
/// a fresh one. All hash-table accesses are spinlock-guarded, as in STRIP.
///
/// The function-name -> hash-table directory is itself striped (hash of
/// the function name) so concurrent commits and task starts for different
/// functions never touch the same directory spinlock; within a stripe the
/// lock is held only for the pointer lookup, and the per-function table
/// has its own spinlock for the queued-task map.
class UniqueTxnManager {
 public:
  UniqueTxnManager() = default;
  UniqueTxnManager(const UniqueTxnManager&) = delete;
  UniqueTxnManager& operator=(const UniqueTxnManager&) = delete;

  /// Builds (if needed) the per-function hash table; the paper creates it
  /// when the first rule executing the function is defined.
  void EnsureFunction(const std::string& function_name);

  /// Factory for a fresh task; receives the unique key and the partition's
  /// bound tables.
  using TaskFactory = std::function<TaskPtr(const std::vector<Value>& key,
                                            BoundTableSet&& tables)>;

  /// Either appends `tables` to the queued task for (function, key) —
  /// returning nullptr — or creates, registers, and returns a new task the
  /// caller must submit to the executor. A queued task that has already
  /// started no longer accepts merges (§2): a fresh task replaces it.
  /// `change_time` is the feed-arrival time of the triggering change; the
  /// queued task's staleness stamps (oldest/newest change, batched firing
  /// count) are folded under its merge lock. `parent_trace_id` is the
  /// triggering transaction's trace (0 = untraced); a merged firing
  /// appends it to the queued task's merged_parent_traces so the causal
  /// link survives the fold.
  Result<TaskPtr> MergeOrCreate(const std::string& function_name,
                                const std::vector<Value>& key,
                                BoundTableSet&& tables,
                                Timestamp change_time,
                                uint64_t parent_trace_id,
                                const TaskFactory& factory);

  /// Untraced convenience overload (tests / benches without a trace).
  Result<TaskPtr> MergeOrCreate(const std::string& function_name,
                                const std::vector<Value>& key,
                                BoundTableSet&& tables,
                                Timestamp change_time,
                                const TaskFactory& factory) {
    return MergeOrCreate(function_name, key, std::move(tables), change_time,
                         /*parent_trace_id=*/0, factory);
  }

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

  struct FuncTable {
    mutable SpinLock lock;
    std::unordered_map<std::vector<Value>, TaskPtr, ValueVectorHash,
                       ValueVectorEq>
        queued;
  };
  /// One directory partition; padded so stripe spinlocks don't false-share.
  struct alignas(64) Stripe {
    mutable SpinLock lock;
    // FuncTable values are stable under rehash (unordered_map never moves
    // mapped objects), so pointers handed out survive later inserts.
    std::unordered_map<std::string, FuncTable> tables;
  };

  static size_t StripeOf(const std::string& function_name);

  FuncTable* GetOrCreate(const std::string& function_name);
  FuncTable* Find(const std::string& function_name);
  const FuncTable* Find(const std::string& function_name) const;

  std::array<Stripe, kNumStripes> stripes_;
};

}  // namespace strip

#endif  // STRIP_RULES_UNIQUE_MANAGER_H_
