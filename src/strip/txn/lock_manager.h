#ifndef STRIP_TXN_LOCK_MANAGER_H_
#define STRIP_TXN_LOCK_MANAGER_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "strip/common/status.h"
#include "strip/obs/metrics.h"

namespace strip {

class FaultInjector;
class Table;
class Transaction;

enum class LockMode {
  kShared,
  kExclusive,
};

/// What a lock covers: a whole table or one row.
///
/// The whole-table key uses a reserved sentinel row id rather than
/// aliasing a real id: table row ids are assigned sequentially from 1
/// and can never reach ~0, so WholeTable(t) collides with no ForRow(t, n)
/// — including ForRow(t, 0), which once aliased it (a footgun the lock
/// manager tests used to have to tiptoe around).
struct LockKey {
  /// Sentinel row id naming the whole table. Unreachable by real rows
  /// (ids count up from 1).
  static constexpr uint64_t kWholeTableRowId = ~0ull;

  const Table* table = nullptr;
  uint64_t row_id = 0;

  static LockKey WholeTable(const Table* t) {
    return LockKey{t, kWholeTableRowId};
  }
  static LockKey ForRow(const Table* t, uint64_t row) {
    return LockKey{t, row};
  }

  friend bool operator==(const LockKey& a, const LockKey& b) = default;
};

/// splitmix64 finalizer: a full-avalanche 64-bit mix. Sequential row ids
/// (the common case: a burst of updates walking a table) land in distinct
/// shards and hash buckets instead of clustering.
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct LockKeyHash {
  size_t operator()(const LockKey& k) const {
    return static_cast<size_t>(
        Mix64(reinterpret_cast<uintptr_t>(k.table) ^ Mix64(k.row_id)));
  }
};

/// Aggregate lock-manager counters: the registry's `locks.*` counters,
/// resolved once. The acquire path adds to them (one relaxed increment
/// per event); benchmarks and the watchdog read them.
struct LockManagerStats {
  explicit LockManagerStats(MetricsRegistry& metrics);
  Counter& acquires;         // grants that add or upgrade a holder
  Counter& waits;            // requests that blocked at least once
  Counter& wait_die_aborts;  // younger requesters killed
  Counter& wait_micros;      // total time spent blocked
};

/// Strict two-phase locking with wait-die deadlock avoidance: a requester
/// OLDER (smaller txn id) than every conflicting holder waits; a younger
/// requester is killed immediately (Status::Aborted) and should be retried
/// by its task with the same id or a fresh one.
///
/// Lock upgrades (S held, X requested by the sole holder) are granted in
/// place. Locks are held until ReleaseAll at commit/abort (strict 2PL) —
/// notably, locks are NOT held across the triggering transaction and its
/// rule-action transaction (§6.1), which is why bound tables pin record
/// versions instead.
///
/// The lock table is partitioned into kNumShards independent shards (hash
/// of LockKey), each with its own mutex, condition variable, lock map, and
/// per-transaction held-key lists. Wait-die only ever examines the holders
/// of a single key, so per-shard synchronization preserves its semantics
/// exactly; transactions record which shards they touched (a bitmask on the
/// Transaction) so ReleaseAll visits only those.
class LockManager {
 public:
  /// Power of two; a bit in Transaction's 32-bit shard mask per shard.
  static constexpr size_t kNumShards = 16;

  /// Counts into `metrics` (see LockManagerStats).
  explicit LockManager(MetricsRegistry& metrics) : stats_(metrics) {}
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Shard a key belongs to (exposed for the distribution sanity tests).
  static size_t ShardOf(const LockKey& key) {
    return LockKeyHash{}(key) & (kNumShards - 1);
  }

  /// Acquires (possibly blocking) the lock for `txn`. Re-entrant: already
  /// holding an equal-or-stronger lock on the key is a no-op.
  Status Acquire(Transaction* txn, const LockKey& key, LockMode mode);

  /// Releases every lock `txn` holds and wakes waiters on the shards it
  /// touched.
  void ReleaseAll(Transaction* txn);

  /// Number of keys with at least one holder (diagnostics / tests).
  size_t NumLockedKeys() const;

  /// Number of locks held by `txn`.
  size_t NumHeld(const Transaction* txn) const;

  /// Full-table audit for the invariant checker: at any point where no
  /// transaction is active, every field must be zero — any residue means a
  /// completed transaction leaked lock state.
  struct Audit {
    size_t locked_keys = 0;     // keys with >= 1 holder
    size_t holder_entries = 0;  // total (txn, key) holder pairs
    size_t tracked_txns = 0;    // txns present in any shard's held map
    size_t waiters = 0;         // requests blocked on a condvar
  };
  Audit AuditState() const;

  /// Installs a chaos fault injector (testing/): Acquire consults it and
  /// may die with an injected wait-die abort before touching the lock
  /// table. Pass nullptr to remove. Not synchronized — install before
  /// concurrent use, exactly like Executor::set_obs.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  const LockManagerStats& stats() const { return stats_; }

 private:
  struct Holder {
    Transaction* txn;
    LockMode mode;
  };
  struct LockState {
    std::vector<Holder> holders;
    int waiters = 0;
  };
  /// One lock-table partition. Padded to its own cache lines so shard
  /// mutexes don't false-share.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<LockKey, LockState, LockKeyHash> locks;
    std::unordered_map<const Transaction*, std::vector<LockKey>> held;
  };

  /// True iff `txn` can be granted `mode` given current holders.
  static bool Compatible(const LockState& ls, const Transaction* txn,
                         LockMode mode);

  std::array<Shard, kNumShards> shards_;
  LockManagerStats stats_;
  FaultInjector* injector_ = nullptr;
};

}  // namespace strip

#endif  // STRIP_TXN_LOCK_MANAGER_H_
