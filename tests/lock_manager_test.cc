// Lock manager tests: compatibility matrix, re-entrancy, upgrades,
// wait-die deadlock avoidance, blocking + wakeup across threads, shard
// striping (hash distribution, cross-shard release, stats counters).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "strip/obs/metrics.h"
#include "strip/storage/table.h"
#include "strip/testing/fault_injector.h"
#include "strip/txn/lock_manager.h"
#include "strip/txn/transaction.h"
#include "tests/test_util.h"

namespace strip {
namespace {

Schema KV() {
  Schema s;
  s.AddColumn("k", ValueType::kString);
  return s;
}

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest() : table_("t", KV()), older_(1, 0), younger_(2, 0) {}

  MetricsRegistry metrics_;
  LockManager lm_{metrics_};
  Table table_;
  Transaction older_;
  Transaction younger_;
};

TEST_F(LockManagerTest, WholeTableDoesNotAliasRowZero) {
  // Regression: WholeTable(t) used to be spelled {t, 0}, colliding with
  // ForRow(t, 0). The sentinel makes them distinct keys, so two
  // transactions can hold them exclusively at the same time.
  EXPECT_NE(LockKey::WholeTable(&table_), LockKey::ForRow(&table_, 0));
  EXPECT_EQ(LockKey::WholeTable(&table_),
            LockKey::ForRow(&table_, LockKey::kWholeTableRowId));
  ASSERT_OK(lm_.Acquire(&older_, LockKey::WholeTable(&table_),
                        LockMode::kExclusive));
  ASSERT_OK(lm_.Acquire(&younger_, LockKey::ForRow(&table_, 0),
                        LockMode::kExclusive));
  EXPECT_EQ(lm_.NumLockedKeys(), 2u);
  lm_.ReleaseAll(&older_);
  lm_.ReleaseAll(&younger_);
  EXPECT_EQ(lm_.NumLockedKeys(), 0u);
}

TEST_F(LockManagerTest, SharedLocksAreCompatible) {
  LockKey key = LockKey::WholeTable(&table_);
  ASSERT_OK(lm_.Acquire(&older_, key, LockMode::kShared));
  ASSERT_OK(lm_.Acquire(&younger_, key, LockMode::kShared));
  EXPECT_EQ(lm_.NumLockedKeys(), 1u);
  lm_.ReleaseAll(&older_);
  lm_.ReleaseAll(&younger_);
  EXPECT_EQ(lm_.NumLockedKeys(), 0u);
}

TEST_F(LockManagerTest, ReentrantAcquisition) {
  LockKey key = LockKey::WholeTable(&table_);
  ASSERT_OK(lm_.Acquire(&older_, key, LockMode::kExclusive));
  ASSERT_OK(lm_.Acquire(&older_, key, LockMode::kExclusive));
  ASSERT_OK(lm_.Acquire(&older_, key, LockMode::kShared));  // weaker: no-op
  EXPECT_EQ(lm_.NumHeld(&older_), 1u);
  lm_.ReleaseAll(&older_);
}

TEST_F(LockManagerTest, UpgradeWhenSoleHolder) {
  LockKey key = LockKey::WholeTable(&table_);
  ASSERT_OK(lm_.Acquire(&older_, key, LockMode::kShared));
  ASSERT_OK(lm_.Acquire(&older_, key, LockMode::kExclusive));
  // Now exclusive: a younger shared request dies.
  EXPECT_EQ(lm_.Acquire(&younger_, key, LockMode::kShared).code(),
            StatusCode::kAborted);
  lm_.ReleaseAll(&older_);
}

TEST_F(LockManagerTest, WaitDieYoungerDies) {
  LockKey key = LockKey::WholeTable(&table_);
  ASSERT_OK(lm_.Acquire(&older_, key, LockMode::kExclusive));
  Status st = lm_.Acquire(&younger_, key, LockMode::kExclusive);
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_NE(st.message().find("wait-die"), std::string::npos);
  lm_.ReleaseAll(&older_);
}

TEST_F(LockManagerTest, RowLocksAreIndependent) {
  ASSERT_OK(lm_.Acquire(&older_, LockKey::ForRow(&table_, 1),
                        LockMode::kExclusive));
  ASSERT_OK(lm_.Acquire(&younger_, LockKey::ForRow(&table_, 2),
                        LockMode::kExclusive));
  EXPECT_EQ(lm_.NumLockedKeys(), 2u);
  lm_.ReleaseAll(&older_);
  lm_.ReleaseAll(&younger_);
}

TEST_F(LockManagerTest, OlderWaitsUntilYoungerReleases) {
  // Younger holds X; older requests it and must BLOCK (not die) until the
  // younger transaction releases.
  LockKey key = LockKey::WholeTable(&table_);
  ASSERT_OK(lm_.Acquire(&younger_, key, LockMode::kExclusive));

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Status st = lm_.Acquire(&older_, key, LockMode::kExclusive);
    EXPECT_TRUE(st.ok()) << st.ToString();
    acquired = true;
  });
  // Give the waiter a moment to block.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(acquired.load());
  lm_.ReleaseAll(&younger_);
  waiter.join();
  EXPECT_TRUE(acquired.load());
  lm_.ReleaseAll(&older_);
}

TEST_F(LockManagerTest, ManyThreadsSerializeOnExclusiveLock) {
  // Wait-die may abort younger requesters; the standard protocol retries
  // the aborted transaction. Mutual exclusion must hold throughout.
  constexpr int kThreads = 8;
  LockKey key = LockKey::WholeTable(&table_);
  std::atomic<uint64_t> next_txn_id{1};
  int counter = 0;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (;;) {
        Transaction txn(next_txn_id.fetch_add(1), 0);
        Status st = lm_.Acquire(&txn, key, LockMode::kExclusive);
        if (!st.ok()) {
          ASSERT_EQ(st.code(), StatusCode::kAborted) << st.ToString();
          lm_.ReleaseAll(&txn);
          std::this_thread::yield();
          continue;  // retry as a fresh (younger) transaction
        }
        int v = counter;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter = v + 1;  // would race without mutual exclusion
        lm_.ReleaseAll(&txn);
        return;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, kThreads);
  EXPECT_EQ(lm_.NumLockedKeys(), 0u);
}

TEST_F(LockManagerTest, SequentialRowIdsSpreadAcrossShards) {
  // A burst of updates walks a table in row-id order; the splitmix64 key
  // hash must spread consecutive row ids over the shards instead of
  // clustering them (the weakness of xor-folding table ^ row_id).
  constexpr int kRows = 4096;
  std::vector<int> per_shard(LockManager::kNumShards, 0);
  for (int row = 0; row < kRows; ++row) {
    size_t shard = LockManager::ShardOf(
        LockKey::ForRow(&table_, static_cast<uint64_t>(row)));
    ASSERT_LT(shard, LockManager::kNumShards);
    ++per_shard[shard];
  }
  int expect = kRows / static_cast<int>(LockManager::kNumShards);
  // Every shard within 50% of uniform: catastrophic clustering (all rows
  // on a handful of shards) is what this guards against.
  for (size_t s = 0; s < LockManager::kNumShards; ++s) {
    EXPECT_GT(per_shard[s], expect / 2) << "shard " << s;
    EXPECT_LT(per_shard[s], expect * 2) << "shard " << s;
  }
}

TEST_F(LockManagerTest, HashDiffersForAdjacentRows) {
  LockKeyHash h;
  size_t collisions = 0;
  for (uint64_t row = 0; row < 1000; ++row) {
    if (h(LockKey::ForRow(&table_, row)) ==
        h(LockKey::ForRow(&table_, row + 1))) {
      ++collisions;
    }
  }
  EXPECT_EQ(collisions, 0u);
}

TEST_F(LockManagerTest, ReleaseAllSpansShards) {
  // Locks on many row ids land on (virtually) every shard; one ReleaseAll
  // must find them all via the transaction's shard mask.
  constexpr uint64_t kRows = 256;
  for (uint64_t row = 0; row < kRows; ++row) {
    ASSERT_OK(lm_.Acquire(&older_, LockKey::ForRow(&table_, row),
                          LockMode::kExclusive));
  }
  EXPECT_EQ(lm_.NumHeld(&older_), kRows);
  EXPECT_EQ(lm_.NumLockedKeys(), kRows);
  lm_.ReleaseAll(&older_);
  EXPECT_EQ(lm_.NumHeld(&older_), 0u);
  EXPECT_EQ(lm_.NumLockedKeys(), 0u);
  // The mask was cleared: another full acquire/release round still works.
  for (uint64_t row = 0; row < kRows; ++row) {
    ASSERT_OK(lm_.Acquire(&older_, LockKey::ForRow(&table_, row),
                          LockMode::kShared));
  }
  lm_.ReleaseAll(&older_);
  EXPECT_EQ(lm_.NumLockedKeys(), 0u);
}

TEST_F(LockManagerTest, StatsCountAcquiresWaitsAndAborts) {
  LockKey key = LockKey::WholeTable(&table_);
  ASSERT_OK(lm_.Acquire(&older_, key, LockMode::kExclusive));
  EXPECT_EQ(lm_.stats().acquires.load(), 1u);

  // Re-entries grant nothing and are not counted: S on a held X ...
  ASSERT_OK(lm_.Acquire(&older_, key, LockMode::kShared));
  EXPECT_EQ(lm_.stats().acquires.load(), 1u);
  // ... and S on a held S (the first S on the row is a grant).
  LockKey row = LockKey::ForRow(&table_, 7);
  ASSERT_OK(lm_.Acquire(&older_, row, LockMode::kShared));
  EXPECT_EQ(lm_.stats().acquires.load(), 2u);
  ASSERT_OK(lm_.Acquire(&older_, row, LockMode::kShared));
  EXPECT_EQ(lm_.stats().acquires.load(), 2u);

  // Younger conflicting request: wait-die abort, counted.
  EXPECT_EQ(lm_.Acquire(&younger_, key, LockMode::kExclusive).code(),
            StatusCode::kAborted);
  EXPECT_EQ(lm_.stats().wait_die_aborts.load(), 1u);
  lm_.ReleaseAll(&older_);

  // Older blocking behind younger: counted as one wait with nonzero time.
  ASSERT_OK(lm_.Acquire(&younger_, key, LockMode::kExclusive));
  std::thread waiter([&] {
    ASSERT_OK(lm_.Acquire(&older_, key, LockMode::kExclusive));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm_.ReleaseAll(&younger_);
  waiter.join();
  lm_.ReleaseAll(&older_);
  EXPECT_EQ(lm_.stats().waits.load(), 1u);
  EXPECT_GT(lm_.stats().wait_micros.load(), 0u);
}

TEST_F(LockManagerTest, UpgradeInPlaceOnOneShardedKey) {
  // Upgrade on a row key (not the whole-table key of UpgradeWhenSoleHolder)
  // stays a single held entry on its shard.
  LockKey key = LockKey::ForRow(&table_, 123);
  ASSERT_OK(lm_.Acquire(&older_, key, LockMode::kShared));
  ASSERT_OK(lm_.Acquire(&older_, key, LockMode::kExclusive));
  EXPECT_EQ(lm_.NumHeld(&older_), 1u);
  EXPECT_EQ(lm_.Acquire(&younger_, key, LockMode::kShared).code(),
            StatusCode::kAborted);
  lm_.ReleaseAll(&older_);
  EXPECT_EQ(lm_.NumLockedKeys(), 0u);
}

TEST_F(LockManagerTest, ConcurrentDisjointRowsDontInterfere) {
  // Threads hammering different rows (hence mostly different shards) must
  // never block each other or corrupt the shard maps.
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<uint64_t> next_txn_id{1};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        Transaction txn(next_txn_id.fetch_add(1), 0);
        uint64_t row = static_cast<uint64_t>(t * kIters + i);
        ASSERT_OK(lm_.Acquire(&txn, LockKey::ForRow(&table_, row),
                              LockMode::kExclusive));
        ASSERT_OK(lm_.Acquire(&txn, LockKey::ForRow(&table_, row + 10000),
                              LockMode::kShared));
        lm_.ReleaseAll(&txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(lm_.NumLockedKeys(), 0u);
  EXPECT_EQ(lm_.stats().acquires.load(),
            static_cast<uint64_t>(kThreads * kIters * 2));
}

// ---------------------------------------------------------------------------
// Wait-die restart path (chaos satellite): a death must leave zero residue
// in every shard, and a restarted transaction keeps its ORIGINAL age.
// ---------------------------------------------------------------------------

TEST_F(LockManagerTest, DeathReleasesEverythingAcrossShards) {
  // The victim holds row locks spread across many shards when it dies on
  // a contested key; ReleaseAll must scrub every shard, not just the one
  // it died in.
  for (uint64_t row = 0; row <= 64; ++row) {
    ASSERT_OK(lm_.Acquire(&younger_, LockKey::ForRow(&table_, row),
                          LockMode::kExclusive));
  }
  LockKey contested = LockKey::WholeTable(&table_);
  ASSERT_OK(lm_.Acquire(&older_, contested, LockMode::kExclusive));
  EXPECT_EQ(lm_.Acquire(&younger_, contested, LockMode::kShared).code(),
            StatusCode::kAborted);
  lm_.ReleaseAll(&younger_);

  LockManager::Audit audit = lm_.AuditState();
  EXPECT_EQ(audit.locked_keys, 1u);     // only the older holder's key
  EXPECT_EQ(audit.holder_entries, 1u);
  EXPECT_EQ(audit.tracked_txns, 1u);
  EXPECT_EQ(audit.waiters, 0u);

  lm_.ReleaseAll(&older_);
  audit = lm_.AuditState();
  EXPECT_EQ(audit.locked_keys, 0u);
  EXPECT_EQ(audit.holder_entries, 0u);
  EXPECT_EQ(audit.tracked_txns, 0u);
  EXPECT_EQ(audit.waiters, 0u);
}

TEST_F(LockManagerTest, InjectedDeathThenRestartKeepsOriginalPriority) {
  FaultInjectorConfig cfg;
  cfg.seed = 3;
  cfg.lock_abort_rate = 1.0;  // every acquire dies
  FaultInjector injector(cfg);
  lm_.set_fault_injector(&injector);

  Transaction victim(10, 0);
  LockKey key = LockKey::WholeTable(&table_);
  Status st = lm_.Acquire(&victim, key, LockMode::kExclusive);
  ASSERT_EQ(st.code(), StatusCode::kAborted);
  EXPECT_NE(st.message().find("injected"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(injector.stats().lock_aborts.load(), 1u);
  EXPECT_GE(lm_.stats().wait_die_aborts.load(), 1u);
  lm_.ReleaseAll(&victim);
  lm_.set_fault_injector(nullptr);

  // An injected death is killed BEFORE touching the lock table: nothing
  // to scrub, nothing leaked.
  LockManager::Audit audit = lm_.AuditState();
  EXPECT_EQ(audit.locked_keys, 0u);
  EXPECT_EQ(audit.holder_entries, 0u);
  EXPECT_EQ(audit.tracked_txns, 0u);

  // Classic wait-die restart: fresh id, ORIGINAL priority. The restarted
  // transaction must still look older than transactions born after the
  // victim — a younger requester dies against it.
  Transaction restarted(11, 0, victim.priority());
  EXPECT_EQ(restarted.priority(), 10u);
  ASSERT_OK(lm_.Acquire(&restarted, key, LockMode::kExclusive));
  Transaction young(12, 0);
  EXPECT_EQ(lm_.Acquire(&young, key, LockMode::kShared).code(),
            StatusCode::kAborted);
  lm_.ReleaseAll(&restarted);
  EXPECT_EQ(lm_.AuditState().locked_keys, 0u);
}

TEST_F(LockManagerTest, InjectedDeathsUnderConcurrencyLeaveCleanShards) {
  // Threads race acquire/release with a 30% injected death rate; after the
  // storm every shard must be empty — the residue invariant the chaos
  // harness checks after every simulated step.
  FaultInjectorConfig cfg;
  cfg.seed = 17;
  cfg.lock_abort_rate = 0.3;
  FaultInjector injector(cfg);
  lm_.set_fault_injector(&injector);

  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  std::atomic<uint64_t> next_txn_id{100};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        Transaction txn(next_txn_id.fetch_add(1), 0);
        uint64_t row = static_cast<uint64_t>((t * kIters + i) % 50);
        Status a = lm_.Acquire(&txn, LockKey::ForRow(&table_, row),
                               LockMode::kExclusive);
        if (a.ok()) {
          // Second acquire may draw an injected death mid-transaction.
          (void)lm_.Acquire(&txn, LockKey::ForRow(&table_, row + 1000),
                            LockMode::kShared);
        }
        lm_.ReleaseAll(&txn);
      }
    });
  }
  for (auto& th : threads) th.join();
  lm_.set_fault_injector(nullptr);

  EXPECT_GT(injector.stats().lock_aborts.load(), 0u);
  LockManager::Audit audit = lm_.AuditState();
  EXPECT_EQ(audit.locked_keys, 0u);
  EXPECT_EQ(audit.holder_entries, 0u);
  EXPECT_EQ(audit.tracked_txns, 0u);
  EXPECT_EQ(audit.waiters, 0u);
}

}  // namespace
}  // namespace strip
