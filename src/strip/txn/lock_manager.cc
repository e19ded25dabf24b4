#include "strip/txn/lock_manager.h"

#include <algorithm>

#include "strip/common/clock.h"
#include "strip/common/string_util.h"
#include "strip/testing/fault_injector.h"
#include "strip/txn/transaction.h"

namespace strip {

LockManagerStats::LockManagerStats(MetricsRegistry& metrics)
    : acquires(*metrics.counter("locks.acquires")),
      waits(*metrics.counter("locks.waits")),
      wait_die_aborts(*metrics.counter("locks.wait_die_aborts")),
      wait_micros(*metrics.counter("locks.wait_micros")) {}

bool LockManager::Compatible(const LockState& ls, const Transaction* txn,
                             LockMode mode) {
  for (const Holder& h : ls.holders) {
    if (h.txn == txn) continue;  // own locks never conflict
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

Status LockManager::Acquire(Transaction* txn, const LockKey& key,
                            LockMode mode) {
  // Chaos hook: an injected wait-die death, before any lock-table state is
  // touched — the victim txn holds exactly what it held, and the caller's
  // abort path must release it all (the residue invariant checks that).
  if (injector_ != nullptr &&
      injector_->ShouldAbortLockAcquire(txn->id(), txn->NextAcquireSeq())) {
    stats_.wait_die_aborts.Add();
    return Status::Aborted(StrFormat(
        "wait-die (injected): txn %llu dies acquiring a lock",
        static_cast<unsigned long long>(txn->id())));
  }
  const size_t shard_index = ShardOf(key);
  Shard& shard = shards_[shard_index];
  std::unique_lock<std::mutex> lk(shard.mu);
  LockState* ls = &shard.locks.try_emplace(key).first->second;

  // Re-entrancy / upgrade bookkeeping: find our existing holder entry.
  auto self = std::find_if(ls->holders.begin(), ls->holders.end(),
                           [&](const Holder& h) { return h.txn == txn; });
  if (self != ls->holders.end()) {
    if (self->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      return Status::OK();  // already strong enough: nothing granted
    }
    // Upgrade request: wait until we are the only holder.
  }

  bool waited = false;
  StopWatch blocked;
  while (!Compatible(*ls, txn, mode)) {
    // Wait-die: wait only if older than every conflicting holder. Age is
    // the (priority, id) pair; restarted transactions keep their original
    // priority so they eventually win (see Transaction::priority()).
    for (const Holder& h : ls->holders) {
      if (h.txn == txn) continue;
      bool conflicts =
          mode == LockMode::kExclusive || h.mode == LockMode::kExclusive;
      bool holder_older =
          h.txn->priority() < txn->priority() ||
          (h.txn->priority() == txn->priority() && h.txn->id() < txn->id());
      if (conflicts && holder_older) {
        stats_.wait_die_aborts.Add();
        if (waited) {
          Timestamp us = static_cast<Timestamp>(blocked.ElapsedMicros());
          stats_.wait_micros.Add(static_cast<uint64_t>(us));
          txn->AddLockWaitMicros(us);
        }
        if (ls->holders.empty() && ls->waiters == 0) {
          // Erase by key: the insertion iterator may have been invalidated
          // by a rehash while this thread was blocked on the condvar
          // (pointers to mapped values are stable; iterators are not).
          shard.locks.erase(key);
        }
        return Status::Aborted(StrFormat(
            "wait-die: txn %llu dies waiting for older txn %llu",
            static_cast<unsigned long long>(txn->id()),
            static_cast<unsigned long long>(h.txn->id())));
      }
    }
    if (!waited) {
      waited = true;
      blocked.Restart();
      stats_.waits.Add();
    }
    ++ls->waiters;
    shard.cv.wait(lk);
    --ls->waiters;
    // LockState reference stays valid: entries are only erased when both
    // holders and waiters are gone.
  }
  if (waited) {
    Timestamp us = static_cast<Timestamp>(blocked.ElapsedMicros());
    stats_.wait_micros.Add(static_cast<uint64_t>(us));
    txn->AddLockWaitMicros(us);
  }

  // Granted.
  stats_.acquires.Add();
  self = std::find_if(ls->holders.begin(), ls->holders.end(),
                      [&](const Holder& h) { return h.txn == txn; });
  if (self != ls->holders.end()) {
    self->mode = LockMode::kExclusive;  // successful upgrade
  } else {
    ls->holders.push_back(Holder{txn, mode});
    shard.held[txn].push_back(key);
    txn->AddLockShard(shard_index);
  }
  return Status::OK();
}

void LockManager::ReleaseAll(Transaction* txn) {
  uint32_t mask = txn->lock_shard_mask();
  if (mask == 0) return;
  for (size_t s = 0; s < kNumShards; ++s) {
    if ((mask & (1u << s)) == 0) continue;
    Shard& shard = shards_[s];
    bool wake = false;
    {
      std::lock_guard<std::mutex> lk(shard.mu);
      auto it = shard.held.find(txn);
      if (it == shard.held.end()) continue;
      for (const LockKey& key : it->second) {
        auto ls_it = shard.locks.find(key);
        if (ls_it == shard.locks.end()) continue;
        LockState& ls = ls_it->second;
        ls.holders.erase(
            std::remove_if(ls.holders.begin(), ls.holders.end(),
                           [&](const Holder& h) { return h.txn == txn; }),
            ls.holders.end());
        if (ls.waiters > 0) wake = true;
        if (ls.holders.empty() && ls.waiters == 0) {
          shard.locks.erase(ls_it);
        }
      }
      shard.held.erase(it);
    }
    if (wake) shard.cv.notify_all();
  }
  txn->ClearLockShards();
}

size_t LockManager::NumLockedKeys() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.mu);
    for (const auto& [key, ls] : shard.locks) {
      if (!ls.holders.empty()) ++n;
    }
  }
  return n;
}

LockManager::Audit LockManager::AuditState() const {
  Audit a;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.mu);
    for (const auto& [key, ls] : shard.locks) {
      if (!ls.holders.empty()) ++a.locked_keys;
      a.holder_entries += ls.holders.size();
      a.waiters += static_cast<size_t>(ls.waiters);
    }
    a.tracked_txns += shard.held.size();
  }
  return a;
}

size_t LockManager::NumHeld(const Transaction* txn) const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.held.find(txn);
    if (it != shard.held.end()) n += it->second.size();
  }
  return n;
}

}  // namespace strip
