#include "strip/obs/rule_cost.h"

namespace strip {

const RuleCostHandles* RuleCostTracker::Handles(
    const std::string& function_name) {
  {
    SpinLockGuard g(lock_);
    auto it = handles_.find(function_name);
    if (it != handles_.end()) return it->second.get();
  }
  // First sighting of this function: resolve the instruments outside the
  // spinlock (registry lookups take a mutex), then publish. A racing first
  // sighting resolves the same registry pointers, so last-in wins safely.
  auto h = std::make_unique<RuleCostHandles>();
  h->queue_wait_us =
      registry_->histogram("rules.queue_wait_us." + function_name);
  h->lock_wait_us =
      registry_->histogram("rules.lock_wait_us." + function_name);
  h->exec_us = registry_->histogram("rules.exec_us." + function_name);
  h->staleness_us =
      registry_->histogram("rules.staleness_us." + function_name);
  h->cpu_micros = registry_->counter("rules.cost.cpu_micros." + function_name);
  h->rows_scanned =
      registry_->counter("rules.cost.rows_scanned." + function_name);
  h->deltas_folded =
      registry_->counter("rules.cost.deltas_folded." + function_name);
  h->lock_aborts =
      registry_->counter("rules.cost.lock_aborts." + function_name);
  SpinLockGuard g(lock_);
  auto [it, _] = handles_.try_emplace(function_name, std::move(h));
  return it->second.get();
}

}  // namespace strip
