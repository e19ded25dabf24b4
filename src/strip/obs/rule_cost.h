#ifndef STRIP_OBS_RULE_COST_H_
#define STRIP_OBS_RULE_COST_H_

#include <map>
#include <memory>
#include <string>

#include "strip/common/spin_lock.h"
#include "strip/obs/metrics.h"

namespace strip {

/// Registry handles for one rule function's latency breakdown and cost
/// attribution. All instruments live in the owning MetricsRegistry under
/// per-rule names:
///   rules.queue_wait_us.<fn>    release -> start (histogram)
///   rules.lock_wait_us.<fn>     blocked in wait-die acquisition (histogram)
///   rules.exec_us.<fn>          action body CPU time (histogram)
///   rules.staleness_us.<fn>     oldest batched change -> action commit
///                               (histogram)
///   rules.cost.cpu_micros.<fn>      total CPU micros (counter)
///   rules.cost.rows_scanned.<fn>    rows touched by batched scans (counter)
///   rules.cost.deltas_folded.<fn>   group deltas netted away (counter)
///   rules.cost.lock_aborts.<fn>     wait-die restarts charged (counter)
struct RuleCostHandles {
  Histogram* queue_wait_us = nullptr;
  Histogram* lock_wait_us = nullptr;
  Histogram* exec_us = nullptr;
  Histogram* staleness_us = nullptr;
  Counter* cpu_micros = nullptr;
  Counter* rows_scanned = nullptr;
  Counter* deltas_folded = nullptr;
  Counter* lock_aborts = nullptr;
};

/// Resolves and caches per-rule instrument handles. MetricsRegistry takes
/// a mutex per lookup, far too slow for the executor's task-finish and
/// action-commit paths; this tracker resolves each function's eight
/// handles once and afterwards
/// serves them from a spinlock-guarded map (one tiny find per task).
class RuleCostTracker {
 public:
  explicit RuleCostTracker(MetricsRegistry* registry)
      : registry_(registry) {}
  RuleCostTracker(const RuleCostTracker&) = delete;
  RuleCostTracker& operator=(const RuleCostTracker&) = delete;

  /// Handles for `function_name`, creating the instruments on first use.
  /// The returned pointer is stable for the tracker's lifetime.
  const RuleCostHandles* Handles(const std::string& function_name);

 private:
  MetricsRegistry* registry_;
  SpinLock lock_;
  std::map<std::string, std::unique_ptr<RuleCostHandles>> handles_;
};

}  // namespace strip

#endif  // STRIP_OBS_RULE_COST_H_
