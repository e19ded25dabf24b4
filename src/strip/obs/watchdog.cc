#include "strip/obs/watchdog.h"

#include <algorithm>

#include "strip/obs/json.h"

namespace strip {

const char* WatchdogStateName(WatchdogState s) {
  switch (s) {
    case WatchdogState::kOk: return "ok";
    case WatchdogState::kWarn: return "warn";
    case WatchdogState::kShed: return "shed";
  }
  return "?";
}

std::string WatchdogVerdict::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("state").String(WatchdogStateName(state));
  w.Key("at").Int(at);
  w.Key("consecutive_breaches").Int(consecutive_breaches);
  w.Key("consecutive_clean").Int(consecutive_clean);
  w.Key("worst_signal").String(worst_signal);
  w.Key("signals").BeginArray();
  for (const WatchdogSignal& s : signals) {
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("observed").Double(s.observed);
    w.Key("threshold").Double(s.threshold);
    w.Key("samples").Uint(s.samples);
    w.Key("breached").Bool(s.breached);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Watchdog::Watchdog(MetricsRegistry* metrics, WatchdogSlo slo)
    : metrics_(metrics), slo_(std::move(slo)) {}

double Watchdog::IntervalP99(const std::string& prefix, uint64_t* samples) {
  // Merge this interval's new observations across every histogram under
  // the prefix. They all share DefaultLatencyBoundsMicros, so bucket i
  // means the same range everywhere; a histogram with foreign bounds is
  // skipped rather than merged into the wrong edges.
  std::vector<int64_t> bounds;
  std::vector<uint64_t> merged;
  uint64_t total = 0;
  for (const auto& [name, hist] : metrics_->Histograms(prefix)) {
    const size_t nb = hist->bounds().size();
    std::vector<uint64_t> cur(nb + 1);
    for (size_t i = 0; i <= nb; ++i) cur[i] = hist->bucket_count(i);
    auto it = prev_buckets_.find(name);
    if (it == prev_buckets_.end()) {
      // First sighting (construction, or a rule registered mid-flight):
      // baseline only, so pre-watchdog history is never judged.
      prev_buckets_.emplace(name, std::move(cur));
      continue;
    }
    if (bounds.empty()) {
      bounds = hist->bounds();
      merged.assign(bounds.size() + 1, 0);
    }
    if (hist->bounds() != bounds || it->second.size() != cur.size()) {
      it->second = std::move(cur);
      continue;
    }
    for (size_t i = 0; i < cur.size(); ++i) {
      uint64_t delta = cur[i] - std::min(cur[i], it->second[i]);
      merged[i] += delta;
      total += delta;
    }
    it->second = std::move(cur);
  }
  *samples = total;
  if (total == 0) return 0.0;

  // p99 by linear interpolation inside the owning bucket, mirroring
  // Histogram::Percentile but over the interval's deltas. The overflow
  // bucket extrapolates one rung up the 1-3-10 ladder — min/max are
  // lifetime values, useless for an interval.
  double target = 0.99 * static_cast<double>(total);
  double seen = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    double in_bucket = static_cast<double>(merged[i]);
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= target) {
      double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      double hi = i < bounds.size()
                      ? static_cast<double>(bounds[i])
                      : static_cast<double>(bounds.back()) * 3.0;
      double frac = (target - seen) / in_bucket;
      return lo + (hi - lo) * frac;
    }
    seen += in_bucket;
  }
  return static_cast<double>(bounds.back()) * 3.0;
}

WatchdogVerdict Watchdog::Evaluate(Timestamp now) {
  WatchdogVerdict v;
  v.at = now;

  if (slo_.staleness_p99_us > 0) {
    WatchdogSignal s;
    s.name = "staleness_p99_us";
    s.threshold = static_cast<double>(slo_.staleness_p99_us);
    s.observed = IntervalP99(slo_.staleness_prefix, &s.samples);
    s.breached = s.samples > 0 && s.observed > s.threshold;
    v.signals.push_back(std::move(s));
  }
  if (slo_.queue_wait_p99_us > 0) {
    WatchdogSignal s;
    s.name = "queue_wait_p99_us";
    s.threshold = static_cast<double>(slo_.queue_wait_p99_us);
    s.observed = IntervalP99(slo_.queue_wait_prefix, &s.samples);
    s.breached = s.samples > 0 && s.observed > s.threshold;
    v.signals.push_back(std::move(s));
  }
  if (slo_.max_lock_abort_rate > 0) {
    std::map<std::string, uint64_t> counters = metrics_->CounterValues();
    double aborts = 0, acquires = 0;
    auto it = counters.find("locks.wait_die_aborts");
    if (it != counters.end()) aborts = static_cast<double>(it->second);
    it = counters.find("locks.acquires");
    if (it != counters.end()) acquires = static_cast<double>(it->second);
    double d_aborts = std::max(0.0, aborts - prev_aborts_);
    double d_acquires = std::max(0.0, acquires - prev_acquires_);
    prev_aborts_ = aborts;
    prev_acquires_ = acquires;
    WatchdogSignal s;
    s.name = "lock_abort_rate";
    s.threshold = slo_.max_lock_abort_rate;
    s.samples = static_cast<uint64_t>(d_acquires);
    s.observed = baselined_ && d_acquires > 0 ? d_aborts / d_acquires : 0.0;
    s.breached = s.samples > 0 && s.observed > s.threshold;
    v.signals.push_back(std::move(s));
  }

  // The first call only set baselines; judge from the second call on.
  bool first = !baselined_;
  baselined_ = true;

  bool breached = false;
  bool warned = false;
  double worst_ratio = 0;
  for (const WatchdogSignal& s : v.signals) {
    if (first || s.threshold <= 0) continue;
    double ratio = s.observed / s.threshold;
    if (s.samples > 0 && ratio > worst_ratio) {
      worst_ratio = ratio;
      v.worst_signal = s.name;
    }
    breached = breached || s.breached;
    warned = warned || (s.samples > 0 && ratio >= slo_.warn_fraction);
  }
  if (worst_ratio < slo_.warn_fraction) v.worst_signal.clear();

  if (breached) {
    ++consecutive_breaches_;
    consecutive_clean_ = 0;
  } else {
    consecutive_breaches_ = 0;
    ++consecutive_clean_;
  }

  WatchdogState prev = state_;
  if (state_ == WatchdogState::kShed) {
    if (consecutive_clean_ >= slo_.clear_intervals) {
      state_ = WatchdogState::kOk;
    }
  } else if (consecutive_breaches_ >= slo_.trip_intervals) {
    state_ = WatchdogState::kShed;
  } else if (breached || warned) {
    // Breaching but not yet tripped, or merely near a threshold: warn.
    state_ = WatchdogState::kWarn;
  } else {
    state_ = WatchdogState::kOk;
  }

  v.state = state_;
  v.consecutive_breaches = consecutive_breaches_;
  v.consecutive_clean = consecutive_clean_;
  last_verdict_ = v;
  if (state_ == WatchdogState::kShed && prev != WatchdogState::kShed &&
      on_shed_) {
    on_shed_(v);
  }
  return v;
}

}  // namespace strip
