#include "strip/obs/metrics.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "strip/obs/json.h"

namespace strip {

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

void Gauge::Set(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  bits_.store(bits, std::memory_order_relaxed);
}

double Gauge::Get() const {
  uint64_t bits = bits_.load(std::memory_order_relaxed);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      min_(std::numeric_limits<int64_t>::max()),
      max_(std::numeric_limits<int64_t>::min()) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
}

const std::vector<int64_t>& Histogram::DefaultLatencyBoundsMicros() {
  // 1, 3, 10, 30, ... microseconds up to 1000 s: ~2 buckets per decade
  // bounds the p-estimate error to ~sqrt(10)x while keeping the histogram
  // at 19 atomics.
  static const std::vector<int64_t> bounds = [] {
    std::vector<int64_t> b;
    for (int64_t decade = 1; decade <= 1'000'000'000; decade *= 10) {
      b.push_back(decade);
      b.push_back(decade * 3);
    }
    return b;
  }();
  return bounds;
}

std::vector<int64_t> Histogram::DefaultCountBounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}

void Histogram::Observe(int64_t value) {
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  int64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

int64_t Histogram::min() const {
  int64_t v = min_.load(std::memory_order_relaxed);
  return v == std::numeric_limits<int64_t>::max() ? 0 : v;
}

int64_t Histogram::max() const {
  int64_t v = max_.load(std::memory_order_relaxed);
  return v == std::numeric_limits<int64_t>::min() ? 0 : v;
}

double Histogram::mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

double Histogram::Percentile(double q) const {
  uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(n);
  double seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    double in_bucket =
        static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= target) {
      // Interpolate inside [lo, hi], clamped to the observed extremes so
      // the overflow bucket and sparse edge buckets stay truthful.
      double lo = i == 0 ? static_cast<double>(std::min<int64_t>(min(), 0))
                         : static_cast<double>(bounds_[i - 1]);
      double hi = i < bounds_.size() ? static_cast<double>(bounds_[i])
                                     : static_cast<double>(max());
      lo = std::max(lo, static_cast<double>(min()));
      hi = std::min(hi, static_cast<double>(max()));
      if (hi < lo) hi = lo;
      double frac = in_bucket == 0 ? 0 : (target - seen) / in_bucket;
      return lo + (hi - lo) * frac;
    }
    seen += in_bucket;
  }
  return static_cast<double>(max());
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<int64_t>& bounds) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(bounds))
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::RegisterCallback(const std::string& name,
                                       std::function<double()> fn) {
  std::lock_guard<std::mutex> lk(mu_);
  callbacks_[name] = std::move(fn);
}

std::map<std::string, uint64_t> MetricsRegistry::CounterValues() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->load();
  return out;
}

std::map<std::string, double> MetricsRegistry::GaugeValues() const {
  // Callbacks may take locks of their own (e.g. plan-cache size); copy
  // them out so they run without holding the registry mutex.
  std::map<std::string, double> out;
  std::vector<std::pair<std::string, std::function<double()>>> cbs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [name, g] : gauges_) out[name] = g->Get();
    for (const auto& [name, fn] : callbacks_) cbs.emplace_back(name, fn);
  }
  for (const auto& [name, fn] : cbs) out[name] = fn();
  return out;
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::Histograms(const std::string& prefix) const {
  std::vector<std::pair<std::string, const Histogram*>> out;
  std::lock_guard<std::mutex> lk(mu_);
  // std::map iterates in name order, so the matching range is contiguous.
  for (auto it = histograms_.lower_bound(prefix); it != histograms_.end();
       ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first, it->second.get());
  }
  return out;
}

std::string MetricsRegistry::SnapshotJson() const {
  std::map<std::string, uint64_t> counters = CounterValues();
  std::map<std::string, double> gauges = GaugeValues();
  std::vector<std::pair<std::string, const Histogram*>> hists;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [name, h] : histograms_) {
      hists.emplace_back(name, h.get());
    }
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, v] : counters) w.Key(name).Uint(v);
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, v] : gauges) w.Key(name).Double(v);
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, h] : hists) {
    w.Key(name).BeginObject();
    w.Key("count").Uint(h->count());
    w.Key("sum").Int(h->sum());
    w.Key("min").Int(h->min());
    w.Key("max").Int(h->max());
    w.Key("mean").Double(h->mean());
    w.Key("p50").Double(h->Percentile(0.50));
    w.Key("p95").Double(h->Percentile(0.95));
    w.Key("p99").Double(h->Percentile(0.99));
    w.Key("buckets").BeginArray();
    for (size_t i = 0; i <= h->bounds().size(); ++i) {
      uint64_t n = h->bucket_count(i);
      if (n == 0) continue;  // sparse export: zero buckets add only noise
      w.BeginArray();
      if (i < h->bounds().size()) {
        w.Int(h->bounds()[i]);
      } else {
        w.Null();  // +inf overflow bucket
      }
      w.Uint(n);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace strip
