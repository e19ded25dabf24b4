#ifndef STRIP_OBS_METRICS_H_
#define STRIP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace strip {

/// Monotonic counter. One relaxed atomic increment on the hot path;
/// cache-line aligned so unrelated counters registered together don't
/// false-share. Reads are spelled load(), like the atomic it wraps.
class alignas(64) Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t load() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-written value (doubles stored as bit patterns so Set/Get are a
/// single relaxed atomic op).
class alignas(64) Gauge {
 public:
  void Set(double v);
  double Get() const;

 private:
  std::atomic<uint64_t> bits_{0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper edges of the first
/// N buckets plus an implicit +inf overflow bucket. Observations are two
/// relaxed increments (bucket + count) and two relaxed adds (sum) — no
/// locks, safe from any thread. min/max are maintained with CAS loops,
/// still wait-free in practice (contention only on new extremes).
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> bounds);

  /// Exponential 1us..1000s bounds (~2 buckets per decade), the default
  /// for every latency / staleness histogram in the system.
  static const std::vector<int64_t>& DefaultLatencyBoundsMicros();
  /// Small linear bounds 1..64 doubling, for count-like distributions
  /// (e.g. firings batched per recompute task).
  static std::vector<int64_t> DefaultCountBounds();

  void Observe(int64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t min() const;
  int64_t max() const;
  double mean() const;

  /// Percentile estimate by linear interpolation within the owning bucket
  /// (exact for values on bucket edges; bounded by bucket width otherwise).
  /// q in [0,1]. Returns 0 for an empty histogram.
  double Percentile(double q) const;

  const std::vector<int64_t>& bounds() const { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<int64_t> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_;
  std::atomic<int64_t> max_;
};

/// Thread-safe registry of named counters, gauges, and histograms: the
/// only place the engine stores a count. Registration (first lookup of a
/// name) takes a mutex; the returned pointers are stable for the
/// registry's lifetime, so hot paths resolve their instruments once and
/// then pay only the relaxed atomic ops. Subsystem stats structs
/// (ExecutorStats, RuleStats, LockManagerStats) are references to counters
/// held here, not copies.
///
/// Callback gauges are for pull state that is not a count of events (a
/// cache's size, a connection count): the callback runs at snapshot time.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// First call for a name fixes its bounds; later calls ignore `bounds`.
  Histogram* histogram(const std::string& name,
                       const std::vector<int64_t>& bounds =
                           Histogram::DefaultLatencyBoundsMicros());

  /// Registers (or replaces) a pull gauge evaluated at snapshot time.
  /// Never for a count: counts are Counters.
  void RegisterCallback(const std::string& name,
                        std::function<double()> fn);

  /// Point-in-time copies for programmatic consumers (tests, benches).
  std::map<std::string, uint64_t> CounterValues() const;
  std::map<std::string, double> GaugeValues() const;  // incl. callbacks

  /// Finds an existing histogram (nullptr if never registered).
  const Histogram* FindHistogram(const std::string& name) const;

  /// All histograms whose name starts with `prefix` (all of them for "").
  /// The pointers are stable for the registry's lifetime, so consumers
  /// (watchdog SLO evaluation, shell `.health`) can hold them across calls.
  std::vector<std::pair<std::string, const Histogram*>> Histograms(
      const std::string& prefix = "") const;

  /// Full snapshot as a JSON object:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {name: {count,sum,min,max,mean,p50,p95,p99,max,
  ///                          buckets: [[upper_bound, count], ...]}}}
  std::string SnapshotJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<double()>> callbacks_;
};

}  // namespace strip

#endif  // STRIP_OBS_METRICS_H_
