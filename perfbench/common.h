#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the benchmark driver: clocks, sample sets, process
// resource probes, schedule pacing and the result report.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "strip/common/rng.h"
#include "strip/engine/database.h"
#include "strip/market/trace.h"

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
int64_t NowNanos();
/// Sleeps until the steady clock reads `t_ns` (no busy wait: the pacing
/// threads must not add CPU to the process under test). Returns true if
/// the caller was early and slept, false if `t_ns` had already passed.
bool SleepUntilNanos(int64_t t_ns);
/// Lowers the calling thread's timer slack so schedule sleeps wake close
/// to their deadline.
void UseFineTimerSlack();

/// A reader killed by wait-die (it is the youngest transaction) retries
/// for up to kReadRetryNanos, backing off a little longer each time so the
/// transaction holding the row can commit.
inline constexpr int64_t kReadRetryNanos = 1'000'000'000;
std::chrono::microseconds ReadBackoff(int attempt);

/// User + system CPU seconds of this process, or of process `pid`
/// (read from /proc/<pid>/stat); -1 if unreadable.
double SelfCpuSeconds();
/// CPU time of the calling thread, in nanoseconds.
int64_t ThreadCpuNanos();
double ProcCpuSeconds(int pid);
/// Peak resident set (VmHWM) in MB of this process / of `pid`; -1 if
/// unreadable.
double SelfPeakRssMb();
double ProcPeakRssMb(int pid);

/// Which window of a run a windowed figure reports. A run is cut into
/// windows of one to four seconds and the figure is taken per window; the
/// run reports the quietest quartile of them: the lower quartile of a cost
/// or latency, the upper quartile of a rate. Other tenants of the shared
/// host only ever slow a window down, and they swing a window's figures by
/// a quarter within seconds, so the least disturbed windows say most about
/// the program, while a change to the program moves every window.
inline constexpr double kQuietCost = 0.25;
inline constexpr double kQuietRate = 0.75;

/// A set of measurements. Percentiles are linear interpolations between
/// order statistics, so p99 of 20000 samples has ~200 samples beyond it.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double Percentile(double q) const;  // q in [0,1]; NaN when empty
  double Median() const { return Percentile(0.5); }
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> v_;
};

/// Samples stamped with the time they belong to (µs since the start of the
/// measured phase), so that the phase can be cut into windows afterwards.
class TimedSamples {
 public:
  void Add(int64_t t_us, double v) {
    t_.push_back(t_us);
    v_.push_back(v);
  }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  Samples All() const;
  /// The `across`-quantile over windows of each window's q-percentile.
  /// `starts` are the windows' start times, ascending; windows with fewer
  /// than `min_samples` samples are left out (all samples form one window
  /// when none has enough).
  double WindowedPercentile(const std::vector<int64_t>& starts, double q,
                            size_t min_samples, double across) const;

 private:
  std::vector<int64_t> t_;
  std::vector<double> v_;
};

/// Engine counter readings; a phase's figures are the difference of two.
struct Counters {
  double lock_acquires = 0, lock_wait_us = 0, wait_die = 0;
  double action_restarts = 0, tasks_run = 0, busy_us = 0;
  double tasks_created = 0, firings_merged = 0;

  static Counters Read(strip::Database& db);
  Counters Minus(const Counters& b) const;
};

/// The synthetic TAQ trace for `seed`, at the paper's scale (6600 stocks,
/// ~60k quotes over 30 minutes); its quote order is the feed order every
/// workload replays (cycled when a run needs more records).
strip::TraceOptions TraceOptionsFor(uint64_t seed);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = -1;  // -1: not a sampled statistic
};

/// Everything a run reports. `end_to_end` goes into the result line of an
/// untraced run, `per_layer` into that of a traced run; `extra` rows are
/// printed only (p99 rows and workload-specific layer figures).
struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> extra;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
  /// Validity of an open-loop measurement (the generator kept its schedule
  /// and no backlog built up). An invalid run is reported as such, with
  /// its reason; it is not a correctness failure.
  std::vector<std::string> invalid;
  void Valid(bool ok, const std::string& why) {
    if (!ok) invalid.push_back(why);
  }
  void E2e(const std::string& n, double v, const std::string& u,
           int64_t samples = -1) {
    end_to_end.push_back({n, v, u, samples});
  }
  void Layer(const std::string& n, double v, const std::string& u,
             int64_t samples = -1) {
    per_layer.push_back({n, v, u, samples});
  }
  void Extra(const std::string& n, double v, const std::string& u,
             int64_t samples = -1) {
    extra.push_back({n, v, u, samples});
  }

  /// Human-readable table followed by the one-line JSON result. The result
  /// carries the end-to-end metrics when !traced, the per-layer ones when
  /// traced.
  void Print(bool traced) const;
};

/// Windowed median and p99 of `s` (see TimedSamples): `<base>_p50_us`, the
/// quiet quartile (kQuietCost) of the windows' medians, as an end-to-end
/// row; `<base>_p99_us`, the median of the windows' p99s, as a printed row.
/// For a p99 a window needs 1000 samples, so that ten lie beyond it. The
/// p99 rows stay out of the result line: on this shared host they swing by
/// more than any bound a benchmark may set (see NOTES.md).
void AddLatencyRows(Report& r, const std::string& base, const TimedSamples& s,
                    const std::vector<int64_t>& windows);

/// Stage ledger: explains the median end-to-end figure of a traced run by
/// the mean stage durations of its median cohort (the tenth of the samples
/// whose end-to-end value lies nearest the median). Stages must sum to the
/// end-to-end median within 10%; the remainder is reported, not hidden.
struct LedgerRow {
  double total = 0;                   // end-to-end value of the sample
  std::vector<double> stages;         // stage durations, same order as names
};
struct LedgerResult {
  double e2e_p50 = 0;
  std::vector<double> stage_means;    // over the median cohort
  double unattributed = 0;            // e2e_p50 - sum(stage_means)
  bool within_10pct = false;
  size_t cohort = 0;
};
LedgerResult BuildLedger(const std::vector<LedgerRow>& rows);
void PrintLedger(const std::string& title,
                 const std::vector<std::string>& stage_names,
                 const LedgerResult& l);

/// Deterministic work counts per record: one client, no timers, the
/// simulated executor. They repeat exactly for one seed.
struct WorkCounts {
  double lock_acquires = 0, rows_scanned = 0, tasks = 0, firings_merged = 0;
};

/// The per-layer figures of a traced run (the result line of --trace 1).
/// Every workload fills them from its own pipeline and AddLayerRows emits
/// them, so all workloads report the same names.
struct LayerFigures {
  // Feed path, mean µs per record.
  double queue_wait_us = 0, validate_us = 0, dml_us = 0, commit_us = 0, apply_us = 0;
  // Rule actions, means per executed action task.
  double batch_factor = 0, action_queue_wait_us = 0, action_exec_us = 0;
  double rows_scanned_per_action = 0;
  double read_exec_us = 0;
  Counters delta;  // engine counters over the traced phase
  double records = 0, feed_restarts = 0, wall_s = 0;
  int workers = 0;
  double trace_gen_s = 0, populate_s = 0, rules_s = 0;
  double gen_late_p99_us = 0, backlog_end = 0;
  LedgerResult ingest, lag;
  double untraced_cpu_us = 0, traced_cpu_us = 0;
  WorkCounts work;
};
void AddLayerRows(Report& r, const LayerFigures& f);

/// Prints a traced run's two stage ledgers and fails the run when either
/// does not sum within 10%.
void ReportLedgers(Report& r, const LedgerResult& ingest,
                   const std::vector<std::string>& ingest_stages,
                   const LedgerResult& lag,
                   const std::vector<std::string>& lag_stages);

/// Common command-line options of a run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_bin;  // path of the strip_server binary
  std::string work_dir;    // scratch directory for server data
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
