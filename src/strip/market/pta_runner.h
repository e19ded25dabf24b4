#ifndef STRIP_MARKET_PTA_RUNNER_H_
#define STRIP_MARKET_PTA_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "strip/common/status.h"
#include "strip/engine/prepared_statement.h"
#include "strip/market/populate.h"
#include "strip/market/trace.h"
#include "strip/sql/ast.h"

namespace strip {

/// Measurements of one program-trading experiment (the quantities reported
/// by Figures 9-14).
struct PtaRunResult {
  double duration_seconds = 0;        // simulated trading window
  uint64_t num_updates = 0;           // update transactions applied
  uint64_t num_recomputes = 0;        // N_r: recompute transactions run
  uint64_t tasks_created = 0;         // action tasks enqueued
  uint64_t firings_merged = 0;        // firings batched into queued tasks
  double update_cpu_seconds = 0;      // update txns incl. rule processing
  double recompute_cpu_seconds = 0;   // recompute transactions
  double total_cpu_seconds = 0;
  /// CPU fraction attributable to maintaining the view: recompute CPU plus
  /// the rule-processing share of update transactions, over the window.
  double recompute_cpu_fraction = 0;
  double total_cpu_fraction = 0;
  double avg_recompute_micros = 0;    // recompute transaction length
  /// Bound tuples per recompute transaction: the work each recompute was
  /// handed, a deterministic stand-in for its length.
  double avg_recompute_tuples = 0;
  /// Response time of update transactions (release -> finish on the
  /// virtual clock): the schedulability metric behind the paper's
  /// preference for short recompute transactions (§5.1). Long-running
  /// coarse batches occupy the CPU and delay updates released meanwhile.
  double avg_update_response_micros = 0;
  double max_update_response_micros = 0;
  uint64_t failed_tasks = 0;
  /// Temporal staleness of the derived data (§7): at each recompute commit,
  /// action commit time minus feed-arrival time of the oldest batched
  /// change it consumed. Larger delay windows batch more firings per task
  /// (cheaper) at the cost of staler derived data — the paper's tradeoff.
  double p50_staleness_seconds = 0;
  double p95_staleness_seconds = 0;
  double max_staleness_seconds = 0;
  /// Average firings consumed per executed recompute task.
  double avg_batching_factor = 0;
  /// Metrics-registry snapshot (JSON object) taken at quiescence.
  std::string metrics_json;
};

/// One experiment: a fresh simulated-mode database populated with the PTA
/// tables from `trace`, the maintenance functions registered, `rule_sql`
/// installed (empty = no rule, the update-only baseline), and the trace
/// replayed as one update transaction per quote released at its trace time
/// — exactly like the paper's real-time replay (§4.1) but on the virtual
/// clock. Run() drives the discrete-event simulation to quiescence.
///
/// Recompute transactions are the tasks whose function name starts with
/// "compute_"; everything else is an update transaction.
class PtaExperiment {
 public:
  PtaExperiment(const MarketTrace& trace, const PtaConfig& cfg);
  ~PtaExperiment();

  /// Populates tables, registers functions, installs the rule.
  Status Setup(const std::string& rule_sql);

  /// Replays the trace to quiescence and reports the measurements.
  Result<PtaRunResult> Run();

  /// The experiment's database (e.g. for post-run consistency checks).
  Database& db();

 private:
  Status ApplyQuote(const Quote& q);

  const MarketTrace& trace_;
  PtaConfig cfg_;
  std::unique_ptr<Database> db_;
  /// update stocks set price = ?1 where symbol = ?2 — prepared once in
  /// Setup (after the index on symbol exists, so the frozen plan probes
  /// it), executed once per quote.
  PreparedStatementPtr update_stmt_;
  std::vector<Value> symbols_;
};

/// Convenience wrapper: Setup + Run.
Result<PtaRunResult> RunPtaExperiment(const MarketTrace& trace,
                                      const PtaConfig& cfg,
                                      const std::string& rule_sql);

/// Parameters of a threaded (wall-clock) PTA throughput run.
struct ThreadedPtaOptions {
  int num_workers = 2;
  /// Fraction of the paper-scale database / trace (PtaConfig::Scaled,
  /// TraceOptions::Scaled).
  double scale = 0.05;
  /// Delay window of the comp_prices rule. Must exceed the update burst's
  /// duration so every composite's firings merge into one recompute task,
  /// making the firing count (≈ number of triggered composites) identical
  /// across worker counts — a fair throughput comparison.
  double delay_seconds = 1.0;
  /// Blocking stall per recompute firing, modeling the PTA's order
  /// submission to the exchange (the paper's program trades are I/O-bound
  /// on the outside world, not the CPU). Injected after each firing on its
  /// worker thread, so extra workers overlap the stalls.
  int64_t order_latency_micros = 20000;
  uint64_t seed = 42;
  /// Database::Options::enable_metrics passthrough; the overhead A/B in
  /// EXPERIMENTS.md toggles this on otherwise-identical runs.
  bool enable_metrics = true;
};

/// Measurements of one threaded PTA run.
struct ThreadedPtaResult {
  int num_workers = 0;
  uint64_t num_updates = 0;        // update transactions applied
  uint64_t update_restarts = 0;    // wait-die retries of update txns
  uint64_t num_firings = 0;        // recompute tasks run
  uint64_t failed_tasks = 0;
  double wall_seconds = 0;         // first submit -> drained
  /// First firing released -> last firing (incl. its stall) done.
  double firing_window_seconds = 0;
  double firings_per_second = 0;   // num_firings / firing window
  /// Queue + execution latency of a firing (release -> finish), excluding
  /// the injected order-submission stall.
  double p50_firing_latency_micros = 0;
  double p99_firing_latency_micros = 0;
  // Lock-manager counters (LockManagerStats snapshot).
  uint64_t lock_acquires = 0;
  uint64_t lock_waits = 0;
  uint64_t lock_wait_die_aborts = 0;
  uint64_t lock_wait_micros = 0;
  // Rule / executor counters.
  uint64_t tasks_created = 0;
  uint64_t firings_merged = 0;
  uint64_t tasks_run = 0;
  uint64_t tasks_failed = 0;
  /// Metrics-registry snapshot (JSON object) taken after the drain; "{}"
  /// when metrics were disabled for the run.
  std::string metrics_json;
};

/// Runs the PTA workload through the ThreadedExecutor on the wall clock:
/// a fresh threaded-mode database with `num_workers` workers, the unique-
/// on-comp rule (Figure 7) installed with `delay_seconds`, and the trace's
/// quotes burst-submitted as update tasks. Drains, then reports firing
/// throughput and latency percentiles. This is the scale-up experiment:
/// same workload, varying worker-pool size (§6.2's process pool).
Result<ThreadedPtaResult> RunThreadedPta(const ThreadedPtaOptions& options);

/// Verifies derived-data consistency after a run: recomputes comp_prices
/// (and option_prices when `check_options`) from base data and compares to
/// the maintained tables within `tolerance`. Used by the integration /
/// property tests — this is the paper's implicit correctness requirement.
Status CheckDerivedDataConsistency(Database& db, double risk_free_rate,
                                   double tolerance, bool check_comps,
                                   bool check_options);

}  // namespace strip

#endif  // STRIP_MARKET_PTA_RUNNER_H_
