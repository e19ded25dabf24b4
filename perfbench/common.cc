#include "common.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SleepUntilNanos(int64_t t_ns) {
  int64_t left = t_ns - NowNanos();
  if (left <= 0) return false;
  std::this_thread::sleep_for(std::chrono::nanoseconds(left));
  return true;
}

std::chrono::microseconds ReadBackoff(int attempt) {
  return std::chrono::microseconds(std::min(20 * (attempt + 1), 1000));
}

void UseFineTimerSlack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

double SelfCpuSeconds() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return -1;
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double ProcCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!in || !std::getline(in, line)) return -1;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall (11th and 12th after the name).
  size_t close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = -1, stime = -1;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  if (utime < 0 || stime < 0) return -1;
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {

double PeakRssFromStatus(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return -1;
}

}  // namespace

double SelfPeakRssMb() { return PeakRssFromStatus("/proc/self/status"); }

double ProcPeakRssMb(int pid) {
  return PeakRssFromStatus("/proc/" + std::to_string(pid) + "/status");
}

double Samples::Percentile(double q) const {
  if (v_.empty()) return std::nan("");
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  double pos = q * static_cast<double>(s.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, s.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

double Samples::Sum() const {
  double t = 0;
  for (double v : v_) t += v;
  return t;
}

double Samples::Mean() const {
  return v_.empty() ? std::nan("") : Sum() / static_cast<double>(v_.size());
}

Counters Counters::Read(strip::Database& db) {
  Counters c;
  const strip::LockManagerStats& ls = db.locks().stats();
  c.lock_acquires = static_cast<double>(ls.acquires.load());
  c.lock_wait_us = static_cast<double>(ls.wait_micros.load());
  c.wait_die = static_cast<double>(ls.wait_die_aborts.load());
  c.action_restarts =
      static_cast<double>(db.metrics().CounterValues()["rules.action_restarts"]);
  c.tasks_run = static_cast<double>(db.executor().stats().tasks_run.load());
  c.busy_us = static_cast<double>(db.executor().stats().busy_micros.load());
  c.tasks_created = static_cast<double>(db.rules().stats().tasks_created.load());
  c.firings_merged = static_cast<double>(db.rules().stats().firings_merged.load());
  return c;
}

Counters Counters::Minus(const Counters& b) const {
  Counters d;
  d.lock_acquires = lock_acquires - b.lock_acquires;
  d.lock_wait_us = lock_wait_us - b.lock_wait_us;
  d.wait_die = wait_die - b.wait_die;
  d.action_restarts = action_restarts - b.action_restarts;
  d.tasks_run = tasks_run - b.tasks_run;
  d.busy_us = busy_us - b.busy_us;
  d.tasks_created = tasks_created - b.tasks_created;
  d.firings_merged = firings_merged - b.firings_merged;
  return d;
}

strip::TraceOptions TraceOptionsFor(uint64_t seed) {
  strip::TraceOptions o = strip::TraceOptions::PaperScale();
  o.seed = seed;
  return o;
}

Samples TimedSamples::All() const {
  Samples s;
  for (double v : v_) s.Add(v);
  return s;
}

double TimedSamples::WindowedPercentile(const std::vector<int64_t>& starts,
                                        double q, size_t min_samples,
                                        double across) const {
  std::vector<Samples> windows(std::max<size_t>(starts.size(), 1));
  for (size_t i = 0; i < v_.size(); ++i) {
    auto it = std::upper_bound(starts.begin(), starts.end(), t_[i]);
    size_t w = it == starts.begin() ? 0 : static_cast<size_t>(it - starts.begin()) - 1;
    windows[w].Add(v_[i]);
  }
  Samples per_window;
  for (const Samples& w : windows) {
    if (w.size() >= min_samples) per_window.Add(w.Percentile(q));
  }
  return per_window.empty() ? All().Percentile(q) : per_window.Percentile(across);
}

void AddLatencyRows(Report& r, const std::string& base, const TimedSamples& s,
                    const std::vector<int64_t>& windows) {
  auto n = static_cast<int64_t>(s.size());
  r.E2e(base + "_p50_us", s.WindowedPercentile(windows, 0.50, 20, kQuietCost), "us", n);
  r.Extra(base + "_p99_us", s.WindowedPercentile(windows, 0.99, 1000, 0.5), "us", n);
}

namespace {

void PrintRows(const char* section, const std::vector<Metric>& rows) {
  for (const Metric& m : rows) {
    if (m.samples >= 0) {
      std::printf("%-10s %-44s %16.4f %-6s n=%lld\n", section, m.name.c_str(),
                  m.value, m.unit.c_str(),
                  static_cast<long long>(m.samples));
    } else {
      std::printf("%-10s %-44s %16.4f %s\n", section, m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
}

}  // namespace

void Report::Print(bool traced) const {
  PrintRows("e2e", end_to_end);
  PrintRows("layer", per_layer);
  PrintRows("extra", extra);
  std::printf("%-10s %-44s %16.6f\n", "e2e", "failed_frac",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0);
  if (invalid.empty()) {
    std::printf("valid      yes: the generator kept its schedule\n");
  }
  for (const std::string& why : invalid) {
    std::printf("valid      NO: %s\n", why.c_str());
  }
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const std::vector<Metric>& out = traced ? per_layer : end_to_end;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out) {
    char buf[512];
    // %.17g keeps every digit of the measurement; non-finite values
    // (a statistic over zero samples) are a bug, so they fail the run.
    if (!std::isfinite(m.value)) {
      std::printf("CHECK FAILED: metric %s is not finite\n", m.name.c_str());
      json = "";
      break;
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
    first = false;
  }
  if (json.empty()) {
    std::printf("{\"correct\": false, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {}}\n",
                static_cast<long long>(std::max<int64_t>(attempted, 1)),
                static_cast<long long>(failed));
    return;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

LedgerResult BuildLedger(const std::vector<LedgerRow>& rows) {
  LedgerResult l;
  if (rows.empty()) return l;
  Samples totals;
  for (const LedgerRow& r : rows) totals.Add(r.total);
  l.e2e_p50 = totals.Median();
  // The median cohort: the tenth of the samples nearest the median.
  std::vector<const LedgerRow*> cohort;
  for (const LedgerRow& r : rows) cohort.push_back(&r);
  size_t k = std::max<size_t>(1, rows.size() / 10);
  std::nth_element(cohort.begin(), cohort.begin() + static_cast<long>(k - 1), cohort.end(),
                   [&](const LedgerRow* a, const LedgerRow* b) {
                     return std::fabs(a->total - l.e2e_p50) < std::fabs(b->total - l.e2e_p50);
                   });
  cohort.resize(k);
  size_t nstages = rows.front().stages.size();
  l.stage_means.assign(nstages, 0.0);
  for (const LedgerRow* r : cohort) {
    for (size_t i = 0; i < nstages; ++i) l.stage_means[i] += r->stages[i];
  }
  l.cohort = k;
  double sum = 0;
  for (double& m : l.stage_means) {
    m /= static_cast<double>(k);
    sum += m;
  }
  l.unattributed = l.e2e_p50 - sum;
  l.within_10pct = std::fabs(l.unattributed) <= 0.10 * std::fabs(l.e2e_p50);
  return l;
}

void PrintLedger(const std::string& title,
                 const std::vector<std::string>& stage_names,
                 const LedgerResult& l) {
  std::printf("ledger     %s p50 = %.2f us (median cohort of %zu)\n",
              title.c_str(), l.e2e_p50, l.cohort);
  for (size_t i = 0; i < stage_names.size() && i < l.stage_means.size(); ++i) {
    std::printf("ledger       %-40s %12.2f us\n", stage_names[i].c_str(),
                l.stage_means[i]);
  }
  std::printf("ledger       %-40s %12.2f us  (%s)\n", "unattributed",
              l.unattributed,
              l.within_10pct ? "stages sum within 10%"
                             : "stages do NOT sum within 10%");
}

void ReportLedgers(Report& r, const LedgerResult& ingest,
                   const std::vector<std::string>& ingest_stages,
                   const LedgerResult& lag,
                   const std::vector<std::string>& lag_stages) {
  PrintLedger("ingest_us (traced)", ingest_stages, ingest);
  PrintLedger("view_lag_us (traced)", lag_stages, lag);
  r.Check(ingest.within_10pct, "ingest ledger stages do not sum within 10%");
  r.Check(lag.within_10pct, "view-lag ledger stages do not sum within 10%");
}

void AddLayerRows(Report& r, const LayerFigures& f) {
  const Counters& d = f.delta;
  const double n = std::max(f.records, 1.0);
  const double firings = d.tasks_created + d.firings_merged;
  r.Layer("feed.queue_wait_us", f.queue_wait_us, "us");
  r.Layer("feed.validate_us", f.validate_us, "us");
  r.Layer("feed.dml_us", f.dml_us, "us");
  r.Layer("feed.commit_us", f.commit_us, "us");
  r.Layer("feed.apply_us", f.apply_us, "us");
  r.Layer("rules.firings_per_record", firings / n, "count");
  r.Layer("rules.merge_ratio", firings > 0 ? d.firings_merged / firings : 0, "ratio");
  r.Layer("rules.batch_factor", f.batch_factor, "count");
  r.Layer("rules.action_queue_wait_us", f.action_queue_wait_us, "us");
  r.Layer("rules.action_exec_us", f.action_exec_us, "us");
  r.Layer("rules.rows_scanned_per_action", f.rows_scanned_per_action, "count");
  r.Layer("txn.lock_wait_us", d.lock_wait_us / n, "us");
  r.Layer("txn.lock_acquires_per_record", d.lock_acquires / n, "count");
  r.Layer("txn.wait_die_aborts_per_record", d.wait_die / n, "count");
  r.Layer("txn.restarts_per_record", (f.feed_restarts + d.action_restarts) / n, "count");
  r.Layer("executor.busy_frac", d.busy_us / 1e6 / (f.wall_s * f.workers), "frac");
  r.Layer("executor.tasks_per_record", d.tasks_run / n, "count");
  r.Layer("sql.read_exec_us", f.read_exec_us, "us");
  r.Layer("setup.trace_gen_s", f.trace_gen_s, "s");
  r.Layer("setup.populate_s", f.populate_s, "s");
  r.Layer("setup.rules_s", f.rules_s, "s");
  r.Layer("gen.late_p99_us", f.gen_late_p99_us, "us");
  r.Layer("gen.backlog_end", f.backlog_end, "records");
  r.Layer("ledger.unattributed_us", f.ingest.unattributed, "us");
  r.Layer("ledger.view_unattributed_us", f.lag.unattributed, "us");
  r.Layer("trace.overhead_frac", (f.traced_cpu_us - f.untraced_cpu_us) / f.untraced_cpu_us,
          "frac");
  r.Layer("work.lock_acquires_per_record", f.work.lock_acquires, "count");
  r.Layer("work.rows_scanned_per_record", f.work.rows_scanned, "count");
  r.Layer("work.tasks_per_record", f.work.tasks, "count");
  r.Layer("work.firings_merged_per_record", f.work.firings_merged, "count");
}

}  // namespace perfbench
