#include "strip/market/pta_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <thread>

#include "strip/common/string_util.h"
#include "strip/market/app_functions.h"
#include "strip/sql/parser.h"

namespace strip {

namespace {

bool IsRecomputeFunction(const std::string& name) {
  return name.rfind("compute_", 0) == 0;
}

double Percentile(std::vector<double>& sorted_in_place, double q) {
  if (sorted_in_place.empty()) return 0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted_in_place.size() - 1) + 0.5);
  return sorted_in_place[std::min(idx, sorted_in_place.size() - 1)];
}

}  // namespace

PtaExperiment::PtaExperiment(const MarketTrace& trace, const PtaConfig& cfg)
    : trace_(trace), cfg_(cfg) {
  Database::Options opts;
  opts.mode = ExecutorMode::kSimulated;
  opts.advance_clock_by_cost = true;
  db_ = std::make_unique<Database>(opts);
}

PtaExperiment::~PtaExperiment() = default;

Database& PtaExperiment::db() { return *db_; }

Status PtaExperiment::Setup(const std::string& rule_sql) {
    STRIP_RETURN_IF_ERROR(PopulatePtaTables(*db_, trace_, cfg_));
    STRIP_RETURN_IF_ERROR(RegisterPtaFunctions(*db_, cfg_.risk_free_rate));
    if (!rule_sql.empty()) {
      STRIP_RETURN_IF_ERROR(db_->Execute(rule_sql).status());
    }
    STRIP_ASSIGN_OR_RETURN(
        update_stmt_,
        db_->Prepare("update stocks set price = ? where symbol = ?"));
    symbols_.reserve(static_cast<size_t>(trace_.options().num_stocks));
    for (int i = 0; i < trace_.options().num_stocks; ++i) {
      symbols_.push_back(Value::Str(StockSymbol(i)));
    }
  return Status::OK();
}

Result<PtaRunResult> PtaExperiment::Run() {
  PtaRunResult result;
    result.duration_seconds = trace_.options().duration_seconds;
    result.num_updates = trace_.quotes().size();

    double update_response_total = 0;
    std::vector<double> staleness_seconds;
    uint64_t firings_consumed = 0;
    uint64_t tuples_consumed = 0;
    db_->executor().set_task_observer([&](const TaskControlBlock& t) {
      double cpu = static_cast<double>(t.cpu_nanos) / 1000.0;
      if (IsRecomputeFunction(t.function_name)) {
        ++result.num_recomputes;
        result.recompute_cpu_seconds += cpu / 1e6;
        if (t.commit_staleness_micros >= 0) {
          staleness_seconds.push_back(
              static_cast<double>(t.commit_staleness_micros) / 1e6);
        }
        firings_consumed += t.batched_firings;
        tuples_consumed += t.bound_tables.TotalTuples();
      } else {
        result.update_cpu_seconds += cpu / 1e6;
        double response =
            static_cast<double>(t.finish_time - t.release_time);
        update_response_total += response;
        if (response > result.max_update_response_micros) {
          result.max_update_response_micros = response;
        }
      }
      if (!t.result.ok()) ++result.failed_tasks;
    });

    // Replay: one update transaction per price change, released at the
    // quote's trace time (the paper pre-loads the trace, §4.1).
    for (const Quote& q : trace_.quotes()) {
      TaskPtr task = db_->NewTask();
      task->release_time = q.time;
      task->work = [this, q](TaskControlBlock&) { return ApplyQuote(q); };
      db_->Submit(task);
    }
    db_->simulated()->RunUntilQuiescent();

    result.total_cpu_seconds =
        result.update_cpu_seconds + result.recompute_cpu_seconds;
    result.recompute_cpu_fraction =
        result.recompute_cpu_seconds / result.duration_seconds;
    result.total_cpu_fraction =
        result.total_cpu_seconds / result.duration_seconds;
    result.avg_recompute_micros =
        result.num_recomputes > 0
            ? result.recompute_cpu_seconds * 1e6 /
                  static_cast<double>(result.num_recomputes)
            : 0.0;
    result.avg_update_response_micros =
        result.num_updates > 0
            ? update_response_total / static_cast<double>(result.num_updates)
            : 0.0;
    result.tasks_created = db_->rules().stats().tasks_created.load();
    result.firings_merged = db_->rules().stats().firings_merged.load();
    if (!staleness_seconds.empty()) {
      result.p50_staleness_seconds = Percentile(staleness_seconds, 0.50);
      result.p95_staleness_seconds = Percentile(staleness_seconds, 0.95);
      result.max_staleness_seconds = staleness_seconds.back();  // sorted
    }
    if (result.num_recomputes > 0) {
      result.avg_batching_factor =
          static_cast<double>(firings_consumed) /
          static_cast<double>(result.num_recomputes);
      result.avg_recompute_tuples =
          static_cast<double>(tuples_consumed) /
          static_cast<double>(result.num_recomputes);
    }
    result.metrics_json = db_->metrics().SnapshotJson();
  db_->executor().set_task_observer(nullptr);
  return result;
}

Status PtaExperiment::ApplyQuote(const Quote& q) {
  // `update stocks set price = ?1 where symbol = ?2` through the prepared
  // statement path — one ordinary single-tuple update transaction per
  // price change, like the paper's feed-driven update transactions (§4.3).
  STRIP_ASSIGN_OR_RETURN(Transaction * txn, db_->Begin());
  // Staleness is measured from the feed's arrival time — the quote's trace
  // timestamp — not from when the backlogged executor got to the update.
  txn->set_arrival_time(q.time);
  auto n = update_stmt_->ExecuteDml(
      txn, {Value::Double(q.price), symbols_[static_cast<size_t>(q.stock)]});
  if (!n.ok() || *n != 1) {
    Status ignored = db_->Abort(txn);
    (void)ignored;
    if (!n.ok()) return n.status();
    return Status::Internal(StrFormat("stock %d not found", q.stock));
  }
  return db_->Commit(txn);
}

Result<PtaRunResult> RunPtaExperiment(const MarketTrace& trace,
                                      const PtaConfig& cfg,
                                      const std::string& rule_sql) {
  PtaExperiment exp(trace, cfg);
  STRIP_RETURN_IF_ERROR(exp.Setup(rule_sql));
  return exp.Run();
}

Result<ThreadedPtaResult> RunThreadedPta(const ThreadedPtaOptions& options) {
  Database::Options db_opts;
  db_opts.mode = ExecutorMode::kThreaded;
  db_opts.num_workers = options.num_workers;
  db_opts.enable_metrics = options.enable_metrics;
  Database db(db_opts);

  PtaConfig cfg = PtaConfig::Scaled(options.scale);
  cfg.seed = options.seed;
  TraceOptions trace_opts = TraceOptions::Scaled(options.scale);
  trace_opts.seed = options.seed;
  MarketTrace trace = MarketTrace::Generate(trace_opts);

  STRIP_RETURN_IF_ERROR(PopulatePtaTables(db, trace, cfg));
  STRIP_RETURN_IF_ERROR(RegisterPtaFunctions(db, cfg.risk_free_rate));
  STRIP_RETURN_IF_ERROR(
      db.Execute(CompRuleSql(CompRuleVariant::kUniqueOnComp,
                             options.delay_seconds))
          .status());
  STRIP_ASSIGN_OR_RETURN(
      PreparedStatementPtr update_stmt,
      db.Prepare("update stocks set price = ? where symbol = ?"));
  std::vector<Value> symbols;
  symbols.reserve(static_cast<size_t>(trace_opts.num_stocks));
  for (int i = 0; i < trace_opts.num_stocks; ++i) {
    symbols.push_back(Value::Str(StockSymbol(i)));
  }

  ThreadedPtaResult result;
  result.num_workers = options.num_workers;
  result.num_updates = trace.quotes().size();

  // Firing measurements, folded in by the worker threads via the task
  // observer. The order-submission stall sleeps outside the mutex so
  // concurrent firings overlap their stalls — that overlap IS the scale-up.
  std::mutex obs_mu;
  std::vector<double> firing_latencies;
  Timestamp first_release = kNoDeadline;
  Timestamp last_done = 0;
  std::atomic<uint64_t> failed{0};
  db.executor().set_task_observer([&](const TaskControlBlock& t) {
    if (!t.result.ok()) failed.fetch_add(1, std::memory_order_relaxed);
    if (t.function_name.rfind("compute_", 0) != 0) return;
    if (options.order_latency_micros > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options.order_latency_micros));
    }
    Timestamp done = db.Now();
    std::lock_guard<std::mutex> lk(obs_mu);
    firing_latencies.push_back(
        static_cast<double>(t.finish_time - t.release_time));
    first_release = std::min(first_release, t.release_time);
    last_done = std::max(last_done, done);
  });

  // Burst-submit one update task per quote (ignoring trace inter-arrival
  // times: this experiment measures capacity, not a real-time replay). The
  // update transactions race on hot stocks rows; wait-die victims retry
  // with their original priority, like rule-action transactions do.
  std::atomic<uint64_t> restarts{0};
  Timestamp t0 = db.Now();
  for (const Quote& q : trace.quotes()) {
    TaskPtr task = db.NewTask();
    task->function_name = "apply_quote";
    const Value price = Value::Double(q.price);
    const Value& symbol = symbols[static_cast<size_t>(q.stock)];
    task->work = [&db, &update_stmt, &restarts, price,
                  symbol](TaskControlBlock&) -> Status {
      Status last;
      uint64_t priority = 0;
      for (int attempt = 0; attempt <= 10; ++attempt) {
        STRIP_ASSIGN_OR_RETURN(Transaction * txn, db.Begin(priority));
        if (priority == 0) priority = txn->priority();
        auto n = update_stmt->ExecuteDml(txn, {price, symbol});
        Status st = n.ok() ? db.Commit(txn) : n.status();
        if (!n.ok()) {
          Status ignored = db.Abort(txn);
          (void)ignored;
        }
        if (st.ok()) return Status::OK();
        if (st.code() != StatusCode::kAborted) return st;
        last = st;
        restarts.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min(1 << std::min(attempt, 5), 32)));
      }
      return last;
    };
    db.Submit(std::move(task));
  }
  db.threaded()->Drain();
  Timestamp t1 = db.Now();
  db.executor().set_task_observer(nullptr);

  result.wall_seconds = static_cast<double>(t1 - t0) / 1e6;
  result.update_restarts = restarts.load();
  result.failed_tasks = failed.load();
  {
    std::lock_guard<std::mutex> lk(obs_mu);
    result.num_firings = firing_latencies.size();
    if (result.num_firings > 0 && last_done > first_release) {
      result.firing_window_seconds =
          static_cast<double>(last_done - first_release) / 1e6;
      result.firings_per_second =
          static_cast<double>(result.num_firings) /
          result.firing_window_seconds;
    }
    result.p50_firing_latency_micros = Percentile(firing_latencies, 0.50);
    result.p99_firing_latency_micros = Percentile(firing_latencies, 0.99);
  }
  const LockManagerStats& ls = db.locks().stats();
  result.lock_acquires = ls.acquires.load();
  result.lock_waits = ls.waits.load();
  result.lock_wait_die_aborts = ls.wait_die_aborts.load();
  result.lock_wait_micros = ls.wait_micros.load();
  result.tasks_created = db.rules().stats().tasks_created.load();
  result.firings_merged = db.rules().stats().firings_merged.load();
  result.tasks_run = db.executor().stats().tasks_run.load();
  result.tasks_failed = db.executor().stats().tasks_failed.load();
  result.metrics_json =
      options.enable_metrics ? db.metrics().SnapshotJson() : "{}";
  return result;
}

Status CheckDerivedDataConsistency(Database& db, double risk_free_rate,
                                   double tolerance, bool check_comps,
                                   bool check_options) {
  (void)risk_free_rate;  // f_bs is already registered with the right rate
  auto compare = [&](const std::string& view, const std::string& key_col,
                     const std::string& recompute_sql) -> Status {
    STRIP_ASSIGN_OR_RETURN(ResultSet expected,
                           db.Execute(recompute_sql));
    STRIP_ASSIGN_OR_RETURN(
        ResultSet actual,
        db.Execute(StrFormat("select %s, price from %s", key_col.c_str(),
                             view.c_str())));
    if (expected.num_rows() != actual.num_rows()) {
      return Status::Internal(StrFormat(
          "%s: %zu rows maintained vs %zu recomputed", view.c_str(),
          actual.num_rows(), expected.num_rows()));
    }
    std::map<std::string, double> want;
    for (const auto& row : expected.rows) {
      want[row[0].as_string()] = row[1].as_double();
    }
    for (const auto& row : actual.rows) {
      auto it = want.find(row[0].as_string());
      if (it == want.end()) {
        return Status::Internal(StrFormat(
            "%s: unexpected key '%s'", view.c_str(),
            row[0].as_string().c_str()));
      }
      double got = row[1].as_double();
      double exp_v = it->second;
      double err = std::fabs(got - exp_v);
      double rel = err / std::max(1.0, std::fabs(exp_v));
      if (err > tolerance && rel > tolerance) {
        return Status::Internal(StrFormat(
            "%s['%s'] = %.9f maintained vs %.9f recomputed (err %.3g)",
            view.c_str(), row[0].as_string().c_str(), got, exp_v, err));
      }
    }
    return Status::OK();
  };

  if (check_comps) {
    STRIP_RETURN_IF_ERROR(compare(
        "comp_prices", "comp",
        "select comp, sum(stocks.price * weight) as price "
        "from stocks, comps_list where stocks.symbol = comps_list.symbol "
        "group by comp"));
  }
  if (check_options) {
    STRIP_RETURN_IF_ERROR(compare(
        "option_prices", "option_symbol",
        "select option_symbol, "
        "f_bs(stocks.price, strike, expiration, stdev) as price "
        "from stocks, stock_stdev, options_list "
        "where stocks.symbol = options_list.stock_symbol "
        "and stocks.symbol = stock_stdev.symbol"));
  }
  return Status::OK();
}

}  // namespace strip
