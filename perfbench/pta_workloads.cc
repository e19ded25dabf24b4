// pta_paced and pta_burst: the paper-scale program-trading database
// (6600 stocks, 400 composites x 200 members, 50k options) with the
// `unique on comp` comp_prices rule and the `unique on stock_symbol`
// option_prices rule, fed through FeedImporter on 1 engine worker while a
// reader thread issues prepared point SELECTs on the derived tables.
//
// Untraced runs drive the public feed path (FeedImporter::Submit /
// SubmitAll) and take every figure from outside: the executor's task
// observer, getrusage and the engine's stats structs. Traced runs first
// repeat that untraced phase, then replay the same pipeline through the
// public calls the importer makes (Validate, Database::Begin,
// PreparedStatement::ExecuteDml, Database::Commit inside a submitted task)
// with a timer around each call, and wrap the rule actions to time their
// bodies.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "strip/common/string_util.h"
#include "strip/engine/database.h"
#include "strip/feed/feed.h"
#include "strip/market/app_functions.h"
#include "strip/market/populate.h"
#include "strip/market/pta_runner.h"
#include "strip/market/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using strip::Database;
using strip::FeedImporter;
using strip::FeedRecord;
using strip::Status;
using strip::StatusCode;
using strip::TaskControlBlock;
using strip::Timestamp;
using strip::Value;

// One worker: with two, feed and action transactions on hot stocks rows
// kill each other under wait-die and the loser sleeps 1-32 ms before its
// retry, which made latency and capacity swing with the host's speed
// without raising capacity.
constexpr int kWorkers = 1;
constexpr double kDelaySeconds = 0.05;
constexpr Timestamp kDelayMicros = 50'000;
constexpr double kPacedRate = 1000;      // feed records / s (pta_paced)
// pta_paced records arrive in packets, as from a feed handler: 50 records
// due together every 50 ms. A record's latency is then mostly the engine
// work queued ahead of it, not the wake-up of an idle thread, whose delay
// on a shared host swings from run to run.
constexpr int64_t kPacketRecords = 50;
constexpr int64_t kPacketNanos =
    static_cast<int64_t>(kPacketRecords * 1e9 / kPacedRate);
constexpr size_t kBurstRecords = 10000;  // records per burst (pta_burst)
constexpr double kReadRate = 500;        // point reads / s (both)
constexpr int64_t kPacedWindow = 1000;   // records per measurement window
constexpr int kSetupRepeats = 5;
constexpr int64_t kLookaheadNanos = 2'000'000;  // submit 2 ms before due
constexpr int kWorkCountRecords = 4000;  // deterministic work-count replay

const char* const kActionFns[] = {"compute_comps3", "compute_options2"};
const char* const kWrapPrefix = "bench_";

/// Rule SQL of the workload; with `wrapped` the rules execute the timing
/// wrappers instead of the application functions.
std::vector<std::string> RuleSql(bool wrapped) {
  std::vector<std::string> out = {
      strip::CompRuleSql(strip::CompRuleVariant::kUniqueOnComp, kDelaySeconds),
      strip::OptionRuleSql(strip::OptionRuleVariant::kUniqueOnSymbol,
                           kDelaySeconds)};
  if (wrapped) {
    for (std::string& sql : out) {
      for (const char* fn : kActionFns) {
        std::string from = std::string("execute ") + fn;
        size_t at = sql.find(from);
        if (at != std::string::npos) {
          sql.replace(at, from.size(),
                      std::string("execute ") + kWrapPrefix + fn);
        }
      }
    }
  }
  return out;
}

std::string ReportedFnName(const std::string& fn) {
  return fn.rfind(kWrapPrefix, 0) == 0 ? fn.substr(std::string(kWrapPrefix).size())
                                       : fn;
}

/// Body times of wrapped rule actions, keyed by task id (a wait-die retry
/// runs the body again; its time adds up).
struct BodyTimes {
  std::atomic<bool> enabled{false};
  std::mutex mu;
  std::unordered_map<uint64_t, int64_t> ns;

  void Add(uint64_t task, int64_t d) {
    std::lock_guard<std::mutex> lk(mu);
    ns[task] += d;
  }
  int64_t Take(uint64_t task) {
    std::lock_guard<std::mutex> lk(mu);
    auto it = ns.find(task);
    if (it == ns.end()) return -1;
    int64_t v = it->second;
    ns.erase(it);
    return v;
  }
};

struct Pta {
  strip::MarketTrace trace;
  strip::PtaConfig cfg;
  std::unique_ptr<Database> db;
  std::unique_ptr<FeedImporter> importer;
  strip::PreparedStatementPtr update;       // traced replay's upsert
  strip::PreparedStatementPtr read_comp;    // comp_prices point read
  strip::PreparedStatementPtr read_option;  // option_prices point read
  std::vector<Value> symbols;
  double trace_gen_s = 0, populate_s = 0, rules_s = 0;
};

/// Builds the paper-scale database, its rules and the feed importer.
strip::Result<std::unique_ptr<Pta>> SetUp(uint64_t seed, bool wrapped,
                                          BodyTimes* body_times) {
  auto p = std::make_unique<Pta>();
  int64_t t0 = NowNanos();
  p->trace = strip::MarketTrace::Generate(TraceOptionsFor(seed));
  p->cfg = strip::PtaConfig::PaperScale();
  p->cfg.seed = seed;
  int64_t t1 = NowNanos();
  Database::Options o;
  o.mode = strip::ExecutorMode::kThreaded;
  o.num_workers = kWorkers;
  p->db = std::make_unique<Database>(o);
  STRIP_RETURN_IF_ERROR(strip::PopulatePtaTables(*p->db, p->trace, p->cfg));
  int64_t t2 = NowNanos();
  STRIP_RETURN_IF_ERROR(
      strip::RegisterPtaFunctions(*p->db, p->cfg.risk_free_rate));
  if (wrapped) {
    for (const char* fn : kActionFns) {
      const strip::UserFunction* inner = p->db->functions().Find(fn);
      if (inner == nullptr) return Status::NotFound(fn);
      strip::UserFunction body = *inner;
      STRIP_RETURN_IF_ERROR(p->db->RegisterFunction(
          std::string(kWrapPrefix) + fn,
          [body, body_times](strip::FunctionContext& ctx) -> Status {
            if (!body_times->enabled.load(std::memory_order_relaxed)) {
              return body(ctx);
            }
            int64_t s = NowNanos();
            Status st = body(ctx);
            body_times->Add(ctx.task().id(), NowNanos() - s);
            return st;
          }));
    }
  }
  for (const std::string& sql : RuleSql(wrapped)) {
    STRIP_RETURN_IF_ERROR(p->db->Execute(sql).status());
  }
  STRIP_ASSIGN_OR_RETURN(p->importer,
                         FeedImporter::Create(p->db.get(), "stocks"));
  STRIP_ASSIGN_OR_RETURN(
      p->update, p->db->Prepare("update stocks set price = ? where symbol = ?"));
  STRIP_ASSIGN_OR_RETURN(
      p->read_comp,
      p->db->Prepare("select price from comp_prices where comp = ?"));
  STRIP_ASSIGN_OR_RETURN(
      p->read_option,
      p->db->Prepare("select price from option_prices where option_symbol = ?"));
  for (int i = 0; i < p->trace.options().num_stocks; ++i) {
    p->symbols.push_back(Value::Str(strip::StockSymbol(i)));
  }
  int64_t t3 = NowNanos();
  p->trace_gen_s = static_cast<double>(t1 - t0) / 1e9;
  p->populate_s = static_cast<double>(t2 - t1) / 1e9;
  p->rules_s = static_cast<double>(t3 - t2) / 1e9;
  return p;
}

/// Per-function action figures.
struct FnStats {
  Samples queue_us, exec_us, body_us, commit_us;
};

/// Everything one offered phase measured.
struct Phase {
  // End-to-end.
  // Stamped with µs since the phase start: due time (ingest, reads) or
  // release time (actions).
  TimedSamples ingest_us, lag_us, read_us;
  Samples gen_late_us;
  std::vector<int64_t> windows;  // window starts: every 1000 records, or each burst
  double records_per_s = 0;
  double cpu_us_per_record = 0;        // quiet quartile of the windows
  double cpu_us_per_record_total = 0;  // whole phase, drain included
  Samples cpu_windows;
  double wall_s = 0;
  int64_t offered = 0, applied = 0, feed_failed = 0, action_failed = 0;
  int64_t reads = 0, reads_failed = 0, reads_retried = 0;
  int64_t backlog_end = 0;
  Timestamp last_commit = 0;  // engine time of the phase's last feed commit
  // Layer figures (traced phase only, except the counters).
  Samples queue_wait_us, validate_us, begin_us, dml_us, commit_us, apply_us;
  Samples read_exec_us, action_queue_us, action_exec_us, batch, rows_scanned;
  std::map<std::string, FnStats> fns;
  std::vector<LedgerRow> ingest_rows, lag_rows;
  int64_t feed_restarts = 0;
  Counters delta;
};

/// State shared with worker threads during a phase.
struct PhaseState {
  std::mutex mu;
  Phase* out = nullptr;
  std::atomic<int64_t> applied{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> restarts{0};
  /// CPU the reader thread has used; reads are not feed work, so it is
  /// taken out of the per-record CPU.
  std::atomic<int64_t> reader_cpu_ns{0};
  Timestamp t0_engine = 0;  // engine time at the phase start
};

/// Reader thread: prepared point reads on comp_prices / option_prices at
/// kReadRate, alternating tables, keys drawn from the seed. Latency runs
/// from the scheduled time when the reader was behind, else from the send.
void ReaderLoop(Pta& p, uint64_t seed, int64_t t0, const std::atomic<bool>& stop,
                int64_t stop_at_ns, bool traced, Phase& out,
                std::atomic<int64_t>& cpu_ns) {
  UseFineTimerSlack();
  strip::Rng rng(seed ^ 0x5eedf00dULL);
  const int comps = p.cfg.num_composites, options = p.cfg.num_options;
  for (int64_t j = 0;; ++j) {
    int64_t due = t0 + static_cast<int64_t>(static_cast<double>(j) * 1e9 / kReadRate);
    if (due >= stop_at_ns || stop.load(std::memory_order_relaxed)) break;
    bool comp = (j % 2) == 0;
    Value key = comp ? Value::Str(strip::CompSymbol(static_cast<int>(
                           rng.UniformInt(0, comps - 1))))
                     : Value::Str(strip::OptionSymbol(static_cast<int>(
                           rng.UniformInt(0, options - 1))));
    int64_t start = SleepUntilNanos(due) ? NowNanos() : due;
    strip::PreparedStatement& stmt = comp ? *p.read_comp : *p.read_option;
    bool ok = false;
    int64_t exec_ns = 0;
    const int64_t give_up = NowNanos() + kReadRetryNanos;
    for (int attempt = 0; NowNanos() < give_up; ++attempt) {
      if (attempt == 1) ++out.reads_retried;
      int64_t s = NowNanos();
      auto rs = stmt.Execute({key});
      exec_ns = NowNanos() - s;
      if (rs.ok()) {
        ok = rs->num_rows() == 1;
        break;
      }
      if (rs.status().code() != StatusCode::kAborted) break;
      std::this_thread::sleep_for(ReadBackoff(attempt));
    }
    cpu_ns.store(ThreadCpuNanos(), std::memory_order_relaxed);
    ++out.reads;
    if (!ok) {
      ++out.reads_failed;
      continue;
    }
    out.read_us.Add((due - t0) / 1000, static_cast<double>(NowNanos() - start) / 1e3);
    if (traced) out.read_exec_us.Add(static_cast<double>(exec_ns) / 1e3);
  }
}

/// Traced replay of one feed record: the calls FeedImporter makes, each
/// timed, with the importer's wait-die retry policy.
void SubmitTraced(Pta& p, PhaseState& st, FeedRecord rec) {
  int64_t v0 = NowNanos();
  Status valid = p.importer->Validate(rec);
  int64_t v1 = NowNanos();
  {
    std::lock_guard<std::mutex> lk(st.mu);
    st.out->validate_us.Add(static_cast<double>(v1 - v0) / 1e3);
  }
  if (!valid.ok()) {
    st.failed.fetch_add(1);
    return;
  }
  Database& db = *p.db;
  strip::TaskPtr task = db.NewTask();
  task->release_time = rec.at;
  task->trace = strip::NewTraceContext();
  task->work = [&p, &st, rec = std::move(rec)](TaskControlBlock& tcb) -> Status {
    Database& db = *p.db;
    Timestamp start = db.Now();
    int64_t begin_ns = 0, dml_ns = 0, commit_ns = 0;
    Status last;
    uint64_t priority = 0;
    for (int attempt = 0; attempt <= db.options().action_retry_limit; ++attempt) {
      int64_t a = NowNanos();
      auto txn = db.Begin(priority);
      int64_t b = NowNanos();
      begin_ns += b - a;
      if (!txn.ok()) {
        st.failed.fetch_add(1);
        return txn.status();
      }
      if (priority == 0) priority = (*txn)->priority();
      (*txn)->set_trace(strip::ChildOf(tcb.trace));
      (*txn)->set_lock_wait_sink(&tcb.lock_wait_micros);
      auto n = p.update->ExecuteDml(*txn, {rec.values[1], rec.values[0]});
      int64_t c = NowNanos();
      dml_ns += c - b;
      Status s;
      if (n.ok() && *n == 1) {
        s = db.Commit(*txn);
        commit_ns += NowNanos() - c;
        if (s.ok()) {
          Timestamp end = db.Now();
          double ingest = static_cast<double>(end - rec.at);
          double queue = static_cast<double>(start - rec.at);
          double bu = static_cast<double>(begin_ns) / 1e3;
          double du = static_cast<double>(dml_ns) / 1e3;
          double cu = static_cast<double>(commit_ns) / 1e3;
          st.applied.fetch_add(1);
          std::lock_guard<std::mutex> lk(st.mu);
          Phase& o = *st.out;
          o.ingest_us.Add(rec.at - st.t0_engine, ingest);
          o.last_commit = std::max(o.last_commit, end);
          o.queue_wait_us.Add(queue);
          o.begin_us.Add(bu);
          o.dml_us.Add(du);
          o.commit_us.Add(cu);
          o.apply_us.Add(bu + du + cu);
          o.ingest_rows.push_back({ingest, {queue, bu, du, cu}});
          return s;
        }
      } else {
        Status ignored = db.Abort(*txn);
        (void)ignored;
        s = n.ok() ? Status::Internal("feed upsert touched no row") : n.status();
      }
      if (s.code() != StatusCode::kAborted) {
        st.failed.fetch_add(1);
        return s;
      }
      last = s;
      st.restarts.fetch_add(1);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min(1 << std::min(attempt, 5), 32)));
    }
    st.failed.fetch_add(1);
    return last;
  };
  db.Submit(std::move(task));
}

FeedRecord RecordFor(const Pta& p, size_t cursor, Timestamp at) {
  const strip::Quote& q = p.trace.quotes()[cursor % p.trace.quotes().size()];
  FeedRecord rec;
  rec.at = at;
  rec.values = {p.symbols[static_cast<size_t>(q.stock)], Value::Double(q.price)};
  return rec;
}

/// One offered phase: paced (open loop at kPacedRate for `seconds`) or
/// burst (kBurstRecords offered at once, drained, repeated until `seconds`
/// have passed). `cursor` walks the trace across phases.
Phase RunPhase(Pta& p, bool burst, bool traced, double seconds, uint64_t seed,
               size_t& cursor, BodyTimes& body_times) {
  Phase out;
  Database& db = *p.db;
  PhaseState st;
  st.out = &out;
  body_times.enabled.store(traced);

  db.executor().set_task_observer([&](const TaskControlBlock& t) {
    if (t.function_name.empty()) {  // a feed upsert task
      if (traced) return;           // the replay records its own figures
      std::lock_guard<std::mutex> lk(st.mu);
      if (t.result.ok()) {
        out.ingest_us.Add(t.release_time - st.t0_engine,
                          static_cast<double>(t.finish_time - t.release_time));
        out.last_commit = std::max(out.last_commit, t.finish_time);
      }
      return;
    }
    double lag = t.commit_staleness_micros >= 0
                     ? static_cast<double>(t.commit_staleness_micros - kDelayMicros)
                     : std::nan("");
    double queue = static_cast<double>(t.start_time - t.release_time);
    double exec = static_cast<double>(t.cpu_nanos) / 1e3;
    int64_t body_ns = traced ? body_times.Take(t.id()) : -1;
    std::lock_guard<std::mutex> lk(st.mu);
    if (!t.result.ok()) {
      ++out.action_failed;
      return;
    }
    if (!std::isnan(lag)) out.lag_us.Add(t.release_time - st.t0_engine, lag);
    if (!traced) return;
    out.action_queue_us.Add(queue);
    out.action_exec_us.Add(exec);
    out.batch.Add(static_cast<double>(t.batched_firings));
    out.rows_scanned.Add(static_cast<double>(t.rows_scanned));
    FnStats& f = out.fns[ReportedFnName(t.function_name)];
    f.queue_us.Add(queue);
    f.exec_us.Add(exec);
    double body = body_ns >= 0 ? static_cast<double>(body_ns) / 1e3 : 0.0;
    f.body_us.Add(body);
    f.commit_us.Add(exec - body);
    if (!std::isnan(lag)) {
      // Commit staleness = commit - oldest change; the oldest change's
      // firing released the task `delay` after it fired, so
      // lag = (fire - oldest) + (start - release) + (commit - start).
      double fire = static_cast<double>(t.release_time - kDelayMicros -
                                        t.oldest_change_time);
      out.lag_rows.push_back({lag, {fire, queue, body, exec - body}});
    }
  });

  // The importer's counters are cumulative over the database's life.
  auto importer_applied = [&] {
    return static_cast<int64_t>(p.importer->records_applied());
  };
  const int64_t applied0 = importer_applied();
  const int64_t failed0 = static_cast<int64_t>(p.importer->records_failed());
  auto applied_now = [&] {
    return traced ? st.applied.load() : importer_applied() - applied0;
  };

  Counters before = Counters::Read(db);
  double cpu0 = SelfCpuSeconds();
  int64_t t0 = NowNanos();
  Timestamp t0_engine = db.Now();
  st.t0_engine = t0_engine;
  int64_t end_ns = t0 + static_cast<int64_t>(seconds * 1e9);
  std::atomic<bool> stop{false};
  const uint64_t reader_seed = seed + cursor;
  std::thread reader([&] {
    ReaderLoop(p, reader_seed, t0, stop, burst ? INT64_MAX : end_ns, traced, out,
               st.reader_cpu_ns);
  });
  UseFineTimerSlack();

  int64_t offered = 0;
  Samples burst_rates;
  // CPU per record over successive windows (1000 paced records, or one
  // burst); the run reports their quiet quartile (kQuietCost).
  auto feed_cpu = [&] {
    return SelfCpuSeconds() - static_cast<double>(st.reader_cpu_ns.load()) / 1e9;
  };
  double window_cpu = feed_cpu();
  int64_t window_applied = 0;
  auto close_window = [&] {
    double cpu = feed_cpu();
    int64_t applied = applied_now();
    if (applied > window_applied) {
      out.cpu_windows.Add((cpu - window_cpu) * 1e6 /
                          static_cast<double>(applied - window_applied));
    }
    window_cpu = cpu;
    window_applied = applied;
  };
  if (!burst) {
    for (int64_t i = 0;; ++i) {
      int64_t due_off = i / kPacketRecords * kPacketNanos;
      if (t0 + due_off >= end_ns) break;
      if (i % kPacedWindow == 0) {
        if (i > 0) close_window();
        out.windows.push_back(due_off / 1000);
      }
      if (i % kPacketRecords == 0) {
        int64_t submit_at = t0 + due_off - kLookaheadNanos;
        SleepUntilNanos(submit_at);
        out.gen_late_us.Add(
            static_cast<double>(std::max<int64_t>(0, NowNanos() - submit_at)) / 1e3);
      }
      FeedRecord rec = RecordFor(p, cursor++, t0_engine + due_off / 1000);
      if (traced) {
        SubmitTraced(p, st, std::move(rec));
      } else if (!p.importer->Submit(std::move(rec)).ok()) {
        st.failed.fetch_add(1);
      }
      ++offered;
    }
    SleepUntilNanos(end_ns);
  } else {
    while (NowNanos() < end_ns) {
      int64_t b0 = NowNanos();
      Timestamp at = db.Now();
      out.windows.push_back(at - t0_engine);
      std::vector<FeedRecord> chunk;
      chunk.reserve(kBurstRecords);
      for (size_t k = 0; k < kBurstRecords; ++k) chunk.push_back(RecordFor(p, cursor++, at));
      if (traced) {
        for (FeedRecord& rec : chunk) {
          SubmitTraced(p, st, std::move(rec));
          out.gen_late_us.Add(static_cast<double>(NowNanos() - b0) / 1e3);
        }
      } else {
        if (!p.importer->SubmitAll(chunk).ok()) st.failed.fetch_add(1);
        out.gen_late_us.Add(static_cast<double>(NowNanos() - b0) / 1e3);
      }
      offered += static_cast<int64_t>(kBurstRecords);
      out.backlog_end = offered - applied_now();
      db.threaded()->Drain();
      burst_rates.Add(static_cast<double>(kBurstRecords) /
                      (static_cast<double>(NowNanos() - b0) / 1e9));
      close_window();
    }
  }
  if (!burst) {
    // Records not applied by the end of the offered phase are backlog.
    out.backlog_end = offered - applied_now();
  }
  stop.store(true);
  reader.join();
  db.threaded()->Drain();
  int64_t t1 = NowNanos();
  double cpu1 = SelfCpuSeconds() - static_cast<double>(st.reader_cpu_ns.load()) / 1e9;
  db.executor().set_task_observer(nullptr);
  body_times.enabled.store(false);

  out.offered = offered;
  out.wall_s = static_cast<double>(t1 - t0) / 1e9;
  out.delta = Counters::Read(db).Minus(before);
  out.feed_restarts = st.restarts.load();
  out.feed_failed = st.failed.load();
  out.applied = applied_now();
  if (!traced) {
    out.feed_failed +=
        static_cast<int64_t>(p.importer->records_failed()) - failed0;
  }
  // Paced: records applied over the span from the first due time to the
  // last commit, which stretches past the offered phase when a backlog
  // builds up.
  out.records_per_s =
      burst ? burst_rates.Percentile(kQuietRate)
            : static_cast<double>(out.applied) /
                  (static_cast<double>(out.last_commit - t0_engine) / 1e6);
  out.cpu_us_per_record_total =
      out.applied > 0 ? (cpu1 - cpu0) * 1e6 / static_cast<double>(out.applied) : 0;
  out.cpu_us_per_record = out.cpu_windows.Percentile(kQuietCost);
  return out;
}

/// Work counts (see WorkCounts): a fresh database on the simulated executor
/// (virtual clock not advanced by measured cost, so no timer decides
/// anything) replays the first kWorkCountRecords records at the paced rate.
strip::Result<WorkCounts> SimulatedWorkCounts(uint64_t seed) {
  strip::MarketTrace trace = strip::MarketTrace::Generate(TraceOptionsFor(seed));
  strip::PtaConfig cfg = strip::PtaConfig::PaperScale();
  cfg.seed = seed;
  Database::Options o;
  o.mode = strip::ExecutorMode::kSimulated;
  o.advance_clock_by_cost = false;
  Database db(o);
  STRIP_RETURN_IF_ERROR(strip::PopulatePtaTables(db, trace, cfg));
  STRIP_RETURN_IF_ERROR(strip::RegisterPtaFunctions(db, cfg.risk_free_rate));
  for (const std::string& sql : RuleSql(false)) {
    STRIP_RETURN_IF_ERROR(db.Execute(sql).status());
  }
  STRIP_ASSIGN_OR_RETURN(auto importer, FeedImporter::Create(&db, "stocks"));
  double rows = 0;
  db.executor().set_task_observer([&](const TaskControlBlock& t) {
    rows += static_cast<double>(t.rows_scanned);
  });
  Counters before = Counters::Read(db);
  for (int i = 0; i < kWorkCountRecords; ++i) {
    const strip::Quote& q = trace.quotes()[static_cast<size_t>(i)];
    FeedRecord rec;
    rec.at = i / kPacketRecords * kPacketNanos / 1000;
    rec.values = {Value::Str(strip::StockSymbol(q.stock)), Value::Double(q.price)};
    STRIP_RETURN_IF_ERROR(importer->Submit(std::move(rec)));
  }
  db.simulated()->RunUntilQuiescent();
  db.executor().set_task_observer(nullptr);
  Counters d = Counters::Read(db).Minus(before);
  WorkCounts w;
  double n = kWorkCountRecords;
  w.lock_acquires = d.lock_acquires / n;
  w.rows_scanned = rows / n;
  w.tasks = d.tasks_run / n;
  w.firings_merged = d.firings_merged / n;
  return w;
}

void AddEndToEnd(Report& r, const Phase& ph, double setup_s, double rss) {
  r.E2e("setup_s", setup_s, "s");
  r.E2e("records_per_s", ph.records_per_s, "1/s", ph.applied);
  r.E2e("cpu_us_per_record", ph.cpu_us_per_record, "us", ph.applied);
  AddLatencyRows(r, "ingest", ph.ingest_us, ph.windows);
  AddLatencyRows(r, "view_lag", ph.lag_us, ph.windows);
  AddLatencyRows(r, "read", ph.read_us, ph.windows);
  int64_t attempted = ph.offered + ph.reads;
  int64_t failed = ph.feed_failed + ph.reads_failed;
  r.E2e("ok_frac",
        attempted > 0 ? 1.0 - static_cast<double>(failed) / static_cast<double>(attempted) : 0,
        "frac", attempted);
  r.E2e("peak_rss_mb", rss, "MB");
}

void CheckPhase(Report& r, const Phase& ph, bool burst, const char* label) {
  r.attempted += ph.offered + ph.reads;
  r.failed += ph.feed_failed + ph.reads_failed;
  r.Check(ph.action_failed == 0,
          strip::StrFormat("%s: %lld rule action tasks failed", label,
                           static_cast<long long>(ph.action_failed)));
  r.Check(ph.applied + ph.feed_failed == ph.offered,
          strip::StrFormat("%s: %lld offered, %lld applied, %lld failed", label,
                           static_cast<long long>(ph.offered),
                           static_cast<long long>(ph.applied),
                           static_cast<long long>(ph.feed_failed)));
  r.Check(!ph.ingest_us.empty() && !ph.lag_us.empty() && !ph.read_us.empty(),
          std::string(label) + ": a latency sample set is empty");
  if (!burst) {
    // Validity of an open-loop run: the generator kept its schedule and
    // the engine kept up with the offered rate.
    double late = ph.gen_late_us.Percentile(0.99);
    r.Valid(late < 5000, strip::StrFormat("%s: generator ran late (p99 %.0f us)",
                                          label, late));
    r.Valid(ph.backlog_end < static_cast<int64_t>(kPacedRate / 4),
            strip::StrFormat("%s: backlog of %lld records at the end of the "
                             "offered phase",
                             label, static_cast<long long>(ph.backlog_end)));
  }
}

}  // namespace

Report RunPtaWorkload(const RunOptions& opts, bool burst,
                      int64_t process_start_ns) {
  Report r;
  BodyTimes body_times;
  // Set-up, repeated; the last database is the one measured. The first
  // repetition counts from process start.
  Samples setup_s, trace_gen_s, populate_s, rules_s;
  std::unique_ptr<Pta> p;
  for (int i = 0; i < kSetupRepeats; ++i) {
    p.reset();
    int64_t s0 = i == 0 ? process_start_ns : NowNanos();
    auto made = SetUp(opts.seed, opts.trace, &body_times);
    if (!made.ok()) {
      r.Fail("set-up: " + made.status().ToString());
      return r;
    }
    p = std::move(*made);
    setup_s.Add(static_cast<double>(NowNanos() - s0) / 1e9);
    trace_gen_s.Add(p->trace_gen_s);
    populate_s.Add(p->populate_s);
    rules_s.Add(p->rules_s);
  }
  std::printf("workload   %s: %s, %d workers, %.0f ms windows, reads %.0f/s, "
              "seed %llu, %.0f s\n",
              burst ? "pta_burst" : "pta_paced",
              burst ? "bursts of 10000 records offered at once"
                    : "open loop at 1000 records/s in packets of 50 every 50 ms",
              kWorkers, kDelaySeconds * 1e3, kReadRate,
              static_cast<unsigned long long>(opts.seed), opts.seconds);

  size_t cursor = 0;
  Phase plain = RunPhase(*p, burst, false, opts.seconds, opts.seed, cursor, body_times);
  CheckPhase(r, plain, burst, "untraced phase");
  AddEndToEnd(r, plain, setup_s.Median(), SelfPeakRssMb());
  r.Extra("gen.late_p99_us", plain.gen_late_us.Percentile(0.99), "us",
          static_cast<int64_t>(plain.gen_late_us.size()));
  r.Extra("gen.backlog_end", static_cast<double>(plain.backlog_end), "records");
  r.Extra("cpu_us_per_record.whole_phase", plain.cpu_us_per_record_total, "us");
  r.Extra("read.retried_frac",
          static_cast<double>(plain.reads_retried) / static_cast<double>(plain.reads), "frac",
          plain.reads);

  if (opts.trace) {
    Phase ph = RunPhase(*p, burst, true, opts.seconds, opts.seed, cursor, body_times);
    CheckPhase(r, ph, burst, "traced phase");
    LayerFigures f;
    f.queue_wait_us = ph.queue_wait_us.Mean();
    f.validate_us = ph.validate_us.Mean();
    f.dml_us = ph.dml_us.Mean();
    f.commit_us = ph.commit_us.Mean();
    f.apply_us = ph.apply_us.Mean();
    f.batch_factor = ph.batch.Mean();
    f.action_queue_wait_us = ph.action_queue_us.Mean();
    f.action_exec_us = ph.action_exec_us.Mean();
    f.rows_scanned_per_action = ph.rows_scanned.Mean();
    f.read_exec_us = ph.read_exec_us.Mean();
    f.delta = ph.delta;
    f.records = static_cast<double>(ph.applied);
    f.feed_restarts = static_cast<double>(ph.feed_restarts);
    f.wall_s = ph.wall_s;
    f.workers = kWorkers;
    f.trace_gen_s = trace_gen_s.Median();
    f.populate_s = populate_s.Median();
    f.rules_s = rules_s.Median();
    f.gen_late_p99_us = ph.gen_late_us.Percentile(0.99);
    f.backlog_end = static_cast<double>(ph.backlog_end);
    f.ingest = BuildLedger(ph.ingest_rows);
    f.lag = BuildLedger(ph.lag_rows);
    ReportLedgers(r, f.ingest,
                  {"feed.queue_wait_us", "feed.begin_us", "feed.dml_us", "feed.commit_us"},
                  f.lag,
                  {"feed.fire_us (oldest change -> rule fired)",
                   "rules.action_queue_wait_us", "rules.action_body_us",
                   "rules.action_commit_us"});
    f.untraced_cpu_us = plain.cpu_us_per_record;
    f.traced_cpu_us = ph.cpu_us_per_record;
    auto work = SimulatedWorkCounts(opts.seed);
    if (work.ok()) {
      f.work = *work;
    } else {
      r.Fail("work counts: " + work.status().ToString());
    }
    AddLayerRows(r, f);
    r.Extra("traced.ingest_p50_us", ph.ingest_us.All().Median(), "us",
            static_cast<int64_t>(ph.ingest_us.size()));
    r.Extra("traced.view_lag_p50_us", ph.lag_us.All().Median(), "us",
            static_cast<int64_t>(ph.lag_us.size()));
    r.Extra("traced.cpu_us_per_record", ph.cpu_us_per_record, "us");
    r.Extra("feed.begin_us", ph.begin_us.Mean(), "us");
    for (const auto& [fn, stats] : ph.fns) {
      r.Extra("rules.action_queue_wait_us." + fn, stats.queue_us.Mean(), "us",
              static_cast<int64_t>(stats.queue_us.size()));
      r.Extra("rules.action_exec_us." + fn, stats.exec_us.Mean(), "us");
      r.Extra("rules.action_body_us." + fn, stats.body_us.Mean(), "us");
      r.Extra("rules.action_commit_us." + fn, stats.commit_us.Mean(), "us");
    }
  }

  // Correctness gate: after the drain both derived tables equal a
  // recompute from base data.
  Status consistent = strip::CheckDerivedDataConsistency(
      *p->db, p->cfg.risk_free_rate, 1e-6, /*check_comps=*/true,
      /*check_options=*/true);
  r.Check(consistent.ok(), "derived data: " + consistent.ToString());
  return r;
}

}  // namespace perfbench
