// server_durable: the shipped strip_server as a child process on loopback
// with --data-dir (feed WAL with group-commit fdatasync, auto-checkpoints),
// serving its demo schema: the `quotes` feed table and the `quote_stats`
// materialized view maintained by generated delta rules.
//
// The untraced run drives the server only through strip::Client: an
// open-loop writer sends FeedAppend batches at a fixed batch rate and, in
// its idle time, polls quote_stats on a second connection until chosen
// records become visible (view freshness); a reader thread issues prepared
// point reads of quote_stats on a third connection. CPU and peak memory
// are read from /proc/<pid> of the server process.
//
// The traced run replays the server's FeedAppend path in this process
// through the same public calls (TryDecodeFrame, DecodeFeedAppendRequest,
// FeedImporter::Validate, DurableLog::Append / Sync, the importer's
// Begin -> ExecuteDml -> Commit upsert, Encode of the ack) with a timer
// around each, once untimed and once timed.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "strip/common/string_util.h"
#include "strip/durability/durable_log.h"
#include "strip/engine/database.h"
#include "strip/feed/feed.h"
#include "strip/feed/framing.h"
#include "strip/market/populate.h"
#include "strip/market/trace.h"
#include "strip/net/client.h"
#include "strip/net/protocol.h"
#include "strip/viewmaint/rule_gen.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using strip::Client;
using strip::Database;
using strip::FeedImporter;
using strip::FeedRecord;
using strip::Status;
using strip::StatusCode;
using strip::TaskControlBlock;
using strip::Timestamp;
using strip::Value;

constexpr size_t kBatch = 128;           // records per FeedAppend
constexpr double kBatchRate = 6.25;      // batches / s (800 records / s)
constexpr double kReadRate = 10;         // point reads / s
constexpr double kDelaySeconds = 0.05;   // quote_stats batching window
constexpr int64_t kDelayNanos = 50'000'000;
constexpr int kServerWorkers = 1;  // one maintenance action at a time
constexpr uint64_t kCheckpointWalBytes = 640 * 1024;  // a checkpoint every ~9 s
constexpr size_t kPreloadBatch = 256;
constexpr int kSetupRepeats = 15;  // a server set-up takes ~20 ms
constexpr int64_t kPollGapNanos = 10'000'000;   // freshness poll spacing
constexpr size_t kProbeEvery = 4;               // probe one batch in four
constexpr int64_t kPollGuardNanos = 3'000'000;  // no poll this close to a read or batch
constexpr int64_t kProbeTimeoutNanos = 2'000'000'000;
constexpr int kPings = 1000;
constexpr int kWorkCountBatches = 4000 / kBatch;  // ~4000 records
constexpr size_t kWindowBatches = 25;  // 4 s measurement windows
constexpr const char* kTable = "quotes";

constexpr const char* kDemoSchema = R"(
  create table quotes (symbol string, price double);
  create index on quotes (symbol);
  create materialized view quote_stats as
    select symbol, sum(price) as total, count(*) as n
    from quotes group by symbol;
)";

// ---------------------------------------------------------------------------
// The feed: the seed's TAQ trace as fixed-size batches of (symbol, price).
// ---------------------------------------------------------------------------

struct Feed {
  strip::MarketTrace trace;
  std::vector<std::string> symbols;
  /// Initial price of every symbol: the preload that gives quotes and
  /// quote_stats one row per symbol before the run.
  std::vector<FeedRecord> preload;
};

Feed MakeFeed(uint64_t seed) {
  Feed f;
  f.trace = strip::MarketTrace::Generate(TraceOptionsFor(seed));
  for (int i = 0; i < f.trace.options().num_stocks; ++i) {
    f.symbols.push_back(strip::StockSymbol(i));
    FeedRecord rec;
    rec.values = {Value::Str(f.symbols.back()),
                  Value::Double(f.trace.initial_prices()[static_cast<size_t>(i)])};
    f.preload.push_back(std::move(rec));
  }
  return f;
}

/// The run's batches, in order; record i of the run is trace quote
/// `i mod |trace|`.
std::vector<std::vector<FeedRecord>> MakeBatches(const Feed& f, size_t count) {
  std::vector<std::vector<FeedRecord>> out(count);
  const auto& quotes = f.trace.quotes();
  size_t cursor = 0;
  for (auto& batch : out) {
    for (size_t k = 0; k < kBatch; ++k, ++cursor) {
      const strip::Quote& q = quotes[cursor % quotes.size()];
      FeedRecord rec;
      rec.values = {Value::Str(f.symbols[static_cast<size_t>(q.stock)]),
                    Value::Double(q.price)};
      batch.push_back(std::move(rec));
    }
  }
  return out;
}

/// Freshness probe candidates: per batch, one record whose symbol is not
/// written in the preceding 2 windows (so no queued maintenance task can
/// absorb it) nor in the following second (so the polled value cannot be
/// overwritten), and whose price differs from the symbol's previous price
/// (so the update fires the rule). -1 where a batch has none.
std::vector<int> ProbeCandidates(const Feed& f,
                                 const std::vector<std::vector<FeedRecord>>& batches) {
  std::unordered_map<std::string, std::vector<size_t>> where;
  for (size_t b = 0; b < batches.size(); ++b) {
    for (const FeedRecord& rec : batches[b]) where[rec.values[0].as_string()].push_back(b);
  }
  const size_t before = static_cast<size_t>(std::ceil(2 * kDelaySeconds * kBatchRate));
  const size_t after = static_cast<size_t>(kBatchRate);
  std::unordered_map<std::string, double> last;
  for (const FeedRecord& rec : f.preload) last[rec.values[0].as_string()] = rec.values[1].as_double();
  std::vector<int> out(batches.size(), -1);
  for (size_t b = 0; b < batches.size(); ++b) {
    for (size_t k = 0; k < batches[b].size(); ++k) {
      const std::string& s = batches[b][k].values[0].as_string();
      double price = batches[b][k].values[1].as_double();
      if (out[b] < 0 && price != last[s]) {
        bool alone = true;
        for (size_t other : where[s]) {
          if (other != b && other + before >= b && other <= b + after) alone = false;
        }
        // Only one write of the symbol inside this batch either.
        size_t in_batch = 0;
        for (const FeedRecord& r : batches[b]) in_batch += r.values[0].as_string() == s;
        if (alone && in_batch == 1) out[b] = static_cast<int>(k);
      }
      last[s] = price;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The server process.
// ---------------------------------------------------------------------------

struct ServerProc {
  pid_t pid = -1;
  int out_fd = -1;
  uint16_t port = 0;
};

strip::Result<ServerProc> StartServer(const RunOptions& opts, const std::string& data_dir) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  std::string log = opts.work_dir + "/server.log";
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<std::string> args = {
      opts.server_bin, "--data-dir=" + data_dir, "--port=0",
      "--workers=" + std::to_string(kServerWorkers),
      strip::StrFormat("--delay=%g", kDelaySeconds),
      "--checkpoint-wal-bytes=" + std::to_string(kCheckpointWalBytes)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  ServerProc proc;
  int rc = posix_spawn(&proc.pid, opts.server_bin.c_str(), &fa, nullptr,
                       argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return Status::Internal("cannot start " + opts.server_bin);
  }
  proc.out_fd = fds[0];
  // Wait for "LISTENING <port>".
  std::string line;
  int64_t deadline = NowNanos() + 60'000'000'000;
  while (line.find('\n') == std::string::npos) {
    pollfd p{proc.out_fd, POLLIN, 0};
    int64_t left_ms = (deadline - NowNanos()) / 1'000'000;
    if (left_ms <= 0 || poll(&p, 1, static_cast<int>(left_ms)) <= 0) break;
    char c[64];
    ssize_t n = read(proc.out_fd, c, sizeof(c));
    if (n <= 0) break;
    line.append(c, static_cast<size_t>(n));
  }
  if (line.rfind("LISTENING ", 0) != 0) {
    kill(proc.pid, SIGKILL);
    waitpid(proc.pid, nullptr, 0);
    close(proc.out_fd);
    return Status::Internal("strip_server did not start: '" + line + "'");
  }
  proc.port = static_cast<uint16_t>(std::atoi(line.c_str() + 10));
  return proc;
}

void KillServer(ServerProc& p) {
  if (p.pid <= 0) return;
  kill(p.pid, SIGKILL);
  waitpid(p.pid, nullptr, 0);
  close(p.out_fd);
  p.pid = -1;
}

/// Graceful stop through Admin kShutdown (final checkpoint included);
/// SIGKILL if the process has not exited within 60 s.
Status StopServer(ServerProc& p, Client& admin) {
  auto r = admin.Admin(strip::AdminOp::kShutdown);
  for (int i = 0; i < 6000; ++i) {
    if (waitpid(p.pid, nullptr, WNOHANG) == p.pid) {
      close(p.out_fd);
      p.pid = -1;
      return r.ok() ? Status::OK() : r.status();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  KillServer(p);
  return Status::Internal("strip_server did not exit after shutdown");
}

strip::Result<std::unique_ptr<Client>> Connect(const ServerProc& p, const char* name) {
  return Client::Connect("127.0.0.1", p.port, strip::SessionPriority::kNormal, name);
}

double JsonNumber(const std::string& body, const std::string& key) {
  size_t at = body.find("\"" + key + "\":");
  if (at == std::string::npos) return std::nan("");
  return std::strtod(body.c_str() + at + key.size() + 3, nullptr);
}

/// One quote_stats point read; returns the row's total, NaN when the row
/// is missing. The read scans quote_stats (no index on symbol), so it
/// often meets a maintenance transaction and dies under wait-die; like any
/// client it retries, for up to a second.
strip::Result<double> ReadTotal(Client& c, uint64_t handle, const std::string& symbol) {
  Status last;
  const int64_t give_up = NowNanos() + kReadRetryNanos;
  for (int attempt = 0; NowNanos() < give_up; ++attempt) {
    auto r = c.Exec(handle, {Value::Str(symbol)});
    if (r.ok()) {
      if (r->rows.size() != 1) return std::nan("");
      return r->rows[0][0].as_double();
    }
    last = r.status();
    if (last.code() != StatusCode::kAborted) break;
    std::this_thread::sleep_for(ReadBackoff(attempt));
  }
  return last;
}

constexpr const char* kReadSql = "select total from quote_stats where symbol = ?";

// ---------------------------------------------------------------------------
// Untraced run against the server process.
// ---------------------------------------------------------------------------

struct Probe {
  std::string symbol;
  double price = 0;
  int64_t sent = 0;
  int64_t next_poll = 0;
};

/// Probes handed from the writer (after the ack) to the reader thread.
struct ProbeQueue {
  std::mutex mu;
  std::vector<Probe> pending;
  std::atomic<bool> writer_done{false};
};

struct ReaderResult {
  TimedSamples read_us, lag_us;  // stamped with µs since the run start
  int64_t reads = 0, reads_failed = 0, probes = 0, probes_failed = 0;
};

/// The reader thread: prepared point reads of quote_stats for random
/// symbols at kReadRate (latency from the scheduled time when behind,
/// else from the send), and in the gaps between them freshness polls of
/// the writer's probes until each probe's price is visible in quote_stats.
void ReaderLoop(Client& c, uint64_t handle, const Feed& f, uint64_t seed, int64_t t0,
                int64_t end, ProbeQueue& q, ReaderResult& out) {
  UseFineTimerSlack();
  strip::Rng rng(seed ^ 0x5eedf00dULL);
  int64_t j = 0;
  int64_t busy_until = 0;  // when the last read or poll returned
  for (;;) {
    int64_t now = NowNanos();
    int64_t read_due = t0 + static_cast<int64_t>(static_cast<double>(j) * 1e9 / kReadRate);
    bool reads_done = read_due >= end;
    if (!reads_done && now >= read_due) {
      const std::string& s = f.symbols[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(f.symbols.size()) - 1))];
      int64_t start = busy_until > read_due ? read_due : now;
      auto total = ReadTotal(c, handle, s);
      busy_until = NowNanos();
      ++out.reads;
      ++j;
      if (!total.ok() || std::isnan(*total)) {
        ++out.reads_failed;
      } else {
        out.read_us.Add((read_due - t0) / 1000, static_cast<double>(busy_until - start) / 1e3);
      }
      continue;
    }
    Probe probe;
    bool poll = false;
    int64_t wake = reads_done ? now + 1'000'000 : read_due;
    {
      std::lock_guard<std::mutex> lk(q.mu);
      if (reads_done && q.pending.empty() && q.writer_done.load()) return;
      auto it = std::min_element(q.pending.begin(), q.pending.end(),
                                 [](const Probe& x, const Probe& y) {
                                   return x.next_poll < y.next_poll;
                                 });
      if (it != q.pending.end()) {
        // A poll may start only if it will not delay the next scheduled
        // read, nor the next feed batch: a poll scans quote_stats on the
        // server's dispatch thread, and the probes measure the feed path,
        // so they must not queue in front of it.
        auto next_batch = [&](int64_t t) {
          double k = std::floor(static_cast<double>(t - t0) * kBatchRate / 1e9) + 1;
          return t0 + static_cast<int64_t>(k * 1e9 / kBatchRate);
        };
        auto fits = [&](int64_t t) {
          return t + kPollGuardNanos <= next_batch(t) &&
                 (reads_done || t + kPollGuardNanos <= read_due);
        };
        if (it->next_poll <= now && fits(now)) {
          std::iter_swap(it, q.pending.end() - 1);
          probe = std::move(q.pending.back());
          q.pending.pop_back();
          poll = true;
        } else {
          // Wake when the probe is due, or once the next batch has been sent.
          int64_t t = std::max(it->next_poll, now);
          if (!fits(t)) t = next_batch(t);
          if (t < wake && fits(t)) wake = t;
        }
      }
    }
    if (!poll) {
      SleepUntilNanos(wake);
      continue;
    }
    auto total = ReadTotal(c, handle, probe.symbol);
    busy_until = NowNanos();
    if (total.ok() && *total == probe.price) {
      out.lag_us.Add((probe.sent - t0) / 1000,
                     static_cast<double>(busy_until - probe.sent - kDelayNanos) / 1e3);
    } else if (!total.ok() || busy_until - probe.sent > kProbeTimeoutNanos) {
      ++out.probes_failed;
    } else {
      probe.next_poll = busy_until + kPollGapNanos;
      std::lock_guard<std::mutex> lk(q.mu);
      q.pending.push_back(std::move(probe));
    }
  }
}

Report RunExternal(const RunOptions& opts, const Feed& f, bool with_layer_extras) {
  Report r;
  std::error_code ec;
  std::string data_dir = opts.work_dir + "/srv";
  fs::remove_all(data_dir, ec);
  fs::create_directories(data_dir, ec);

  // Preload the initial prices and stop the server gracefully: its final
  // checkpoint holds them, and every set-up below recovers that snapshot.
  uint64_t preload_lsn = 0;
  {
    auto proc = StartServer(opts, data_dir);
    if (!proc.ok()) {
      r.Fail(proc.status().ToString());
      return r;
    }
    auto c = Connect(*proc, "preload");
    Status st = c.status();
    for (size_t i = 0; st.ok() && i < f.preload.size(); i += kPreloadBatch) {
      std::vector<FeedRecord> b(f.preload.begin() + static_cast<long>(i),
                                f.preload.begin() + static_cast<long>(
                                    std::min(i + kPreloadBatch, f.preload.size())));
      auto ack = (*c)->FeedAppend(kTable, b);
      st = ack.status();
      if (ack.ok()) preload_lsn = ack->lsn;
    }
    if (st.ok()) st = StopServer(*proc, **c);
    KillServer(*proc);
    if (!st.ok()) {
      r.Fail("preload: " + st.ToString());
      return r;
    }
  }

  // Set-up, repeated: spawn -> recovery -> listening -> sessions prepared.
  Samples setup_s;
  ServerProc proc;
  std::unique_ptr<Client> writer, reader;
  uint64_t read_handle = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    writer.reset();
    reader.reset();
    KillServer(proc);
    int64_t s0 = NowNanos();
    auto started = StartServer(opts, data_dir);
    if (!started.ok()) {
      r.Fail(started.status().ToString());
      return r;
    }
    proc = *started;
    auto w = Connect(proc, "writer");
    auto rd = Connect(proc, "reader");
    if (!w.ok() || !rd.ok()) {
      KillServer(proc);
      r.Fail("connect failed");
      return r;
    }
    writer = std::move(*w);
    reader = std::move(*rd);
    auto rh = reader->Prepare(kReadSql);
    if (!rh.ok()) {
      KillServer(proc);
      r.Fail("prepare failed");
      return r;
    }
    read_handle = rh->handle;
    setup_s.Add(static_cast<double>(NowNanos() - s0) / 1e9);
  }

  std::printf("workload   server_durable: strip_server pid %d, open loop at %g "
              "batches/s x %zu records, reads %.0f/s, seed %llu, %.0f s\n",
              static_cast<int>(proc.pid), kBatchRate, kBatch, kReadRate,
              static_cast<unsigned long long>(opts.seed), opts.seconds);

  auto drained = writer->Admin(strip::AdminOp::kDrain);
  r.Check(drained.ok() && drained->lsn == preload_lsn,
          "recovered WAL position differs from the preload's last LSN");
  const size_t num_batches = static_cast<size_t>(opts.seconds * kBatchRate);
  auto batches = MakeBatches(f, num_batches);
  auto candidates = ProbeCandidates(f, batches);
  std::unordered_map<std::string, double> expect;  // client-side recompute
  for (const FeedRecord& rec : f.preload) expect[rec.values[0].as_string()] = rec.values[1].as_double();

  TimedSamples ingest;
  Samples gen_late;
  // Window starts (µs since t0) and the server's CPU per record in each.
  std::vector<int64_t> windows;
  Samples cpu_windows;
  int64_t acked = 0, records_failed = 0, last_ack = 0, probes = 0;
  // Records still unsent when the offered phase ended: the writer is one
  // blocking client, so a server that falls behind delays later batches.
  int64_t backlog = 0;
  ProbeQueue q;
  ReaderResult rd;
  double cpu0 = ProcCpuSeconds(proc.pid);
  int64_t t0 = NowNanos();
  int64_t end = t0 + static_cast<int64_t>(opts.seconds * 1e9);
  std::thread rthread([&] {
    ReaderLoop(*reader, read_handle, f, opts.seed, t0, end, q, rd);
  });
  UseFineTimerSlack();
  uint64_t next_lsn = preload_lsn;
  int64_t prev_ack = t0;
  double window_cpu = cpu0;
  int64_t window_acked = 0;
  auto close_window = [&] {
    double cpu = ProcCpuSeconds(proc.pid);
    if (acked > window_acked) {
      cpu_windows.Add((cpu - window_cpu) * 1e6 / static_cast<double>(acked - window_acked));
    }
    window_cpu = cpu;
    window_acked = acked;
  };
  for (size_t b = 0; b < num_batches; ++b) {
    int64_t due = t0 + static_cast<int64_t>(static_cast<double>(b) * 1e9 / kBatchRate);
    if (b % kWindowBatches == 0) {
      if (b > 0) close_window();
      windows.push_back((due - t0) / 1000);
    }
    int64_t start = SleepUntilNanos(due) ? NowNanos() : due;
    // The writer's own lateness: a batch cannot leave before the previous
    // ack, so time spent waiting on the server is not counted here (it is
    // in the batch's ingest latency and in the backlog).
    gen_late.Add(static_cast<double>(
                     std::max<int64_t>(0, NowNanos() - std::max(due, prev_ack))) / 1e3);
    if (NowNanos() > end) backlog += static_cast<int64_t>(kBatch);
    auto ack = writer->FeedAppend(kTable, batches[b]);
    int64_t done = NowNanos();
    if (!ack.ok() || ack->accepted != kBatch) {
      records_failed += static_cast<int64_t>(kBatch);
      r.Fail("FeedAppend: " + ack.status().ToString());
      break;
    }
    next_lsn += kBatch;
    r.Check(ack->lsn == next_lsn,
            strip::StrFormat("acked LSN %llu, expected %llu",
                             static_cast<unsigned long long>(ack->lsn),
                             static_cast<unsigned long long>(next_lsn)));
    acked += static_cast<int64_t>(kBatch);
    last_ack = prev_ack = done;
    for (size_t k = 0; k < kBatch; ++k) {
      ingest.Add((due - t0) / 1000, static_cast<double>(done - start) / 1e3);
      expect[batches[b][k].values[0].as_string()] = batches[b][k].values[1].as_double();
    }
    if (b % kProbeEvery == 0 && candidates[b] >= 0) {
      const FeedRecord& rec = batches[b][static_cast<size_t>(candidates[b])];
      std::lock_guard<std::mutex> lk(q.mu);
      q.pending.push_back({rec.values[0].as_string(), rec.values[1].as_double(), start,
                           start + kDelayNanos});
      ++probes;
    }
  }
  close_window();
  q.writer_done.store(true);
  rthread.join();
  auto final_drain = writer->Admin(strip::AdminOp::kDrain);
  double cpu1 = ProcCpuSeconds(proc.pid);
  double rss = ProcPeakRssMb(proc.pid);
  r.Check(final_drain.ok(), "final drain failed");

  // Correctness gate: the WAL position equals the records acked, and the
  // final quotes / quote_stats equal the client-side recompute.
  r.Check(final_drain.ok() && final_drain->lsn == preload_lsn + static_cast<uint64_t>(acked),
          "last LSN differs from the number of records acked");
  auto qh = writer->Prepare("select symbol, price from quotes");
  auto sh = writer->Prepare("select symbol, total, n from quote_stats");
  auto quotes = qh.ok() ? writer->Exec(qh->handle) : qh.status();
  auto stats = sh.ok() ? writer->Exec(sh->handle) : sh.status();
  if (!quotes.ok() || !stats.ok()) {
    r.Fail("final read failed");
  } else {
    r.Check(quotes->rows.size() == expect.size() && stats->rows.size() == expect.size(),
            "final table sizes differ from the recompute");
    for (const auto& row : quotes->rows) {
      auto it = expect.find(row[0].as_string());
      r.Check(it != expect.end() && row[1].as_double() == it->second,
              "quotes row differs from the acked records: " + row[0].as_string());
    }
    for (const auto& row : stats->rows) {
      auto it = expect.find(row[0].as_string());
      r.Check(it != expect.end() && row[1].as_double() == it->second &&
                  row[2].as_double() == 1,
              "quote_stats row differs from the recompute: " + row[0].as_string());
    }
  }

  // Layer figures the server exposes: ping round trip and Admin metrics.
  Samples ping;
  if (with_layer_extras) {
    for (int i = 0; i < kPings; ++i) {
      int64_t s = NowNanos();
      if (reader->Ping("p").ok()) ping.Add(static_cast<double>(NowNanos() - s) / 1e3);
    }
  }
  auto metrics = writer->Admin(strip::AdminOp::kMetrics);
  Status stopped = StopServer(proc, *writer);
  r.Check(stopped.ok(), "server stop: " + stopped.ToString());

  r.E2e("setup_s", setup_s.Median(), "s");
  // Records acked over the span from the first due time to the last ack.
  r.E2e("records_per_s",
        static_cast<double>(acked) / (static_cast<double>(last_ack - t0) / 1e9), "1/s",
        acked);
  r.E2e("cpu_us_per_record", cpu_windows.Percentile(kQuietCost), "us", acked);
  // Reads and probes are too few per window for a p99, which is therefore
  // taken over the whole run.
  AddLatencyRows(r, "ingest", ingest, windows);
  AddLatencyRows(r, "view_lag", rd.lag_us, windows);
  AddLatencyRows(r, "read", rd.read_us, windows);
  int64_t attempted = static_cast<int64_t>(num_batches * kBatch) + rd.reads + probes;
  int64_t failed = records_failed + rd.reads_failed + rd.probes_failed;
  r.attempted += attempted;
  r.failed += failed;
  r.E2e("ok_frac", 1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
        "frac", attempted);
  r.E2e("peak_rss_mb", rss, "MB");
  r.Check(!ingest.empty() && !rd.lag_us.empty() && !rd.read_us.empty(),
          "a latency sample set is empty");
  double late = gen_late.Percentile(0.99);
  r.Valid(late < 5000, strip::StrFormat("generator ran late (p99 %.0f us)", late));
  r.Valid(backlog == 0, strip::StrFormat("%lld records unsent at the end of the offered phase",
                                         static_cast<long long>(backlog)));
  r.Extra("gen.late_p99_us", late, "us", static_cast<int64_t>(gen_late.size()));
  r.Extra("gen.backlog_end", static_cast<double>(backlog), "records");
  r.Extra("view_lag.probes", static_cast<double>(probes), "count");
  r.Extra("cpu_us_per_record.whole_phase",
          acked > 0 ? (cpu1 - cpu0) * 1e6 / static_cast<double>(acked) : 0, "us");
  if (metrics.ok()) {
    r.Extra("checkpoint.count", JsonNumber(metrics->body, "server.checkpoints"), "count");
    r.Extra("server.wal_bytes_at_end", JsonNumber(metrics->body, "server.wal_bytes"), "B");
  }
  if (!ping.empty()) {
    r.Extra("net.ping_rtt_us", ping.Median(), "us", static_cast<int64_t>(ping.size()));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Traced run: the FeedAppend path replayed in this process.
// ---------------------------------------------------------------------------

struct Replay {
  std::unique_ptr<Database> db;
  std::unique_ptr<FeedImporter> importer;
  std::unique_ptr<strip::DurableLog> log;
  strip::PreparedStatementPtr update, read;
  double populate_s = 0, rules_s = 0;
};

strip::Result<std::unique_ptr<Replay>> SetUpReplay(const Feed& f, const std::string& dir,
                                                   bool simulated) {
  auto r = std::make_unique<Replay>();
  Database::Options o;
  if (simulated) {
    o.mode = strip::ExecutorMode::kSimulated;
    o.advance_clock_by_cost = false;
  } else {
    o.mode = strip::ExecutorMode::kThreaded;
    o.num_workers = kServerWorkers;
  }
  r->db = std::make_unique<Database>(o);
  int64_t t0 = NowNanos();
  STRIP_RETURN_IF_ERROR(r->db->ExecuteScript(kDemoSchema));
  strip::RuleGenOptions gen;
  gen.delay_seconds = kDelaySeconds;
  STRIP_RETURN_IF_ERROR(
      strip::GenerateMaintenanceRule(*r->db, "quote_stats", kTable, gen).status());
  int64_t t1 = NowNanos();
  STRIP_ASSIGN_OR_RETURN(r->importer, FeedImporter::Create(r->db.get(), kTable));
  STRIP_ASSIGN_OR_RETURN(r->update,
                         r->db->Prepare("update quotes set price = ? where symbol = ?"));
  STRIP_ASSIGN_OR_RETURN(r->read, r->db->Prepare(kReadSql));
  if (!simulated) {
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    r->log = std::make_unique<strip::DurableLog>(strip::DurableLog::Options{dir});
    STRIP_RETURN_IF_ERROR(
        r->log->Recover(*r->db, [&](const std::string&) -> strip::Result<FeedImporter*> {
              return r->importer.get();
            }).status());
    for (const FeedRecord& rec : f.preload) {
      STRIP_RETURN_IF_ERROR(r->log->Append(kTable, rec).status());
    }
    STRIP_RETURN_IF_ERROR(r->log->Sync());
  }
  for (const FeedRecord& rec : f.preload) {
    STRIP_RETURN_IF_ERROR(r->importer->ApplyNow(rec));
  }
  if (!simulated) r->db->threaded()->Drain();
  int64_t t2 = NowNanos();
  r->rules_s = static_cast<double>(t1 - t0) / 1e9;
  r->populate_s = static_cast<double>(t2 - t1) / 1e9;
  return r;
}

/// The importer's upsert through public calls: Begin -> prepared UPDATE
/// (INSERT on a miss) -> Commit, retrying wait-die aborts.
Status Upsert(Replay& rp, const FeedRecord& rec, int64_t& dml_ns, int64_t& commit_ns,
              int64_t& restarts) {
  Database& db = *rp.db;
  Status last;
  uint64_t priority = 0;
  for (int attempt = 0; attempt <= db.options().action_retry_limit; ++attempt) {
    STRIP_ASSIGN_OR_RETURN(strip::Transaction * txn, db.Begin(priority));
    if (priority == 0) priority = txn->priority();
    int64_t a = NowNanos();
    auto n = rp.update->ExecuteDml(txn, {rec.values[1], rec.values[0]});
    int64_t b = NowNanos();
    dml_ns += b - a;
    Status s;
    if (n.ok() && *n == 1) {
      s = db.Commit(txn);
      commit_ns += NowNanos() - b;
      if (s.ok()) return s;
    } else {
      Status ignored = db.Abort(txn);
      (void)ignored;
      s = n.ok() ? Status::Internal("feed upsert touched no row") : n.status();
    }
    if (s.code() != StatusCode::kAborted) return s;
    last = s;
    ++restarts;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(1 << std::min(attempt, 5), 32)));
  }
  return last;
}

struct ReplayPhase {
  Samples ingest_us, lag_us, gen_late_us, read_exec_us;
  Samples queue_us, decode_us, validate_us, append_us, fsync_us, dml_us, commit_us,
      apply_us, encode_us, checkpoint_ms;
  Samples action_queue_us, action_exec_us, batch, rows_scanned, deltas_folded;
  std::vector<LedgerRow> ingest_rows, lag_rows;
  int64_t records = 0, failed = 0, restarts = 0, action_failed = 0, backlog = 0;
  double cpu_us_per_record = 0, wall_s = 0;
  double wal_bytes = 0, syncs = 0;
  Counters delta;
};

/// Replays `batches` at kBatchRate. With `timed`, every call is timed.
ReplayPhase RunReplay(Replay& rp, const std::vector<std::vector<FeedRecord>>& batches,
                      bool timed, const Feed& f, uint64_t seed) {
  ReplayPhase out;
  Database& db = *rp.db;
  std::mutex mu;
  // The server dispatches every request (feed batch, read, checkpoint)
  // under one mutex; the replay keeps that serialization.
  std::mutex dispatch;
  db.executor().set_task_observer([&](const TaskControlBlock& t) {
    if (t.function_name.empty()) return;
    std::lock_guard<std::mutex> lk(mu);
    if (!t.result.ok()) {
      ++out.action_failed;
      return;
    }
    double queue = static_cast<double>(t.start_time - t.release_time);
    double exec = static_cast<double>(t.cpu_nanos) / 1e3;
    if (t.commit_staleness_micros >= 0) {
      double lag = static_cast<double>(t.commit_staleness_micros) - kDelaySeconds * 1e6;
      out.lag_us.Add(lag);
      double fire = static_cast<double>(t.release_time - t.oldest_change_time) -
                    kDelaySeconds * 1e6;
      if (timed) out.lag_rows.push_back({lag, {fire, queue, exec}});
    }
    out.action_queue_us.Add(queue);
    out.action_exec_us.Add(exec);
    out.batch.Add(static_cast<double>(t.batched_firings));
    out.rows_scanned.Add(static_cast<double>(t.rows_scanned));
    out.deltas_folded.Add(static_cast<double>(t.deltas_folded));
  });
  const Counters before = Counters::Read(db);

  // Frames are built before the clock starts: client-side encoding is not
  // part of the server path.
  std::vector<std::string> frames;
  for (size_t b = 0; b < batches.size(); ++b) {
    strip::FeedAppendRequest req;
    req.table = kTable;
    req.records = batches[b];
    strip::Frame fr;
    fr.type = strip::FrameType::kFeedAppend;
    fr.seq = b + 1;
    fr.payload = strip::Encode(req);
    frames.push_back(strip::EncodeFrame(fr));
  }

  double cpu0 = SelfCpuSeconds();
  int64_t t0 = NowNanos();
  int64_t end = t0 + static_cast<int64_t>(static_cast<double>(batches.size()) * 1e9 / kBatchRate);
  std::thread reader([&] {
    UseFineTimerSlack();
    strip::Rng rng(seed ^ 0x5eedf00dULL);
    for (int64_t j = 0;; ++j) {
      int64_t due = t0 + static_cast<int64_t>(static_cast<double>(j) * 1e9 / kReadRate);
      if (due >= end) break;
      const std::string& s = f.symbols[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(f.symbols.size()) - 1))];
      SleepUntilNanos(due);
      std::lock_guard<std::mutex> serial(dispatch);
      int64_t a = NowNanos();
      auto rs = rp.read->Execute({Value::Str(s)});
      int64_t d = NowNanos() - a;
      if (rs.ok() && timed) {
        std::lock_guard<std::mutex> lk(mu);
        out.read_exec_us.Add(static_cast<double>(d) / 1e3);
      }
    }
  });
  UseFineTimerSlack();
  auto lap = [&](int64_t& mark) {
    if (!timed) return 0.0;
    int64_t now = NowNanos();
    double us = static_cast<double>(now - mark) / 1e3;
    mark = now;
    return us;
  };
  int64_t prev_done = t0;
  for (size_t b = 0; b < batches.size(); ++b) {
    int64_t due = t0 + static_cast<int64_t>(static_cast<double>(b) * 1e9 / kBatchRate);
    int64_t start = SleepUntilNanos(due) ? NowNanos() : due;
    // As for the server's writer: only delay past max(due, previous batch
    // done) is the generator's own lateness.
    out.gen_late_us.Add(static_cast<double>(
                            std::max<int64_t>(0, NowNanos() - std::max(due, prev_done))) / 1e3);
    if (NowNanos() > end) out.backlog += static_cast<int64_t>(batches[b].size());
    std::lock_guard<std::mutex> serial(dispatch);
    int64_t mark = NowNanos();
    double queue = static_cast<double>(mark - start) / 1e3;
    size_t off = 0;
    strip::Frame frame;
    std::string err;
    bool ok = strip::TryDecodeFrame(frames[b], &off, &frame, &err) ==
              strip::FrameDecode::kFrame;
    auto req = strip::DecodeFeedAppendRequest(frame.payload);
    ok = ok && req.ok();
    double decode = lap(mark);
    for (FeedRecord& rec : req->records) {
      ok = ok && rp.importer->Validate(rec).ok();
      rec.at = db.Now();
    }
    double validate = lap(mark);
    uint64_t lsn = 0;
    const uint64_t bytes_before = rp.log->wal_bytes();
    for (const FeedRecord& rec : req->records) {
      auto l = rp.log->Append(kTable, rec);
      ok = ok && l.ok();
      if (l.ok()) lsn = *l;
    }
    double append = lap(mark);
    out.wal_bytes += static_cast<double>(rp.log->wal_bytes() - bytes_before);
    ok = ok && rp.log->Sync().ok();
    double fsync = lap(mark);
    int64_t dml_ns = 0, commit_ns = 0;
    for (const FeedRecord& rec : req->records) {
      ok = ok && Upsert(rp, rec, dml_ns, commit_ns, out.restarts).ok();
    }
    double apply = lap(mark);
    strip::FeedAppendResponse resp;
    resp.lsn = lsn;
    resp.accepted = static_cast<uint32_t>(req->records.size());
    strip::Frame ack;
    ack.type = strip::FrameType::kAppended;
    ack.seq = frame.seq;
    ack.payload = strip::Encode(resp);
    std::string wire = strip::EncodeFrame(ack);
    double encode = lap(mark);
    int64_t done = NowNanos();
    double ingest = static_cast<double>(done - start) / 1e3;
    size_t n = req->records.size();
    out.records += static_cast<int64_t>(n);
    if (!ok) out.failed += static_cast<int64_t>(n);
    for (size_t k = 0; k < n; ++k) out.ingest_us.Add(ingest);
    if (timed) {
      double dn = static_cast<double>(n);
      out.queue_us.Add(queue);
      out.decode_us.Add(decode);
      out.validate_us.Add(validate / dn);
      out.append_us.Add(append / dn);
      out.fsync_us.Add(fsync);
      out.dml_us.Add(static_cast<double>(dml_ns) / 1e3 / dn);
      out.commit_us.Add(static_cast<double>(commit_ns) / 1e3 / dn);
      out.apply_us.Add(apply / dn);
      out.encode_us.Add(encode);
      out.ingest_rows.push_back(
          {ingest, {queue, decode, validate, append, fsync, apply, encode}});
    }
    // The server's housekeeping checkpoints once the WAL passes the
    // threshold; here it happens between batches, on the same thread.
    if (rp.log->wal_bytes() >= kCheckpointWalBytes) {
      int64_t c0 = NowNanos();
      db.threaded()->Drain();
      ok = rp.log->Checkpoint(db).ok();
      if (!ok) ++out.failed;
      out.checkpoint_ms.Add(static_cast<double>(NowNanos() - c0) / 1e6);
    }
    prev_done = NowNanos();
  }
  reader.join();
  db.threaded()->Drain();
  double cpu1 = SelfCpuSeconds();
  out.wall_s = static_cast<double>(NowNanos() - t0) / 1e9;
  db.executor().set_task_observer(nullptr);
  out.cpu_us_per_record = (cpu1 - cpu0) * 1e6 / static_cast<double>(std::max<int64_t>(out.records, 1));
  out.delta = Counters::Read(db).Minus(before);
  out.syncs = static_cast<double>(batches.size());
  return out;
}

/// Work counts (see WorkCounts) for the server path: the first batches
/// applied with ApplyNow on the simulated executor (virtual time set to each
/// batch's due time, not advanced by measured cost).
strip::Result<WorkCounts> SimulatedWorkCounts(
    const Feed& f, const std::vector<std::vector<FeedRecord>>& batches) {
  STRIP_ASSIGN_OR_RETURN(auto rp, SetUpReplay(f, "", /*simulated=*/true));
  Database& db = *rp->db;
  double rows = 0;
  db.executor().set_task_observer(
      [&](const TaskControlBlock& t) { rows += static_cast<double>(t.rows_scanned); });
  const Counters before = Counters::Read(db);
  double n = 0;
  for (size_t b = 0; b < batches.size() && b < static_cast<size_t>(kWorkCountBatches); ++b) {
    Timestamp due = static_cast<Timestamp>(static_cast<double>(b) * 1e6 / kBatchRate) +
                    db.Now();
    db.simulated()->RunUntil(due);
    for (FeedRecord rec : batches[b]) {
      rec.at = db.Now();
      STRIP_RETURN_IF_ERROR(rp->importer->ApplyNow(rec));
      ++n;
    }
  }
  db.simulated()->RunUntilQuiescent();
  db.executor().set_task_observer(nullptr);
  WorkCounts w;
  Counters d = Counters::Read(db).Minus(before);
  w.lock_acquires = d.lock_acquires / n;
  w.rows_scanned = rows / n;
  w.tasks = d.tasks_run / n;
  w.firings_merged = d.firings_merged / n;
  return w;
}

}  // namespace

Report RunServerWorkload(const RunOptions& opts) {
  int64_t g0 = NowNanos();
  Feed f = MakeFeed(opts.seed);
  double trace_gen_s = static_cast<double>(NowNanos() - g0) / 1e9;
  if (!opts.trace) return RunExternal(opts, f, /*with_layer_extras=*/false);

  Report r;
  const size_t num_batches = static_cast<size_t>(opts.seconds * kBatchRate);
  auto batches = MakeBatches(f, num_batches);
  std::printf("workload   server_durable (traced): FeedAppend path replayed in "
              "process at %g batches/s x %zu records, seed %llu, %.0f s untimed "
              "+ %.0f s timed\n",
              kBatchRate, kBatch, static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.seconds);
  Samples populate_s, rules_s;
  ReplayPhase plain, ph;
  for (int pass = 0; pass < 2; ++pass) {
    auto rp = SetUpReplay(f, opts.work_dir + "/replay", false);
    if (!rp.ok()) {
      r.Fail("replay set-up: " + rp.status().ToString());
      return r;
    }
    populate_s.Add((*rp)->populate_s);
    rules_s.Add((*rp)->rules_s);
    (pass == 0 ? plain : ph) = RunReplay(**rp, batches, pass == 1, f, opts.seed);
    // Correctness gate of the replay: every record applied, and the view
    // equals the last price of each symbol.
    std::unordered_map<std::string, double> expect;
    for (const FeedRecord& rec : f.preload) expect[rec.values[0].as_string()] = rec.values[1].as_double();
    for (const auto& b : batches) {
      for (const FeedRecord& rec : b) expect[rec.values[0].as_string()] = rec.values[1].as_double();
    }
    auto stats = (*rp)->db->Execute("select symbol, total, n from quote_stats");
    bool same = stats.ok() && stats->rows.size() == expect.size();
    for (size_t i = 0; same && i < stats->rows.size(); ++i) {
      const auto& row = stats->rows[i];
      auto it = expect.find(row[0].as_string());
      same = it != expect.end() && row[1].as_double() == it->second &&
             row[2].as_double() == 1;
    }
    r.Check(same, "replayed quote_stats differs from the recompute");
    const ReplayPhase& done = pass == 0 ? plain : ph;
    r.Check(done.failed == 0 && done.action_failed == 0,
            "replayed records or maintenance actions failed");
    r.attempted += done.records;
    r.failed += done.failed;
  }

  LayerFigures lf;
  lf.queue_wait_us = ph.queue_us.Mean();
  lf.validate_us = ph.validate_us.Mean();
  lf.dml_us = ph.dml_us.Mean();
  lf.commit_us = ph.commit_us.Mean();
  lf.apply_us = ph.apply_us.Mean();
  lf.batch_factor = ph.batch.Mean();
  lf.action_queue_wait_us = ph.action_queue_us.Mean();
  lf.action_exec_us = ph.action_exec_us.Mean();
  lf.rows_scanned_per_action = ph.rows_scanned.Mean();
  lf.read_exec_us = ph.read_exec_us.Mean();
  lf.delta = ph.delta;
  lf.records = static_cast<double>(ph.records);
  lf.feed_restarts = static_cast<double>(ph.restarts);
  lf.wall_s = ph.wall_s;
  lf.workers = kServerWorkers;
  lf.trace_gen_s = trace_gen_s;
  lf.populate_s = populate_s.Median();
  lf.rules_s = rules_s.Median();
  lf.gen_late_p99_us = ph.gen_late_us.Percentile(0.99);
  lf.backlog_end = static_cast<double>(ph.backlog);
  lf.ingest = BuildLedger(ph.ingest_rows);
  lf.lag = BuildLedger(ph.lag_rows);
  ReportLedgers(r, lf.ingest,
                {"feed.queue_wait_us", "net.decode_us", "feed.validate_us (batch)",
                 "wal.append_us (batch)", "wal.fsync_us", "feed.apply_us (batch)",
                 "net.encode_us"},
                lf.lag,
                {"feed.fire_us (oldest change -> rule fired)",
                 "rules.action_queue_wait_us", "rules.action_exec_us"});
  lf.untraced_cpu_us = plain.cpu_us_per_record;
  lf.traced_cpu_us = ph.cpu_us_per_record;
  auto work = SimulatedWorkCounts(f, batches);
  if (work.ok()) {
    lf.work = *work;
  } else {
    r.Fail("work counts: " + work.status().ToString());
  }
  AddLayerRows(r, lf);

  r.Extra("traced.ingest_p50_us", ph.ingest_us.Median(), "us",
          static_cast<int64_t>(ph.ingest_us.size()));
  r.Extra("traced.view_lag_p50_us", ph.lag_us.Median(), "us",
          static_cast<int64_t>(ph.lag_us.size()));
  r.Extra("traced.cpu_us_per_record", ph.cpu_us_per_record, "us");
  r.Extra("untimed.cpu_us_per_record", plain.cpu_us_per_record, "us");
  r.Extra("net.decode_us", ph.decode_us.Mean(), "us", static_cast<int64_t>(ph.decode_us.size()));
  r.Extra("net.encode_us", ph.encode_us.Mean(), "us");
  r.Extra("wal.append_us", ph.append_us.Mean(), "us");
  r.Extra("wal.fsync_us", ph.fsync_us.Mean(), "us");
  r.Extra("wal.fsync_p99_us", ph.fsync_us.Percentile(0.99), "us");
  r.Extra("wal.bytes_per_record", ph.wal_bytes / lf.records, "B");
  r.Extra("wal.syncs_per_record", ph.syncs / lf.records, "count");
  r.Extra("checkpoint.count", static_cast<double>(ph.checkpoint_ms.size()), "count");
  r.Extra("checkpoint.ms", ph.checkpoint_ms.empty() ? 0 : ph.checkpoint_ms.Mean(), "ms");
  r.Extra("viewmaint.deltas_folded_per_action", ph.deltas_folded.Mean(), "count");

  // The server process itself: ping round trip and its Admin metrics.
  Report ext = RunExternal(opts, f, /*with_layer_extras=*/true);
  for (const Metric& m : ext.extra) {
    if (m.name == "net.ping_rtt_us" || m.name == "checkpoint.count") {
      r.Extra("server." + m.name, m.value, m.unit, m.samples);
    }
  }
  for (const std::string& e : ext.errors) r.Fail("server run: " + e);
  for (const std::string& why : ext.invalid) r.Valid(false, "server run: " + why);
  return r;
}

}  // namespace perfbench
