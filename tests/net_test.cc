// Network front-end (net/): in-process Server + Client integration. The
// server here is the real thing — epoll thread, dispatch lock, durability,
// admission control — just bound to an ephemeral loopback port.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "strip/common/logging.h"
#include "strip/net/client.h"
#include "strip/net/protocol.h"
#include "strip/net/server.h"
#include "strip/viewmaint/rule_gen.h"
#include "tests/test_util.h"

namespace strip {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "strip_net_XXXXXX").string();
    const char* made = ::mkdtemp(tmpl.data());
    STRIP_CHECK_MSG(made != nullptr, "mkdtemp failed");
    dir_ = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

constexpr const char* kSchema = R"(
  create table quotes (symbol string, price double);
  create index on quotes (symbol);
)";

ServerOptions BaseOptions() {
  ServerOptions o;
  o.schema_sql = kSchema;
  o.feed_tables = {"quotes"};
  o.engine.num_workers = 2;
  return o;
}

FeedRecord Rec(const std::string& sym, double px) {
  FeedRecord r;
  r.values = {Value::Str(sym), Value::Double(px)};
  return r;
}

// Sorted table contents via the wire protocol — the recovery oracle.
std::vector<std::vector<Value>> DumpQuotes(Client& c) {
  auto stmt = c.Prepare("select symbol, price from quotes order by symbol");
  STRIP_CHECK_MSG(stmt.ok(), "prepare failed");
  auto rs = c.Exec(stmt->handle);
  STRIP_CHECK_MSG(rs.ok(), "exec failed");
  return rs->rows;
}

TEST(NetTest, HelloPrepareExecRoundTrip) {
  ASSERT_OK_AND_ASSIGN(auto server, Server::Start(BaseOptions()));
  ASSERT_OK_AND_ASSIGN(auto client,
                       Client::Connect("127.0.0.1", server->port()));
  EXPECT_GT(client->session_id(), 0u);

  // DML through a prepared handle with '?' params.
  ASSERT_OK_AND_ASSIGN(PrepareResponse ins,
                       client->Prepare("insert into quotes values (?, ?)"));
  EXPECT_EQ(ins.num_params, 2u);
  ASSERT_OK_AND_ASSIGN(
      ExecResponse dml,
      client->Exec(ins.handle, {Value::Str("ibm"), Value::Double(50.5)}));
  EXPECT_EQ(dml.affected, 1);

  ASSERT_OK_AND_ASSIGN(
      PrepareResponse sel,
      client->Prepare("select symbol, price from quotes where symbol = ?"));
  EXPECT_EQ(sel.num_params, 1u);
  ASSERT_OK_AND_ASSIGN(ExecResponse rows,
                       client->Exec(sel.handle, {Value::Str("ibm")}));
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0], Value::Str("ibm"));
  EXPECT_EQ(rows.rows[0][1], Value::Double(50.5));
  EXPECT_EQ(rows.columns.size(), 2u);

  EXPECT_OK(client->Ping("token"));

  // Executing a foreign handle is an error, not a crash.
  auto bad = client->Exec(9999, {});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);

  // The connection survives the error frame: still serviceable.
  EXPECT_OK(client->Ping());
  server->Stop();
}

TEST(NetTest, FeedAppendAppliesInArrivalOrder) {
  ASSERT_OK_AND_ASSIGN(auto server, Server::Start(BaseOptions()));
  ASSERT_OK_AND_ASSIGN(auto client,
                       Client::Connect("127.0.0.1", server->port()));

  // Three upserts of the same key in one batch: the last one must win,
  // deterministically, because the server applies in arrival order.
  ASSERT_OK_AND_ASSIGN(
      FeedAppendResponse ack,
      client->FeedAppend(
          "quotes", {Rec("ibm", 1.0), Rec("ibm", 2.0), Rec("ibm", 3.0)}));
  EXPECT_EQ(ack.accepted, 3u);

  auto rows = DumpQuotes(*client);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::Double(3.0));

  // Unknown feed table is a clean error.
  auto bad = client->FeedAppend("nope", {Rec("x", 1.0)});
  EXPECT_FALSE(bad.ok());
  server->Stop();
}

TEST(NetTest, KillAndRecoverRebuildsIdenticalState) {
  TempDir live_dir;
  TempDir crash_dir;
  ServerOptions opts = BaseOptions();
  opts.data_dir = live_dir.path();

  std::vector<std::vector<Value>> before;
  uint64_t last_lsn = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto server, Server::Start(opts));
    ASSERT_OK_AND_ASSIGN(auto client,
                         Client::Connect("127.0.0.1", server->port()));
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK_AND_ASSIGN(
          FeedAppendResponse ack,
          client->FeedAppend("quotes",
                             {Rec("s" + std::to_string(i % 5), i * 1.5)}));
      last_lsn = ack.lsn;
    }
    EXPECT_EQ(last_lsn, 20u);
    before = DumpQuotes(*client);
    ASSERT_EQ(before.size(), 5u);
    // Snapshot the data dir while the server is still alive: Stop() (and
    // the destructor) checkpoint gracefully, so the copy — every acked
    // batch synced, no snapshot, WAL only — is the kill -9 disk image.
    // (The true cross-process kill -9 test is tools/server_smoke.sh.)
    fs::copy(live_dir.path(), crash_dir.path(),
             fs::copy_options::recursive |
                 fs::copy_options::overwrite_existing);
    server->Stop();
  }

  ServerOptions crash_opts = BaseOptions();
  crash_opts.data_dir = crash_dir.path();
  ASSERT_OK_AND_ASSIGN(auto reborn, Server::Start(crash_opts));
  EXPECT_FALSE(reborn->recovery_stats().snapshot_loaded);
  EXPECT_EQ(reborn->recovery_stats().entries_replayed, last_lsn);
  EXPECT_EQ(reborn->recovery_stats().next_lsn, last_lsn + 1);
  ASSERT_OK_AND_ASSIGN(auto client,
                       Client::Connect("127.0.0.1", reborn->port()));
  EXPECT_EQ(DumpQuotes(*client), before);

  // Checkpoint, append past it, recover again: snapshot + tail.
  ASSERT_OK_AND_ASSIGN(AdminResponse cp, client->Admin(AdminOp::kCheckpoint));
  EXPECT_EQ(cp.lsn, last_lsn);
  ASSERT_OK(client->FeedAppend("quotes", {Rec("tail", 9.0)}).status());
  before = DumpQuotes(*client);
  reborn->Stop();

  ASSERT_OK_AND_ASSIGN(auto third, Server::Start(crash_opts));
  EXPECT_TRUE(third->recovery_stats().snapshot_loaded);
  ASSERT_OK_AND_ASSIGN(auto c3, Client::Connect("127.0.0.1", third->port()));
  EXPECT_EQ(DumpQuotes(*c3), before);
  third->Stop();
}

// REVIEW fix (high): a malformed record anywhere in a feed batch must be
// refused BEFORE the first WAL append. Were it logged first, every future
// recovery would replay the same validation failure and the server could
// never boot again — a remotely triggerable, persistent recovery failure.
TEST(NetTest, MalformedFeedBatchIsRefusedBeforeTheWal) {
  TempDir live_dir;
  TempDir crash_dir;
  ServerOptions opts = BaseOptions();
  opts.data_dir = live_dir.path();
  ASSERT_OK_AND_ASSIGN(auto server, Server::Start(opts));
  ASSERT_OK_AND_ASSIGN(auto client,
                       Client::Connect("127.0.0.1", server->port()));

  ASSERT_OK(client->FeedAppend("quotes", {Rec("ibm", 1.0)}).status());
  uint64_t wal_bytes = server->durable()->wal_bytes();
  uint64_t next_lsn = server->durable()->next_lsn();

  // Wrong arity mid-batch: the whole batch is rejected, all-or-nothing.
  FeedRecord bad_arity;
  bad_arity.values = {Value::Str("x")};
  auto r1 = client->FeedAppend(
      "quotes", {Rec("good1", 2.0), bad_arity, Rec("good2", 3.0)});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  // Wrong type (string where the schema says double): same refusal.
  FeedRecord bad_type;
  bad_type.values = {Value::Str("y"), Value::Str("not a price")};
  auto r2 = client->FeedAppend("quotes", {bad_type});
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  // Nothing reached the WAL or the table — not even the valid records of
  // the poisoned batch.
  EXPECT_EQ(server->durable()->wal_bytes(), wal_bytes);
  EXPECT_EQ(server->durable()->next_lsn(), next_lsn);
  EXPECT_EQ(DumpQuotes(*client).size(), 1u);

  // The connection survives and valid traffic still flows...
  ASSERT_OK(client->FeedAppend("quotes", {Rec("hp", 4.0)}).status());
  auto before = DumpQuotes(*client);

  // ...and — the actual point — a server restarted from this WAL boots
  // and replays cleanly. Copy the dir pre-Stop for the kill -9 image.
  fs::copy(live_dir.path(), crash_dir.path(),
           fs::copy_options::recursive | fs::copy_options::overwrite_existing);
  server->Stop();

  ServerOptions crash_opts = BaseOptions();
  crash_opts.data_dir = crash_dir.path();
  ASSERT_OK_AND_ASSIGN(auto reborn, Server::Start(crash_opts));
  EXPECT_EQ(reborn->recovery_stats().entries_skipped, 0u);
  ASSERT_OK_AND_ASSIGN(auto c2, Client::Connect("127.0.0.1", reborn->port()));
  EXPECT_EQ(DumpQuotes(*c2), before);
  reborn->Stop();
}

// REVIEW fix (medium): a client that pipelines requests with large replies
// and never reads must hit backpressure — the server stops decoding its
// requests while unflushed output is over the high water mark, instead of
// growing outbuf without bound. Every reply must still arrive, in order,
// once the client does read.
TEST(NetTest, BackpressurePausesAPipeliningSlowReader) {
  ASSERT_OK_AND_ASSIGN(auto server, Server::Start(BaseOptions()));
  ASSERT_OK_AND_ASSIGN(auto loader,
                       Client::Connect("127.0.0.1", server->port()));

  // ~800 KB of rows: 800 symbols carrying a 1 KB payload each.
  std::vector<FeedRecord> rows;
  for (int i = 0; i < 800; ++i) {
    rows.push_back(
        Rec(std::string(1000, 'x') + std::to_string(i), i * 1.0));
  }
  ASSERT_OK(loader->FeedAppend("quotes", rows).status());

  // Raw socket so we can pipeline without reading (Client is strict
  // request/response).
  ASSERT_OK_AND_ASSIGN(Socket sock,
                       Socket::Connect("127.0.0.1", server->port()));
  auto read_frame = [&]() -> Result<Frame> {
    char header[kFrameHeaderSize];
    STRIP_RETURN_IF_ERROR(sock.ReadFully(header, sizeof(header)));
    uint32_t len = 0;
    std::memcpy(&len, header + 12, sizeof(len));
    std::string whole(header, sizeof(header));
    whole.resize(kFrameHeaderSize + len);
    STRIP_RETURN_IF_ERROR(
        sock.ReadFully(whole.data() + kFrameHeaderSize, len));
    size_t pos = 0;
    Frame f;
    std::string err;
    if (TryDecodeFrame(whole, &pos, &f, &err) != FrameDecode::kFrame) {
      return Status::Internal("bad frame in test: " + err);
    }
    return f;
  };

  Frame hello;
  hello.type = FrameType::kHello;
  hello.seq = 1;
  hello.payload = Encode(HelloRequest{});
  ASSERT_OK(sock.WriteAll(EncodeFrame(hello)));
  ASSERT_OK_AND_ASSIGN(Frame hello_ok, read_frame());
  ASSERT_EQ(hello_ok.type, FrameType::kHelloOk);

  Frame prep;
  prep.type = FrameType::kPrepare;
  prep.seq = 2;
  prep.payload = Encode(PrepareRequest{"select symbol, price from quotes"});
  ASSERT_OK(sock.WriteAll(EncodeFrame(prep)));
  ASSERT_OK_AND_ASSIGN(Frame prepped, read_frame());
  ASSERT_EQ(prepped.type, FrameType::kPrepared);
  ASSERT_OK_AND_ASSIGN(PrepareResponse handle,
                       DecodePrepareResponse(prepped.payload));

  // Pipeline 60 Execs (~48 MB of replies, far past the 4 MiB high water
  // plus any kernel socket buffering) in one write, reading nothing.
  constexpr int kPipelined = 60;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    Frame exec;
    exec.type = FrameType::kExec;
    exec.seq = 3 + static_cast<uint64_t>(i);
    exec.payload = Encode(ExecRequest{handle.handle, {}});
    ASSERT_OK(AppendFrame(exec, &burst));
  }
  ASSERT_OK(sock.WriteAll(burst));

  // The server must pause this connection rather than buffer ~48 MB.
  Counter* pauses = server->db().metrics().counter(
      "server.backpressure_pauses");
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (pauses->load() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "backpressure never engaged";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Now read everything: every reply arrives, in seq order, complete.
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_OK_AND_ASSIGN(Frame reply, read_frame());
    ASSERT_EQ(reply.type, FrameType::kRows) << "reply " << i;
    EXPECT_EQ(reply.seq, 3 + static_cast<uint64_t>(i));
    ASSERT_OK_AND_ASSIGN(ExecResponse rs, DecodeExecResponse(reply.payload));
    EXPECT_EQ(rs.rows.size(), 800u) << "reply " << i;
  }
  EXPECT_GE(pauses->load(), 1u);
  server->Stop();
}

TEST(NetTest, CorruptFrameDropsTheConnection) {
  ASSERT_OK_AND_ASSIGN(auto server, Server::Start(BaseOptions()));
  ASSERT_OK_AND_ASSIGN(Socket sock,
                       Socket::Connect("127.0.0.1", server->port()));
  ASSERT_OK(sock.WriteAll("this is not a frame"));
  // The server must close on us — ReadFully's clean-close error, not data.
  char buf[16];
  EXPECT_FALSE(sock.ReadFully(buf, sizeof(buf)).ok());
  server->Stop();
}

TEST(NetTest, RequestsBeforeHelloAreRejected) {
  ASSERT_OK_AND_ASSIGN(auto server, Server::Start(BaseOptions()));
  ASSERT_OK_AND_ASSIGN(Socket sock,
                       Socket::Connect("127.0.0.1", server->port()));
  Frame f;
  f.type = FrameType::kPrepare;
  f.seq = 1;
  f.payload = Encode(PrepareRequest{"select 1"});
  ASSERT_OK(sock.WriteAll(EncodeFrame(f)));

  // Expect an error frame back; the header is 20 bytes + payload.
  char header[kFrameHeaderSize];
  ASSERT_OK(sock.ReadFully(header, sizeof(header)));
  uint32_t len = 0;
  std::memcpy(&len, header + 12, sizeof(len));
  std::string payload(len, '\0');
  ASSERT_OK(sock.ReadFully(payload.data(), len));
  EXPECT_EQ(static_cast<FrameType>(header[2]), FrameType::kError);
  ASSERT_OK_AND_ASSIGN(ErrorResponse err, DecodeErrorResponse(payload));
  EXPECT_EQ(err.code, StatusCode::kFailedPrecondition);
  server->Stop();
}

TEST(NetTest, AdminMetricsAndHealthReturnJson) {
  ASSERT_OK_AND_ASSIGN(auto server, Server::Start(BaseOptions()));
  ASSERT_OK_AND_ASSIGN(auto client,
                       Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(AdminResponse metrics, client->Admin(AdminOp::kMetrics));
  EXPECT_NE(metrics.body.find("server.requests"), std::string::npos);
  ASSERT_OK_AND_ASSIGN(AdminResponse health, client->Admin(AdminOp::kHealth));
  EXPECT_NE(health.body.find("\"state\""), std::string::npos);
  ASSERT_OK_AND_ASSIGN(AdminResponse drain, client->Admin(AdminOp::kDrain));
  (void)drain;
  server->Stop();
}

TEST(NetTest, ShutdownOpStopsTheServer) {
  ASSERT_OK_AND_ASSIGN(auto server, Server::Start(BaseOptions()));
  ASSERT_OK_AND_ASSIGN(auto client,
                       Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK(client->Admin(AdminOp::kShutdown).status());
  server->Wait();
  EXPECT_TRUE(server->stopped());
}

// Admission control end to end: a view-maintenance rule with a delay
// window gives the watchdog staleness signal, an absurdly tight SLO trips
// it, and low-priority work gets shed while normal priority keeps flowing.
TEST(NetTest, ShedRefusesLowPriorityWorkUnderOverload) {
  ServerOptions opts = BaseOptions();
  opts.schema_sql = R"(
    create table quotes (symbol string, price double);
    create index on quotes (symbol);
    create materialized view quote_stats as
      select symbol, sum(price) as total, count(*) as n
      from quotes group by symbol;
  )";
  opts.bootstrap = [](Database& db) -> Status {
    RuleGenOptions gen;
    gen.delay_seconds = 0.01;
    return GenerateMaintenanceRule(db, "quote_stats", "quotes", gen).status();
  };
  opts.slo.staleness_p99_us = 1;  // any rule commit at all breaches
  opts.slo.trip_intervals = 1;
  opts.watchdog_period_seconds = 0.05;
  ASSERT_OK_AND_ASSIGN(auto server, Server::Start(opts));

  ASSERT_OK_AND_ASSIGN(
      auto normal, Client::Connect("127.0.0.1", server->port(),
                                   SessionPriority::kNormal));
  ASSERT_OK_AND_ASSIGN(
      auto low, Client::Connect("127.0.0.1", server->port(),
                                SessionPriority::kLow));

  // Pump feed traffic until the watchdog trips (bounded; SLO of 1us means
  // a single maintained batch is enough once an interval ticks).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int iter = 0;
  while (server->admission_state() != WatchdogState::kShed) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "watchdog never tripped";
    // Prices must actually CHANGE: an upsert to the same value produces an
    // empty update delta and the maintenance rule never fires (no
    // staleness signal for the watchdog to judge).
    ++iter;
    ASSERT_OK(normal
                  ->FeedAppend("quotes", {Rec("ibm", 1.0 + iter * 0.25),
                                          Rec("hp", 2.0 + iter * 0.125)})
                  .status());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Established low-priority session: further work is deferred with the
  // retryable code, and the metrics count the shed.
  auto shed = low->FeedAppend("quotes", {Rec("ibm", 5.0)});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kAborted);

  // New low-priority session: refused outright at Hello.
  auto refused = Client::Connect("127.0.0.1", server->port(),
                                 SessionPriority::kLow);
  EXPECT_FALSE(refused.ok());

  // Normal priority keeps flowing through the same overload.
  EXPECT_OK(normal->FeedAppend("quotes", {Rec("sun", 3.0)}).status());
  EXPECT_OK(normal->Ping());
  server->Stop();
}

// Protocol payload decoders are strict: truncation at every byte of a
// real request payload fails cleanly, and trailing garbage is rejected.
TEST(NetProtocolTest, DecodersRejectTruncationAndTrailingBytes) {
  ExecRequest req;
  req.handle = 77;
  req.params = {Value::Str("ibm"), Value::Double(1.5), Value::Int(-2),
                Value::Null()};
  std::string good = Encode(req);

  ASSERT_OK_AND_ASSIGN(ExecRequest back, DecodeExecRequest(good));
  EXPECT_EQ(back.handle, 77u);
  ASSERT_EQ(back.params.size(), 4u);
  EXPECT_EQ(back.params[1], Value::Double(1.5));

  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeExecRequest(good.substr(0, cut)).ok())
        << "prefix of " << cut << " bytes decoded";
  }
  EXPECT_FALSE(DecodeExecRequest(good + "x").ok()) << "trailing byte kept";

  FeedAppendRequest feed;
  feed.table = "quotes";
  feed.records = {Rec("ibm", 1.0), Rec("hp", 2.0)};
  std::string fgood = Encode(feed);
  ASSERT_OK_AND_ASSIGN(FeedAppendRequest fback, DecodeFeedAppendRequest(fgood));
  EXPECT_EQ(fback.records.size(), 2u);
  for (size_t cut = 0; cut < fgood.size(); ++cut) {
    EXPECT_FALSE(DecodeFeedAppendRequest(fgood.substr(0, cut)).ok())
        << "prefix of " << cut << " bytes decoded";
  }

  // Unknown enumerators are rejected, not truncated into range.
  std::string hello = Encode(HelloRequest{});
  hello[1] = 0x7f;  // priority byte
  EXPECT_FALSE(DecodeHelloRequest(hello).ok());

  std::string admin = Encode(AdminRequest{});
  admin[0] = 0x7f;  // op byte
  EXPECT_FALSE(DecodeAdminRequest(admin).ok());
}

TEST(NetProtocolTest, ErrorResponseRoundTripsStatus) {
  Status original = Status::Aborted("shed: retry later");
  ErrorResponse e;
  e.code = original.code();
  e.message = original.message();
  ASSERT_OK_AND_ASSIGN(ErrorResponse back, DecodeErrorResponse(Encode(e)));
  Status round = ToStatus(back);
  EXPECT_EQ(round.code(), StatusCode::kAborted);
  EXPECT_EQ(round.message(), "shed: retry later");
}

}  // namespace
}  // namespace strip
