// Tests for the observability layer (src/strip/obs/): histogram bucket
// semantics, concurrent instrument updates (the TSan CI job runs these),
// trace-ring wraparound and Chrome export, the JSON writer, leveled
// logging, and end-to-end staleness-probe correctness on the deterministic
// SimulatedExecutor.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "strip/common/logging.h"
#include "strip/engine/database.h"
#include "strip/obs/flight_recorder.h"
#include "strip/obs/json.h"
#include "strip/obs/metrics.h"
#include "strip/obs/trace_ring.h"
#include "strip/obs/watchdog.h"
#include "tests/test_util.h"

namespace strip {
namespace {

// --- JsonWriter ------------------------------------------------------------

TEST(JsonWriter, NestedStructuresAndEscaping) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String("a\"b\\c\n");
  w.Key("arr").BeginArray();
  w.Int(-1).Uint(2).Double(1.5).Bool(true).Null();
  w.EndArray();
  w.Key("o").BeginObject().Key("k").Int(7).EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\",\"arr\":[-1,2,1.5,true,null],"
            "\"o\":{\"k\":7}}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Double(std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

// --- Histogram -------------------------------------------------------------

TEST(Histogram, BucketBoundariesAreInclusiveUpperEdges) {
  Histogram h({10, 100});
  h.Observe(10);   // on the edge -> bucket 0
  h.Observe(11);   // just past   -> bucket 1
  h.Observe(100);  // on the edge -> bucket 1
  h.Observe(101);  // past the last bound -> overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);  // implicit +inf bucket
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 101);
  EXPECT_EQ(h.sum(), 10 + 11 + 100 + 101);
}

TEST(Histogram, BoundsAreSortedAndDeduped) {
  Histogram h({100, 10, 10, 50});
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_EQ(h.bounds()[0], 10);
  EXPECT_EQ(h.bounds()[1], 50);
  EXPECT_EQ(h.bounds()[2], 100);
}

TEST(Histogram, PercentileInterpolatesAndClamps) {
  Histogram h({10, 100, 1000});
  EXPECT_EQ(h.Percentile(0.5), 0);  // empty
  for (int i = 0; i < 100; ++i) h.Observe(50);
  // All mass in one bucket: every percentile is clamped to [min, max].
  EXPECT_EQ(h.Percentile(0.0), 50);
  EXPECT_EQ(h.Percentile(0.5), 50);
  EXPECT_EQ(h.Percentile(1.0), 50);
}

TEST(Histogram, PercentileSpreadAcrossBuckets) {
  Histogram h({10, 100});
  for (int i = 0; i < 90; ++i) h.Observe(5);    // bucket 0
  for (int i = 0; i < 10; ++i) h.Observe(90);   // bucket 1
  double p50 = h.Percentile(0.50);
  double p99 = h.Percentile(0.99);
  EXPECT_GE(p50, 5);
  EXPECT_LE(p50, 10);
  EXPECT_GT(p99, 10);
  EXPECT_LE(p99, 90);
}

TEST(Histogram, ConcurrentObservesLoseNothing) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  Histogram h(Histogram::DefaultLatencyBoundsMicros());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(i % 1000);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 999);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i <= h.bounds().size(); ++i) {
    bucket_total += h.bucket_count(i);
  }
  EXPECT_EQ(bucket_total, h.count());
}

// --- Counters / registry ---------------------------------------------------

TEST(MetricsRegistry, ConcurrentCounterIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    // Half the threads resolve the instrument concurrently with the
    // increments (registration must be thread-safe too).
    threads.emplace_back([&reg] {
      Counter* c = reg.counter("shared");
      for (int i = 0; i < kPerThread; ++i) c->Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("shared")->load(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(MetricsRegistry, InstrumentPointersAreStable) {
  MetricsRegistry reg;
  Counter* c = reg.counter("a");
  for (int i = 0; i < 100; ++i) reg.counter("c" + std::to_string(i));
  EXPECT_EQ(reg.counter("a"), c);
}

TEST(MetricsRegistry, CallbackGaugesEvaluateAtSnapshotTime) {
  MetricsRegistry reg;
  std::atomic<int> source{0};
  reg.RegisterCallback("pull", [&source] {
    return static_cast<double>(source.load());
  });
  source = 41;
  EXPECT_EQ(reg.GaugeValues().at("pull"), 41.0);
  source = 42;
  EXPECT_EQ(reg.GaugeValues().at("pull"), 42.0);
}

TEST(MetricsRegistry, SnapshotJsonIsWellFormed) {
  MetricsRegistry reg;
  reg.counter("c")->Add(3);
  reg.gauge("g")->Set(1.5);
  reg.histogram("h")->Observe(42);
  std::string json = reg.SnapshotJson();
  EXPECT_NE(json.find("\"counters\":{\"c\":3}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g\":1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h\":{\"count\":1"), std::string::npos) << json;
}

// --- TraceRing -------------------------------------------------------------

TEST(TraceRing, WraparoundKeepsTheMostRecentEvents) {
  TraceRing ring(4);
  for (uint64_t id = 1; id <= 7; ++id) {
    ring.Record(TraceEventKind::kSubmit, id, static_cast<Timestamp>(id));
  }
  EXPECT_EQ(ring.total_recorded(), 7u);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: ids 4, 5, 6, 7.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, i + 4);
  }
}

TEST(TraceRing, ZeroCapacityDisablesRecording) {
  TraceRing ring(0);
  EXPECT_FALSE(ring.enabled());
  ring.Record(TraceEventKind::kSubmit, 1, 0);
  EXPECT_EQ(ring.total_recorded(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_NE(ring.ToChromeJson().find("\"traceEvents\":[]"),
            std::string::npos);
}

TEST(TraceRing, SnapshotAtExactCapacityBoundaryExportsEachEventOnce) {
  // Regression guard for the wraparound boundary: with next_ == capacity
  // the ring is exactly full, and the snapshot must contain each of the
  // `capacity` events exactly once — not drop slot 0 or export it twice.
  TraceRing ring(4);
  for (uint64_t id = 1; id <= 4; ++id) {
    ring.Record(TraceEventKind::kSubmit, id, static_cast<Timestamp>(id));
  }
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, i + 1);
  }
  // One past the boundary: the oldest rotates out, order stays intact.
  ring.Record(TraceEventKind::kSubmit, 5, 5);
  events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, i + 2);
  }
}

TEST(TraceRing, WallTimestampsNeverInvertRingOrder) {
  // Concurrent recorders: the ring's slot order and the wall_ts values
  // must agree. Before wall_ts was stamped under the ring lock, a racing
  // pair could publish in the opposite order they read the clock, making
  // exported traces run backwards in time.
  TraceRing ring(128);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;  // wraps the ring many times
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ring.Record(TraceEventKind::kSubmit,
                    static_cast<uint64_t>(t * kPerThread + i), 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 128u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].wall_ts, events[i].wall_ts)
        << "ring order and wall-clock order disagree at slot " << i;
  }
}

TEST(TraceRing, NamesAreTruncatedNotOverflowed) {
  TraceRing ring(2);
  std::string long_name(100, 'x');
  ring.Record(TraceEventKind::kStart, 1, 0, long_name.c_str());
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name), std::string(22, 'x'));
}

TEST(TraceRing, ChromeJsonPairsStartFinishIntoSlices) {
  TraceRing ring(16);
  ring.Record(TraceEventKind::kSubmit, 7, 5, "work");
  ring.Record(TraceEventKind::kStart, 7, 10, "work");
  ring.Record(TraceEventKind::kFinish, 7, 50, "work");
  std::string json = ring.ToChromeJson();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":40"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"submit:work\""), std::string::npos)
      << json;
  // The paired start/finish must not also appear as instants.
  EXPECT_EQ(json.find("\"name\":\"start:work\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"name\":\"finish:work\""), std::string::npos)
      << json;
}

TEST(TraceRing, ConcurrentRecordsAllLand) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  TraceRing ring(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ring.Record(TraceEventKind::kReady,
                    static_cast<uint64_t>(t * kPerThread + i), i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ring.total_recorded(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(ring.Snapshot().size(), 64u);
}

TEST(TraceRing, DroppedEventsAreCountedWhenWritersOutrunTheRing) {
  TraceRing ring(4);
  for (uint64_t i = 0; i < 7; ++i) {
    ring.Record(TraceEventKind::kSubmit, i, static_cast<Timestamp>(i));
  }
  EXPECT_EQ(ring.total_recorded(), 7u);
  EXPECT_EQ(ring.total_dropped(), 3u);  // 7 writes into 4 slots
  EXPECT_EQ(ring.Snapshot().size(), 4u);

  // A database exports the same counter as the trace.dropped_events gauge.
  Database::Options opts;
  opts.mode = ExecutorMode::kSimulated;
  opts.advance_clock_by_cost = false;
  Database db(opts);
  auto gauges = db.metrics().GaugeValues();
  ASSERT_TRUE(gauges.count("trace.dropped_events"));
  EXPECT_EQ(gauges.at("trace.dropped_events"), 0.0);
}

TEST(MetricsRegistry, HistogramsPrefixReturnsOrderedMatchingRange) {
  MetricsRegistry reg;
  reg.histogram("rules.exec_us.b")->Observe(1);
  reg.histogram("rules.exec_us.a")->Observe(1);
  reg.histogram("rules.queue_wait_us.a")->Observe(1);
  reg.histogram("task.run_us")->Observe(1);

  auto all = reg.Histograms("");
  EXPECT_EQ(all.size(), 4u);
  auto exec = reg.Histograms("rules.exec_us.");
  ASSERT_EQ(exec.size(), 2u);
  EXPECT_EQ(exec[0].first, "rules.exec_us.a");  // name-ordered
  EXPECT_EQ(exec[1].first, "rules.exec_us.b");
  EXPECT_TRUE(reg.Histograms("no.such.prefix").empty());
}

// --- Watchdog --------------------------------------------------------------

TEST(Watchdog, FirstEvaluateOnlyBaselinesExistingHistory) {
  MetricsRegistry reg;
  Histogram* q = reg.histogram("task.queue_wait_us");
  // History predating the watchdog: wildly over any SLO.
  for (int i = 0; i < 100; ++i) q->Observe(500000);

  WatchdogSlo slo;
  slo.queue_wait_p99_us = 1000;
  Watchdog dog(&reg, slo);
  WatchdogVerdict v = dog.Evaluate(10);
  EXPECT_EQ(v.state, WatchdogState::kOk);
  EXPECT_EQ(v.consecutive_breaches, 0);

  // A histogram registered AFTER construction is baselined on first
  // sighting too — its backlog is not judged either.
  Histogram* late = reg.histogram("rules.staleness_us.late");
  for (int i = 0; i < 100; ++i) late->Observe(900000000);
  WatchdogSlo slo2;
  slo2.staleness_p99_us = 1000;
  Watchdog dog2(&reg, slo2);
  EXPECT_EQ(dog2.Evaluate(10).state, WatchdogState::kOk);  // baseline all
  Histogram* later = reg.histogram("rules.staleness_us.later");
  for (int i = 0; i < 100; ++i) later->Observe(900000000);
  EXPECT_EQ(dog2.Evaluate(20).state, WatchdogState::kOk);  // first sighting
  for (int i = 0; i < 100; ++i) later->Observe(900000000);
  EXPECT_NE(dog2.Evaluate(30).state, WatchdogState::kOk);  // now judged
}

TEST(Watchdog, TripsAfterConsecutiveBreachesAndRecoversOnCleanAir) {
  MetricsRegistry reg;
  Histogram* q = reg.histogram("task.queue_wait_us");
  WatchdogSlo slo;
  slo.queue_wait_p99_us = 1000;  // trip_intervals = clear_intervals = 2
  Watchdog dog(&reg, slo);
  int shed_calls = 0;
  dog.set_on_shed([&](const WatchdogVerdict& v) {
    ++shed_calls;
    EXPECT_EQ(v.state, WatchdogState::kShed);
    EXPECT_EQ(v.worst_signal, "queue_wait_p99_us");
  });

  dog.Evaluate(0);  // baseline
  auto breach = [&] {
    for (int i = 0; i < 50; ++i) q->Observe(50000);
  };
  breach();
  WatchdogVerdict v1 = dog.Evaluate(10);
  EXPECT_EQ(v1.state, WatchdogState::kWarn);  // breach 1 of 2: not yet shed
  EXPECT_EQ(v1.consecutive_breaches, 1);
  ASSERT_EQ(v1.signals.size(), 1u);
  EXPECT_TRUE(v1.signals[0].breached);
  EXPECT_EQ(v1.signals[0].samples, 50u);

  breach();
  WatchdogVerdict v2 = dog.Evaluate(20);
  EXPECT_EQ(v2.state, WatchdogState::kShed);
  EXPECT_EQ(shed_calls, 1);

  breach();
  EXPECT_EQ(dog.Evaluate(30).state, WatchdogState::kShed);
  EXPECT_EQ(shed_calls, 1);  // only fired on the transition INTO shed

  // Two empty (clean) intervals clear the verdict: a drained system
  // recovers without any new observations.
  WatchdogVerdict v4 = dog.Evaluate(40);
  EXPECT_EQ(v4.state, WatchdogState::kShed);  // clean 1 of 2
  EXPECT_EQ(v4.consecutive_clean, 1);
  WatchdogVerdict v5 = dog.Evaluate(50);
  EXPECT_EQ(v5.state, WatchdogState::kOk);
  EXPECT_EQ(shed_calls, 1);

  // The verdict round-trips its essentials through ToJson.
  EXPECT_NE(v2.ToJson().find("\"state\":\"shed\""), std::string::npos);
  EXPECT_NE(v2.ToJson().find("\"worst_signal\":\"queue_wait_p99_us\""),
            std::string::npos);
}

TEST(Watchdog, WarnsWhenApproachingTheThreshold) {
  MetricsRegistry reg;
  Histogram* q = reg.histogram("task.queue_wait_us");
  WatchdogSlo slo;
  slo.queue_wait_p99_us = 1000;  // warn_fraction 0.75 -> warn above 750
  Watchdog dog(&reg, slo);
  dog.Evaluate(0);
  // 850 lands in the (300, 1000] bucket: interval p99 interpolates to
  // ~993 us — under the SLO but inside the warn band.
  for (int i = 0; i < 100; ++i) q->Observe(850);
  WatchdogVerdict v = dog.Evaluate(10);
  EXPECT_EQ(v.state, WatchdogState::kWarn);
  ASSERT_EQ(v.signals.size(), 1u);
  EXPECT_FALSE(v.signals[0].breached);
  EXPECT_EQ(v.consecutive_breaches, 0);
  EXPECT_EQ(v.worst_signal, "queue_wait_p99_us");
}

TEST(Watchdog, LockAbortRateJudgesIntervalDeltas) {
  MetricsRegistry reg;
  Counter* acquires = reg.counter("locks.acquires");
  Counter* aborts = reg.counter("locks.wait_die_aborts");
  acquires->Add(1000);  // pre-watchdog history
  aborts->Add(900);     // (ancient 90% abort rate must not trip it)
  WatchdogSlo slo;
  slo.max_lock_abort_rate = 0.10;
  slo.trip_intervals = 1;
  Watchdog dog(&reg, slo);
  dog.Evaluate(0);  // baseline swallows the history

  acquires->Add(100);  // clean interval: 2% aborts
  aborts->Add(2);
  WatchdogVerdict v1 = dog.Evaluate(10);
  EXPECT_EQ(v1.state, WatchdogState::kOk);
  ASSERT_EQ(v1.signals.size(), 1u);
  EXPECT_NEAR(v1.signals[0].observed, 0.02, 1e-9);

  acquires->Add(100);  // overload interval: 50% aborts
  aborts->Add(50);
  WatchdogVerdict v2 = dog.Evaluate(20);
  EXPECT_EQ(v2.state, WatchdogState::kShed);  // trip_intervals = 1
  EXPECT_EQ(v2.worst_signal, "lock_abort_rate");

  // No acquires at all -> no evidence -> clean.
  WatchdogVerdict v3 = dog.Evaluate(30);
  EXPECT_FALSE(v3.signals[0].breached);
}

// --- Flight recorder -------------------------------------------------------

TEST(FlightRecorder, DumpBundlesReasonVerdictTraceAndMetrics) {
  TraceRing ring(8);
  ring.Record(TraceEventKind::kSubmit, 1, 5, "work", 42);
  ring.Record(TraceEventKind::kStart, 1, 10, "work", 42);
  ring.Record(TraceEventKind::kFinish, 1, 30, "work", 42);
  MetricsRegistry reg;
  reg.counter("txn.commits")->Add(3);

  const std::string path = "flight_record_test_tmp.json";
  ASSERT_OK(WriteFlightRecord(path, "invariant (d): shadow mismatch",
                              "{\"state\":\"shed\"}", ring, reg));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string dump = buf.str();
  std::remove(path.c_str());

  EXPECT_NE(dump.find("\"reason\":\"invariant (d): shadow mismatch\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"verdict\":{\"state\":\"shed\"}"),
            std::string::npos);
  EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(dump.find("\"counters\""), std::string::npos);
  EXPECT_NE(dump.find("\"txn.commits\":3"), std::string::npos);

  // Without a verdict the member is null, keeping the schema stable.
  ASSERT_OK(WriteFlightRecord(path, "manual", "", ring, reg));
  std::ifstream in2(path);
  std::stringstream buf2;
  buf2 << in2.rdbuf();
  EXPECT_NE(buf2.str().find("\"verdict\":null"), std::string::npos);
  std::remove(path.c_str());
}

// --- Leveled logging -------------------------------------------------------

TEST(Logging, SinkReceivesFormattedMessageAndLevelFilters) {
  struct Captured {
    LogLevel level;
    std::string msg;
  };
  std::vector<Captured> captured;
  SetLogSink([&captured](LogLevel level, const char*, int,
                         const std::string& msg) {
    captured.push_back({level, msg});
  });
  SetMinLogLevel(LogLevel::kInfo);
  STRIP_LOG(INFO, "count=%d name=%s", 7, "x");
  STRIP_LOG(WARN, "warned");
  SetMinLogLevel(LogLevel::kError);
  STRIP_LOG(INFO, "filtered out");
  STRIP_LOG(ERROR, "kept");
  SetLogSink(nullptr);
  SetMinLogLevel(LogLevel::kInfo);

  ASSERT_EQ(captured.size(), 3u);
  EXPECT_EQ(captured[0].level, LogLevel::kInfo);
  EXPECT_EQ(captured[0].msg, "count=7 name=x");
  EXPECT_EQ(captured[1].level, LogLevel::kWarn);
  EXPECT_EQ(captured[2].level, LogLevel::kError);
  EXPECT_EQ(captured[2].msg, "kept");
}

// --- End-to-end staleness probe -------------------------------------------

// Deterministic scenario on the virtual clock (advance_clock_by_cost off,
// so time moves only when the test says so): two price changes arrive at
// t=0 and t=1s; a unique rule with a 2-second delay window batches both
// firings into one recompute task released at t=2s. The staleness of that
// commit is exactly 2s — the age of the OLDEST batched change — and the
// batching factor is exactly 2.
TEST(StalenessProbe, MeasuresAgeOfOldestBatchedChange) {
  Database::Options opts;
  opts.mode = ExecutorMode::kSimulated;
  opts.advance_clock_by_cost = false;
  Database db(opts);
  ASSERT_TRUE(db.ExecuteScript("create table s (sym string, price double);"
                               "insert into s values ('a', 1.0);")
                  .ok());
  ASSERT_TRUE(db.RegisterFunction("recompute", [](FunctionContext&) {
                  return Status::OK();
                }).ok());
  ASSERT_TRUE(db.Execute("create rule r on s when updated price then "
                         "execute recompute unique after 2.0 seconds")
                  .ok());

  Timestamp observed_staleness = -1;
  uint32_t observed_batched = 0;
  db.executor().set_task_observer([&](const TaskControlBlock& t) {
    if (t.function_name != "recompute") return;
    observed_staleness = t.commit_staleness_micros;
    observed_batched = t.batched_firings;
  });

  // t=0: first change. Fires the rule; task queued for release at t=2s.
  ASSERT_TRUE(db.Execute("update s set price = 2.0 where sym = 'a'").ok());
  // t=1s: second change merges into the queued task.
  db.simulated()->RunUntil(SecondsToMicros(1.0));
  ASSERT_TRUE(db.Execute("update s set price = 3.0 where sym = 'a'").ok());
  EXPECT_EQ(db.rules().stats().firings_merged.load(), 1u);
  // Drive past the release: the action commits at t=2s.
  db.simulated()->RunUntilQuiescent();
  db.executor().set_task_observer(nullptr);

  EXPECT_EQ(observed_staleness, SecondsToMicros(2.0));
  EXPECT_EQ(observed_batched, 2u);

  // The registry's per-rule staleness histogram and batching-factor
  // histogram saw exactly this one commit.
  const Histogram* stale =
      db.metrics().FindHistogram("rules.staleness_us.recompute");
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->count(), 1u);
  EXPECT_EQ(stale->sum(), SecondsToMicros(2.0));
  const Histogram* batch = db.metrics().FindHistogram("rules.batch_factor");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->count(), 1u);
  EXPECT_EQ(batch->sum(), 2);

  // The same batching factor from the two counters: (1 created + 1
  // merged) / 1 created = 2.
  std::map<std::string, uint64_t> counters = db.metrics().CounterValues();
  EXPECT_EQ(counters.at("rules.tasks_created"), 1u);
  EXPECT_EQ(counters.at("rules.firings_merged"), 1u);
}

// Disabling metrics removes the probes (and the ring) without affecting
// rule execution.
TEST(StalenessProbe, DisabledMetricsStillStampTheTask) {
  Database::Options opts;
  opts.mode = ExecutorMode::kSimulated;
  opts.advance_clock_by_cost = false;
  opts.enable_metrics = false;
  Database db(opts);
  ASSERT_TRUE(db.ExecuteScript("create table s (sym string, price double);"
                               "insert into s values ('a', 1.0);")
                  .ok());
  ASSERT_TRUE(db.RegisterFunction("recompute", [](FunctionContext&) {
                  return Status::OK();
                }).ok());
  ASSERT_TRUE(db.Execute("create rule r on s when updated price then "
                         "execute recompute unique after 1.0 seconds")
                  .ok());
  Timestamp observed_staleness = -1;
  db.executor().set_task_observer([&](const TaskControlBlock& t) {
    if (t.function_name == "recompute") {
      observed_staleness = t.commit_staleness_micros;
    }
  });
  ASSERT_TRUE(db.Execute("update s set price = 2.0 where sym = 'a'").ok());
  db.simulated()->RunUntilQuiescent();
  db.executor().set_task_observer(nullptr);

  EXPECT_FALSE(db.trace_ring().enabled());
  EXPECT_EQ(db.trace_ring().total_recorded(), 0u);
  // The task stamp (used by the PTA runner) works without the registry.
  EXPECT_EQ(observed_staleness, SecondsToMicros(1.0));
  EXPECT_EQ(db.metrics().FindHistogram("rules.staleness_us.recompute"),
            nullptr);
}

// The engine's trace ring sees the full lifecycle of a delayed rule task.
TEST(TraceRingIntegration, LifecycleEventsAreRecorded) {
  Database::Options opts;
  opts.mode = ExecutorMode::kSimulated;
  opts.advance_clock_by_cost = false;
  Database db(opts);
  ASSERT_TRUE(db.ExecuteScript("create table s (sym string, price double);"
                               "insert into s values ('a', 1.0);")
                  .ok());
  ASSERT_TRUE(db.RegisterFunction("recompute", [](FunctionContext&) {
                  return Status::OK();
                }).ok());
  ASSERT_TRUE(db.Execute("create rule r on s when updated price then "
                         "execute recompute unique after 1.0 seconds")
                  .ok());
  ASSERT_TRUE(db.Execute("update s set price = 2.0 where sym = 'a'").ok());
  ASSERT_TRUE(db.Execute("update s set price = 3.0 where sym = 'a'").ok());
  db.simulated()->RunUntilQuiescent();

  bool saw[9] = {false};
  for (const TraceEvent& e : db.trace_ring().Snapshot()) {
    saw[static_cast<int>(e.kind)] = true;
  }
  EXPECT_TRUE(saw[static_cast<int>(TraceEventKind::kSubmit)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEventKind::kDelayed)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEventKind::kReady)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEventKind::kStart)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEventKind::kFinish)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEventKind::kCommit)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEventKind::kMerge)]);

  std::string json = db.trace_ring().ToChromeJson();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("recompute"), std::string::npos);
}

}  // namespace
}  // namespace strip
