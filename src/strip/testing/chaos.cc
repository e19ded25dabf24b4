#include "strip/testing/chaos.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <map>

#include "strip/cluster/cluster.h"
#include "strip/common/string_util.h"
#include "strip/engine/database.h"
#include "strip/obs/flight_recorder.h"
#include "strip/viewmaint/rule_gen.h"

namespace strip {
namespace {

/// Sequential splitmix64 stream for feed generation. Generation happens
/// once, up front, single-threaded, so a sequential stream is fine here;
/// the *injector* uses order-independent pure hashes instead because its
/// draw sites interleave unpredictably.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Unit() { return (Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

 private:
  uint64_t state_;
};

/// One price-update message of the synthetic feed.
struct FeedEvent {
  int sym;              // index into the symbol universe
  double price;         // new absolute price (integral, exact in double)
  Timestamp at;         // virtual-time release of the update task
  uint64_t priority;    // wait-die age: generation order, kept on retry
  bool duplicate;       // re-delivery of an earlier message
  bool churn = false;   // also delete + re-insert the row (state-preserving)
};

std::string SymName(int i) { return StrFormat("S%d", i); }

/// Generates the perturbed feed: base events in generation order, then
/// seeded bursts (gap collapsed to zero), adjacent release-time swaps
/// (late delivery), and duplicates (re-delivery with the same payload).
std::vector<FeedEvent> MakeFeed(const ChaosOptions& o) {
  SplitMix rng(o.seed ^ 0xfeedfeedfeedfeedull);
  std::vector<FeedEvent> events;
  events.reserve(o.num_events);
  Timestamp t = 10'000;
  for (int i = 0; i < o.num_events; ++i) {
    FeedEvent e;
    e.sym = static_cast<int>(rng.Below(static_cast<uint64_t>(o.num_syms)));
    e.price = 1.0 + static_cast<double>(rng.Below(1000));
    Timestamp gap =
        1 + static_cast<Timestamp>(rng.Below(2 * o.mean_gap_micros));
    if (rng.Unit() < o.burst_rate) gap = 0;
    t += gap;
    e.at = t;
    e.priority = static_cast<uint64_t>(i) + 1;
    e.duplicate = false;
    events.push_back(e);
  }
  // Reorder: swap release times of adjacent events, so the message
  // generated (and aged) first is delivered second.
  for (size_t i = 1; i < events.size(); ++i) {
    if (rng.Unit() < o.reorder_rate) {
      std::swap(events[i - 1].at, events[i].at);
    }
  }
  // Duplicates: re-deliver a message shortly after the original. Same
  // payload; its update is value-identical so rules must not re-fire.
  size_t originals = events.size();
  for (size_t i = 0; i < originals; ++i) {
    if (rng.Unit() < o.duplicate_rate) {
      FeedEvent dup = events[i];
      dup.at += 1 + static_cast<Timestamp>(rng.Below(500));
      dup.priority = static_cast<uint64_t>(originals + i) + 1;
      dup.duplicate = true;
      events.push_back(dup);
    }
  }
  // Churn: after applying the update, the event also deletes and
  // re-inserts its base row — tombstoning the slot and reclaiming it (or
  // resurrecting it on txn undo). The short-circuit keeps the RNG stream
  // of pre-churn seeds byte-identical when the rate is zero.
  for (FeedEvent& e : events) {
    e.churn = o.churn_rate > 0 && rng.Unit() < o.churn_rate;
  }
  return events;
}

/// The churn half of a churn event: delete the row and re-insert it with
/// its current values, in one transaction. State-preserving (the shadow
/// recompute can't tell), but the row's slot is tombstoned and reallocated
/// — and when the injector kills the transaction mid-flight, the undo path
/// resurrects the deleted row. The row id changes; nothing outside the
/// transaction holds one.
Status ApplyChurn(Database& db, const FeedEvent& e, uint64_t* churned) {
  const std::string sym = SymName(e.sym);
  constexpr int kRetryLimit = 16;
  Status last;
  for (int attempt = 0; attempt <= kRetryLimit; ++attempt) {
    Result<Transaction*> txn = db.Begin(e.priority);
    if (!txn.ok()) return txn.status();
    auto run = [&]() -> Status {
      Result<ResultSet> row = db.ExecuteInTxn(
          *txn, StrFormat("select price, ver from base where sym = '%s'",
                          sym.c_str()));
      STRIP_RETURN_IF_ERROR(row.status());
      if (row->num_rows() != 1) {
        return Status::Internal(StrFormat(
            "churn: %zu base rows for '%s'", row->num_rows(), sym.c_str()));
      }
      double price = row->rows[0][0].as_double();
      long long ver = static_cast<long long>(row->rows[0][1].as_int());
      STRIP_RETURN_IF_ERROR(
          db.ExecuteInTxn(*txn, StrFormat("delete from base where sym = '%s'",
                                          sym.c_str()))
              .status());
      return db
          .ExecuteInTxn(*txn,
                        StrFormat("insert into base values ('%s', %.1f, %lld)",
                                  sym.c_str(), price, ver))
          .status();
    };
    Status st = run();
    if (st.ok()) {
      last = db.Commit(*txn);
      if (last.ok()) {
        ++*churned;
        return Status::OK();
      }
    } else {
      last = st;
      (void)db.Abort(*txn);
    }
    if (last.code() != StatusCode::kAborted) return last;
  }
  return last;
}

/// Applies one feed event inside its own transaction, retrying injected
/// (and organic) wait-die deaths with the ORIGINAL priority — the same
/// restart discipline the engine uses for rule actions.
Status ApplyEvent(Database& db, const FeedEvent& e, uint64_t* applied) {
  const std::string sql =
      StrFormat("update base set price = %.1f, ver += 1 where sym = '%s'",
                e.price, SymName(e.sym).c_str());
  constexpr int kRetryLimit = 16;
  Status last;
  for (int attempt = 0; attempt <= kRetryLimit; ++attempt) {
    Result<Transaction*> txn = db.Begin(e.priority);
    if (!txn.ok()) return txn.status();
    Result<ResultSet> r = db.ExecuteInTxn(*txn, sql);
    if (r.ok()) {
      last = db.Commit(*txn);
      if (last.ok()) {
        ++*applied;
        return Status::OK();
      }
    } else {
      last = r.status();
      (void)db.Abort(*txn);
    }
    if (last.code() != StatusCode::kAborted) return last;
  }
  return last;
}

/// Invariant (d): the maintained derived data must equal a brute-force
/// shadow recompute. Two closed-form checks that survive batching, merging,
/// duplicates, and retries:
///   - every derived.double_price equals 2 * base.price, and
///   - audit_total.n equals sum(derived.firings): the coarse-unique audit
///     rule folds exactly one transition row per committed recompute.
Status ShadowRecompute(Database& db) {
  Result<ResultSet> base = db.Execute("select sym, price from base order by sym");
  STRIP_RETURN_IF_ERROR(base.status());
  Result<ResultSet> derived =
      db.Execute("select sym, double_price, firings from derived order by sym");
  STRIP_RETURN_IF_ERROR(derived.status());
  if (base->num_rows() != derived->num_rows()) {
    return Status::Internal(StrFormat(
        "invariant d: %zu base rows but %zu derived rows",
        base->num_rows(), derived->num_rows()));
  }
  int64_t total_firings = 0;
  for (size_t i = 0; i < base->num_rows(); ++i) {
    if (base->rows[i][0] != derived->rows[i][0]) {
      return Status::Internal(StrFormat(
          "invariant d: row %zu key mismatch (%s vs %s)", i,
          base->rows[i][0].ToString().c_str(),
          derived->rows[i][0].ToString().c_str()));
    }
    double want = 2.0 * base->rows[i][1].as_double();
    double got = derived->rows[i][1].as_double();
    if (want != got) {  // prices are integral: exact comparison is right
      return Status::Internal(StrFormat(
          "invariant d: derived(%s) = %.1f but shadow recompute says %.1f",
          base->rows[i][0].ToString().c_str(), got, want));
    }
    total_firings += derived->rows[i][2].as_int();
  }
  Result<ResultSet> audit =
      db.Execute("select n from audit_total where k = 'all'");
  STRIP_RETURN_IF_ERROR(audit.status());
  if (audit->num_rows() != 1) {
    return Status::Internal("invariant d: audit_total row missing");
  }
  int64_t audited = audit->rows[0][0].as_int();
  if (audited != total_firings) {
    return Status::Internal(StrFormat(
        "invariant d: audit_total.n = %lld but derived tables record %lld "
        "recompute firings",
        static_cast<long long>(audited),
        static_cast<long long>(total_firings)));
  }
  return Status::OK();
}

Status SetUpWorkload(Database& db, const ChaosOptions& o) {
  STRIP_RETURN_IF_ERROR(db.ExecuteScript(R"(
    create table base (sym string, price double, ver int);
    create index on base (sym);
    create table derived (sym string, double_price double, firings int);
    create index on derived (sym);
    create table audit_total (k string, n int);
  )"));
  for (int i = 0; i < o.num_syms; ++i) {
    STRIP_RETURN_IF_ERROR(
        db.Execute(StrFormat("insert into base values ('%s', 100.0, 0)",
                             SymName(i).c_str()))
            .status());
    STRIP_RETURN_IF_ERROR(
        db.Execute(StrFormat("insert into derived values ('%s', 200.0, 0)",
                             SymName(i).c_str()))
            .status());
  }
  STRIP_RETURN_IF_ERROR(
      db.Execute("insert into audit_total values ('all', 0)").status());

  // The maintained computation: derived.double_price = 2 * base.price,
  // recomputed per symbol by a `unique on sym` delayed rule. Deliberately
  // reads base inside the action (not the transition values) so merged /
  // batched firings still converge to the latest committed price.
  STRIP_RETURN_IF_ERROR(db.RegisterFunction(
      "chaos_recompute", [](FunctionContext& ctx) -> Status {
        const TempTable* changed = ctx.BoundTable("changed");
        if (changed == nullptr || changed->size() == 0) {
          return Status::Internal("chaos_recompute: empty bound table");
        }
        // `unique on sym` partitions firings per symbol: every row in this
        // task's bound table carries the same sym.
        const std::string sym = changed->Get(0, 0).as_string();
        Result<TempTable> price = ctx.Query(
            StrFormat("select price from base where sym = '%s'", sym.c_str()));
        STRIP_RETURN_IF_ERROR(price.status());
        if (price->size() != 1) {
          return Status::Internal(
              StrFormat("chaos_recompute: %zu base rows for '%s'",
                        price->size(), sym.c_str()));
        }
        double p = price->Get(0, 0).as_double();
        return ctx.Exec(StrFormat("update derived set double_price = %.1f, "
                                  "firings += 1 where sym = '%s'",
                                  2.0 * p, sym.c_str()))
            .status();
      }));

  // Cascaded audit: a coarse `unique` rule on the derived table counts
  // committed recompute firings. Keyed on `updated firings` (which always
  // changes) so the count is closed-form: one transition row per commit.
  STRIP_RETURN_IF_ERROR(db.RegisterFunction(
      "chaos_audit", [](FunctionContext& ctx) -> Status {
        const TempTable* rows = ctx.BoundTable("changed_rows");
        if (rows == nullptr) {
          return Status::Internal("chaos_audit: missing bound table");
        }
        return ctx.Exec(StrFormat(
                            "update audit_total set n += %zu where k = 'all'",
                            rows->size()))
            .status();
      }));

  STRIP_RETURN_IF_ERROR(
      db.Execute(StrFormat(R"(
        create rule chaos_recompute on base when updated price
        if select new.sym as sym from new bind as changed
        then execute chaos_recompute unique on sym after %f seconds
      )",
                           o.recompute_delay_seconds))
          .status());
  STRIP_RETURN_IF_ERROR(
      db.Execute(StrFormat(R"(
        create rule chaos_audit on derived when updated firings
        if select new.sym as sym from new bind as changed_rows
        then execute chaos_audit unique after %f seconds
      )",
                           o.audit_delay_seconds))
          .status());

  // Invariant (f) fixture: a weighted-sum join view maintained by a
  // GENERATED delta rule (dim-probe strategy: the group key and weight
  // live on the dimension, prices on the fact). The feed's updates flow
  // through the delta path; churn's delete + re-insert pairs flow through
  // the _ins/_del companions and the hidden-count bookkeeping. Weights of
  // 0.5 against integral prices keep every delta exact in double, so the
  // quiescent comparison with a from-scratch recompute is strict.
  if (o.with_maintained_view) {
    STRIP_RETURN_IF_ERROR(db.ExecuteScript(R"(
      create table sectors (sym string, sec string, w double);
      create index on sectors (sym);
    )"));
    for (int i = 0; i < o.num_syms; ++i) {
      STRIP_RETURN_IF_ERROR(
          db.Execute(StrFormat("insert into sectors values ('%s', 'SEC%d', 0.5)",
                               SymName(i).c_str(), i % 3))
              .status());
    }
    STRIP_RETURN_IF_ERROR(db.ExecuteScript(R"(
      create materialized view chaos_view as
        select sec, sum(base.price * w) as total
        from base, sectors
        where base.sym = sectors.sym
        group by sec;
      create index on chaos_view (sec);
    )"));
    RuleGenOptions gen;
    gen.delay_seconds = o.view_delay_seconds;
    STRIP_RETURN_IF_ERROR(
        GenerateMaintenanceRule(db, "chaos_view", "base", gen).status());
  }
  return Status::OK();
}

}  // namespace

ChaosReport RunChaos(const ChaosOptions& options) {
  ChaosReport report;

  Database::Options db_opts;
  db_opts.mode = ExecutorMode::kSimulated;
  db_opts.policy = options.policy;
  // Virtual time advances by task cost; the injector pins every cost to a
  // seed-derived value so the clock itself is deterministic.
  db_opts.advance_clock_by_cost = true;
  Database db(db_opts);

  auto fail = [&](const Status& st, const char* where) {
    if (!report.failure.empty()) return;
    report.failure = StrFormat("[seed %llu, step %llu, %s] %s",
                               static_cast<unsigned long long>(options.seed),
                               static_cast<unsigned long long>(report.steps),
                               where, st.ToString().c_str());
    // Black-box dump at first failure: the retained lifecycle events and
    // the full metrics snapshot, while the wreckage is still warm.
    if (!options.flight_record_path.empty()) {
      Status wrote =
          WriteFlightRecord(options.flight_record_path, report.failure,
                            /*verdict_json=*/"", db.trace_ring(),
                            db.metrics());
      if (!wrote.ok()) {
        report.failure += StrFormat(" (flight record failed: %s)",
                                    wrote.ToString().c_str());
      }
    }
  };

  Status setup = SetUpWorkload(db, options);
  if (!setup.ok()) {
    fail(setup, "setup");
    return report;
  }

  // Faults start only after the workload is built: the schema and seed
  // rows are the fixture, not the system under test.
  FaultInjectorConfig fi_config = options.faults;
  fi_config.seed = options.seed;
  FaultInjector injector(fi_config);
  db.locks().set_fault_injector(&injector);
  SimulatedExecutor* sim = db.simulated();
  sim->set_fault_injector(&injector);

  sim->set_task_observer([&](const TaskControlBlock& t) {
    ++report.tasks_run;
    // Virtual-clock times and result codes only — no wall values — so two
    // runs of one seed must produce byte-identical logs.
    report.execute_order += StrFormat(
        "task=%llu fn=%s rel=%lld start=%lld finish=%lld cost=%lld rc=%d\n",
        static_cast<unsigned long long>(t.id()),
        t.function_name.empty() ? "-" : t.function_name.c_str(),
        static_cast<long long>(t.release_time),
        static_cast<long long>(t.start_time),
        static_cast<long long>(t.finish_time),
        static_cast<long long>(t.cpu_micros), static_cast<int>(t.result.code()));
    if (!t.result.ok()) {
      fail(t.result, "task result");
    }
  });

  std::vector<FeedEvent> events = MakeFeed(options);
  report.feed_events = events.size();
  uint64_t applied = 0;
  uint64_t churned = 0;
  for (const FeedEvent& e : events) {
    TaskPtr task = db.NewTask();
    task->release_time = e.at;
    task->function_name =
        e.churn ? "feed-churn" : (e.duplicate ? "feed-dup" : "feed");
    FeedEvent ev = e;
    Database* dbp = &db;
    uint64_t* appliedp = &applied;
    uint64_t* churnedp = &churned;
    task->work = [dbp, ev, appliedp, churnedp](TaskControlBlock&) {
      STRIP_RETURN_IF_ERROR(ApplyEvent(*dbp, ev, appliedp));
      if (ev.churn) return ApplyChurn(*dbp, ev, churnedp);
      return Status::OK();
    };
    db.Submit(std::move(task));
  }

  InvariantChecker checker(&db, options.invariants);
  bool planted = false;
  while (sim->RunOneStep()) {
    ++report.steps;
    if (options.plant_failure_at_step > 0 && !planted &&
        report.steps >= options.plant_failure_at_step) {
      // Corrupt the audit ledger outside any rule firing: nothing watches
      // audit_total, so unlike a derived-table corruption (which a later
      // chaos_recompute firing would silently repair) this is permanent
      // and invariant (d) MUST catch it at quiescence.
      planted = true;
      Status st =
          db.Execute("update audit_total set n += 1000000 where k = 'all'")
              .status();
      if (!st.ok()) fail(st, "planting failure");
    }
    if (options.check_every_step) {
      Status st = checker.CheckStep();
      if (!st.ok()) {
        fail(st, "step invariants");
        break;
      }
    }
  }
  if (report.failure.empty()) {
    // The quiescent validation runs real queries through the engine; it
    // must observe the final state, not draw injected faults of its own.
    db.locks().set_fault_injector(nullptr);
    Status st = checker.CheckQuiescent(ShadowRecompute);
    if (!st.ok()) fail(st, "quiescence");
  }

  report.applied_updates = applied;
  report.churn_events = churned;
  report.rule_tasks_created = db.rules().stats().tasks_created.load();
  report.firings_merged = db.rules().stats().firings_merged.load();
  report.wait_die_aborts =
      db.locks().stats().wait_die_aborts.load();
  const FaultInjectionStats& fi = injector.stats();
  report.injected.lock_aborts = fi.lock_aborts.load(std::memory_order_relaxed);
  report.injected.stalls = fi.stalls.load(std::memory_order_relaxed);
  report.injected.extra_delays =
      fi.extra_delays.load(std::memory_order_relaxed);
  report.injected.costs_assigned =
      fi.costs_assigned.load(std::memory_order_relaxed);

  // Detach hooks before the Database (and its executor) outlive them —
  // they reference stack objects of this frame.
  sim->set_task_observer(nullptr);
  sim->set_fault_injector(nullptr);
  db.locks().set_fault_injector(nullptr);

  report.ok = report.failure.empty();
  return report;
}

// ---------------------------------------------------------------------------
// Sharded-cluster chaos: invariant (g)
// ---------------------------------------------------------------------------

namespace {

/// Invariant (g): the merge engine's composite view must exactly equal a
/// from-scratch recompute over the UNION of the shard base tables. The
/// recompute never reads maintained state — it re-joins each shard's base
/// against its (replicated) sectors dimension and aggregates in plain
/// C++ — so agreement means the whole two-tier pipeline (tier-1 partials,
/// folded shipments, merge application) preserved the data, not that two
/// maintained copies drifted together. Weights are 0.5 and prices
/// integral, so every comparison is exact.
Status CheckClusterComposite(Cluster& cluster) {
  struct Agg {
    double total = 0.0;
    int64_t count = 0;
  };
  std::map<std::string, Agg> want;
  for (int i = 0; i < cluster.num_shards(); ++i) {
    Result<ResultSet> pairs = cluster.shard(i).Execute(
        "select sec, base.price, w from base, sectors "
        "where base.sym = sectors.sym");
    STRIP_RETURN_IF_ERROR(pairs.status());
    for (const std::vector<Value>& row : pairs->rows) {
      Agg& a = want[row[0].as_string()];
      a.total += row[1].as_double() * row[2].as_double();
      ++a.count;
    }
  }

  Result<ResultSet> got = cluster.merge().Execute(
      "select sec, total, _count from chaos_view order by sec");
  STRIP_RETURN_IF_ERROR(got.status());
  if (got->num_rows() != want.size()) {
    return Status::Internal(StrFormat(
        "invariant g: merged view has %zu groups but the shard union "
        "recomputes %zu",
        got->num_rows(), want.size()));
  }
  auto it = want.begin();
  for (size_t i = 0; i < got->num_rows(); ++i, ++it) {
    const std::string sec = got->rows[i][0].as_string();
    if (sec != it->first) {
      return Status::Internal(StrFormat(
          "invariant g: merged group '%s' but recompute says '%s'",
          sec.c_str(), it->first.c_str()));
    }
    double total = got->rows[i][1].as_double();
    int64_t count = got->rows[i][2].as_int();
    if (total != it->second.total || count != it->second.count) {
      // Split the failure between the tiers: the per-shard partial rows
      // for this group (tier 1) versus what the shipments made of them
      // (tier 2), plus the staging importer's delivery counters — a
      // `failed` shipment is a delta lost in flight.
      std::string detail;
      double fold_total = 0.0;
      int64_t fold_count = 0;
      for (int s = 0; s < cluster.num_shards(); ++s) {
        Result<ResultSet> part = cluster.shard(s).Execute(
            StrFormat("select total, _count from chaos_view "
                      "where sec = '%s'",
                      sec.c_str()));
        if (!part.ok()) continue;
        for (const std::vector<Value>& row : part->rows) {
          detail += StrFormat(" shard%d=(%.4f,%lld)", s,
                              row[0].as_double(),
                              static_cast<long long>(row[1].as_int()));
          fold_total += row[0].as_double();
          fold_count += row[1].as_int();
        }
      }
      const FeedImporter* staging = cluster.staging_importer("chaos_view");
      if (staging != nullptr) {
        detail += StrFormat(
            " staging submitted=%llu applied=%llu failed=%llu",
            static_cast<unsigned long long>(staging->records_submitted()),
            static_cast<unsigned long long>(staging->records_applied()),
            static_cast<unsigned long long>(staging->records_failed()));
      }
      return Status::Internal(StrFormat(
          "invariant g: merged('%s') = (%.4f, %lld) but shard-union "
          "recompute says (%.4f, %lld); partials fold to (%.4f, %lld):%s",
          sec.c_str(), total, static_cast<long long>(count),
          it->second.total, static_cast<long long>(it->second.count),
          fold_total, static_cast<long long>(fold_count), detail.c_str()));
    }
  }

  // Every staged delta must have been consumed and deleted by the merge
  // rule — residue means a shipment was applied twice or never.
  Result<ResultSet> staged =
      cluster.merge().Execute("select _seq from chaos_view_deltas");
  STRIP_RETURN_IF_ERROR(staged.status());
  if (staged->num_rows() != 0) {
    return Status::Internal(StrFormat(
        "invariant g: %zu staged deltas left at quiescence",
        staged->num_rows()));
  }
  return Status::OK();
}

Status SetUpClusterWorkload(Cluster& cluster, const ChaosOptions& o) {
  STRIP_RETURN_IF_ERROR(cluster.ExecuteOnShards(R"(
    create table base (sym string, price double, ver int);
    create index on base (sym);
    create table sectors (sym string, sec string, w double);
    create index on sectors (sym);
  )"));
  // The dimension is replicated: every shard can resolve any symbol's
  // sector locally, so a routed fact row never needs a cross-shard probe.
  std::string dims;
  for (int i = 0; i < o.num_syms; ++i) {
    dims += StrFormat("insert into sectors values ('%s', 'SEC%d', 0.5);\n",
                      SymName(i).c_str(), i % 3);
  }
  STRIP_RETURN_IF_ERROR(cluster.ExecuteOnShards(dims));
  STRIP_RETURN_IF_ERROR(cluster.ExecuteOnShards(R"(
    create materialized view chaos_view as
      select sec, sum(base.price * w) as total
      from base, sectors
      where base.sym = sectors.sym
      group by sec;
    create index on chaos_view (sec);
  )"));

  Cluster::TwoTierOptions tt;
  tt.tier1.delay_seconds = o.view_delay_seconds;
  tt.export_delay_seconds = o.view_delay_seconds;
  tt.merge_delay_seconds = o.view_delay_seconds;
  return cluster.ConnectTwoTier("chaos_view", "base", tt);
}

}  // namespace

ChaosReport RunClusterChaos(const ChaosOptions& options, int num_shards) {
  ChaosReport report;

  ClusterOptions copts;
  copts.num_shards = num_shards < 1 ? 1 : num_shards;
  copts.shard.mode = ExecutorMode::kSimulated;
  copts.shard.policy = options.policy;
  copts.shard.advance_clock_by_cost = true;
  copts.merge = copts.shard;
  Cluster cluster(copts);

  const int engines = cluster.num_shards() + 1;  // shards + merge
  auto engine = [&](int i) -> Database& {
    return i < cluster.num_shards() ? cluster.shard(i) : cluster.merge();
  };
  auto engine_name = [&](int i) -> std::string {
    return i < cluster.num_shards() ? StrFormat("shard%d", i)
                                    : std::string("merge");
  };

  auto fail = [&](const Status& st, const std::string& where) {
    if (!report.failure.empty()) return;
    report.failure = StrFormat("[seed %llu, step %llu, %s] %s",
                               static_cast<unsigned long long>(options.seed),
                               static_cast<unsigned long long>(report.steps),
                               where.c_str(), st.ToString().c_str());
    // The merge engine is where invariant (g) failures land; its ring and
    // metrics are the most useful black box for a cluster failure.
    if (!options.flight_record_path.empty()) {
      Status wrote = WriteFlightRecord(
          options.flight_record_path, report.failure, /*verdict_json=*/"",
          cluster.merge().trace_ring(), cluster.merge().metrics());
      if (!wrote.ok()) {
        report.failure += StrFormat(" (flight record failed: %s)",
                                    wrote.ToString().c_str());
      }
    }
  };

  Status setup = SetUpClusterWorkload(cluster, options);
  if (!setup.ok()) {
    fail(setup, "setup");
    return report;
  }
  Result<FeedRouter*> router = cluster.OpenFeed("base");
  if (!router.ok()) {
    fail(router.status(), "setup");
    return report;
  }

  // One injector per engine, each drawing from its own seed stream —
  // faults on one shard must not shift another shard's draws.
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<InvariantChecker> checkers;
  checkers.reserve(static_cast<size_t>(engines));
  for (int i = 0; i < engines; ++i) {
    FaultInjectorConfig c = options.faults;
    c.seed = options.seed ^
             (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(i) + 1));
    injectors.push_back(std::make_unique<FaultInjector>(c));
    engine(i).locks().set_fault_injector(injectors.back().get());
    engine(i).simulated()->set_fault_injector(injectors.back().get());
    checkers.emplace_back(&engine(i), options.invariants);
    std::string name = engine_name(i);
    engine(i).simulated()->set_task_observer(
        [&report, &fail, name](const TaskControlBlock& t) {
          ++report.tasks_run;
          report.execute_order += StrFormat(
              "%s task=%llu fn=%s rel=%lld start=%lld finish=%lld cost=%lld "
              "rc=%d\n",
              name.c_str(), static_cast<unsigned long long>(t.id()),
              t.function_name.empty() ? "-" : t.function_name.c_str(),
              static_cast<long long>(t.release_time),
              static_cast<long long>(t.start_time),
              static_cast<long long>(t.finish_time),
              static_cast<long long>(t.cpu_micros),
              static_cast<int>(t.result.code()));
          // Feed upserts do not retry wait-die deaths; an aborted record
          // simply never lands, which both sides of invariant (g) agree
          // on. Anything other than a clean abort is a real failure.
          if (!t.result.ok() && t.result.code() != StatusCode::kAborted) {
            fail(t.result, name + " task result");
          }
        });
  }

  // The same perturbed feed, entering through the router: each record is
  // wire-encoded, hash-routed by symbol, and upserted by the owning
  // shard's importer at its release time.
  std::vector<FeedEvent> events = MakeFeed(options);
  report.feed_events = events.size();
  for (const FeedEvent& e : events) {
    FeedRecord rec;
    rec.at = e.at;
    rec.values = {Value::Str(SymName(e.sym)), Value::Double(e.price),
                  Value::Int(static_cast<int64_t>(e.priority))};
    Status st = (*router)->Route(rec);
    if (!st.ok()) {
      fail(st, "routing");
      break;
    }
  }

  // Round-robin, one virtual step per engine per pass. A shard's export
  // firing enqueues merge work mid-pass, so the loop only exits after a
  // full pass in which NO engine had anything to run.
  bool planted = false;
  bool any = true;
  while (any && report.failure.empty()) {
    any = false;
    for (int i = 0; i < engines && report.failure.empty(); ++i) {
      if (!engine(i).simulated()->RunOneStep()) continue;
      any = true;
      ++report.steps;
      if (options.plant_failure_at_step > 0 && !planted &&
          report.steps >= options.plant_failure_at_step) {
        // A bogus group in the merged view: no delta will ever key it, so
        // nothing repairs it and invariant (g) MUST trip at quiescence.
        planted = true;
        Status st = cluster.merge()
                        .Execute("insert into chaos_view values "
                                 "('BOGUS', 1000000.0, 1)")
                        .status();
        if (!st.ok()) fail(st, "planting failure");
      }
      if (options.check_every_step) {
        Status st = checkers[static_cast<size_t>(i)].CheckStep();
        if (!st.ok()) fail(st, engine_name(i) + " step invariants");
      }
    }
  }

  if (report.failure.empty()) {
    // Quiescent validation runs real queries; it must not draw faults.
    for (int i = 0; i < engines; ++i) {
      engine(i).locks().set_fault_injector(nullptr);
    }
    // Per-engine quiescent suite: invariant (f) checks each shard's
    // partial view against its local from-scratch recompute; the cross-
    // shard shadow is invariant (g) below.
    for (int i = 0; i < engines && report.failure.empty(); ++i) {
      Status st = checkers[static_cast<size_t>(i)].CheckQuiescent(nullptr);
      if (!st.ok()) fail(st, engine_name(i) + " quiescence");
    }
    if (report.failure.empty()) {
      Status st = CheckClusterComposite(cluster);
      if (!st.ok()) fail(st, "quiescence");
    }
  }

  report.applied_updates = (*router)->total_routed();
  report.deltas_shipped = cluster.deltas_shipped();
  for (int i = 0; i < engines; ++i) {
    Database& db = engine(i);
    report.rule_tasks_created += db.rules().stats().tasks_created.load();
    report.firings_merged += db.rules().stats().firings_merged.load();
    report.wait_die_aborts +=
        db.locks().stats().wait_die_aborts.load();
    const FaultInjectionStats& fi = injectors[static_cast<size_t>(i)]->stats();
    report.injected.lock_aborts +=
        fi.lock_aborts.load(std::memory_order_relaxed);
    report.injected.stalls += fi.stalls.load(std::memory_order_relaxed);
    report.injected.extra_delays +=
        fi.extra_delays.load(std::memory_order_relaxed);
    report.injected.costs_assigned +=
        fi.costs_assigned.load(std::memory_order_relaxed);
    // Detach hooks before the cluster (and its executors) outlive them.
    db.simulated()->set_task_observer(nullptr);
    db.simulated()->set_fault_injector(nullptr);
    db.locks().set_fault_injector(nullptr);
  }

  report.ok = report.failure.empty();
  return report;
}

ShrinkResult ShrinkFailure(const ChaosOptions& failing, int max_runs) {
  ShrinkResult res;
  res.options = failing;
  res.report = RunChaos(failing);
  res.runs = 1;
  if (res.report.ok) {
    res.trail = "baseline run passed; nothing to shrink\n";
    return res;
  }

  auto attempt = [&](const char* what, const ChaosOptions& trial) {
    if (res.runs >= max_runs) return false;
    ChaosReport r = RunChaos(trial);
    ++res.runs;
    if (!r.ok) {
      res.options = trial;
      res.report = std::move(r);
      res.trail += StrFormat("%s: still fails — kept\n", what);
      return true;
    }
    res.trail += StrFormat("%s: passes — reverted\n", what);
    return false;
  };

  // Phase 1: halve the feed while the failure survives.
  while (res.options.num_events > 1) {
    ChaosOptions trial = res.options;
    trial.num_events = std::max(1, trial.num_events / 2);
    if (!attempt(StrFormat("events %d -> %d", res.options.num_events,
                           trial.num_events)
                     .c_str(),
                 trial)) {
      break;
    }
  }

  // Phase 2: disable one fault / perturbation class at a time. Whatever
  // survives is the minimal ingredient list for the failure.
  struct Knob {
    const char* name;
    void (*zero)(ChaosOptions&);
  };
  const Knob knobs[] = {
      {"no injected lock aborts",
       [](ChaosOptions& o) { o.faults.lock_abort_rate = 0; }},
      {"no worker stalls", [](ChaosOptions& o) { o.faults.stall_rate = 0; }},
      {"no late promotions",
       [](ChaosOptions& o) { o.faults.extra_delay_rate = 0; }},
      {"no bursts", [](ChaosOptions& o) { o.burst_rate = 0; }},
      {"no reorders", [](ChaosOptions& o) { o.reorder_rate = 0; }},
      {"no duplicates", [](ChaosOptions& o) { o.duplicate_rate = 0; }},
      {"no churn", [](ChaosOptions& o) { o.churn_rate = 0; }},
      {"no maintained view",
       [](ChaosOptions& o) { o.with_maintained_view = false; }},
  };
  for (const Knob& k : knobs) {
    ChaosOptions trial = res.options;
    k.zero(trial);
    attempt(k.name, trial);
  }
  return res;
}

}  // namespace strip
