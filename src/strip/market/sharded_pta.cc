#include "strip/market/sharded_pta.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "strip/cluster/cluster.h"
#include "strip/common/string_util.h"
#include "strip/engine/database.h"
#include "strip/feed/feed.h"
#include "strip/viewmaint/rule_gen.h"

namespace strip {

namespace {

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string SymName(int i) { return StrFormat("S%04d", i); }

/// A dyadic price: a multiple of 1/16 in [8, 72). Products with the
/// (quarter-valued) weights are multiples of 1/64, so every partial sum —
/// on a shard, on the merge engine, or in the single-engine reference — is
/// exactly representable and equality across run modes is exact.
double DyadicPrice(uint64_t r) {
  return 8.0 + static_cast<double>(r % 1024) * 0.0625;
}

/// One record stream, shared verbatim by the cluster run and the
/// single-engine reference. Three phases: seed inserts (one per symbol),
/// the measured quote burst, and one deterministic closing quote per
/// symbol. The closing phase pins every symbol's final price, so the
/// final view state does not depend on how racing burst updates to the
/// same symbol interleaved — which run mode, worker count, and shard
/// count are all free to change.
struct Workload {
  std::vector<std::pair<int, double>> seed;
  std::vector<std::pair<int, double>> burst;
  std::vector<std::pair<int, double>> close;
};

Workload MakeWorkload(const ShardedPtaOptions& o) {
  Workload w;
  uint64_t rng = o.seed ^ 0x51a0000000000000ull;
  w.seed.reserve(static_cast<size_t>(o.num_syms));
  for (int i = 0; i < o.num_syms; ++i) {
    w.seed.emplace_back(i, DyadicPrice(SplitMix(rng)));
  }
  w.burst.reserve(static_cast<size_t>(o.num_updates));
  for (int i = 0; i < o.num_updates; ++i) {
    int sym = static_cast<int>(SplitMix(rng) %
                               static_cast<uint64_t>(o.num_syms));
    w.burst.emplace_back(sym, DyadicPrice(SplitMix(rng)));
  }
  w.close.reserve(static_cast<size_t>(o.num_syms));
  for (int i = 0; i < o.num_syms; ++i) {
    w.close.emplace_back(i, DyadicPrice(SplitMix(rng)));
  }
  return w;
}

/// DDL + replicated dimension + the partial view, identical on every
/// shard and on the single-engine reference.
Status SetUpSchema(Database& db, const ShardedPtaOptions& o) {
  STRIP_RETURN_IF_ERROR(db.ExecuteScript(R"(
    create table stocks (symbol string, price double);
    create index on stocks (symbol);
    create table comps_list (symbol string, comp string, weight double);
    create index on comps_list (symbol);
  )"));
  // Every symbol belongs to two composites with a quarter-valued weight;
  // the dimension is replicated so no maintenance ever crosses a shard.
  std::string dims;
  for (int i = 0; i < o.num_syms; ++i) {
    int c1 = i % o.num_comps;
    int c2 = o.num_comps > 1
                 ? (c1 + 1 + (i / o.num_comps) % (o.num_comps - 1)) %
                       o.num_comps
                 : c1;
    double weight = 0.25 * static_cast<double>(1 + i % 3);
    dims += StrFormat("insert into comps_list values ('%s', 'C%02d', %f);\n",
                      SymName(i).c_str(), c1, weight);
    if (c2 != c1) {
      dims += StrFormat(
          "insert into comps_list values ('%s', 'C%02d', %f);\n",
          SymName(i).c_str(), c2, weight);
    }
  }
  STRIP_RETURN_IF_ERROR(db.ExecuteScript(dims));
  return db.ExecuteScript(R"(
    create materialized view comp_prices as
      select comp, sum(stocks.price * weight) as total
      from stocks, comps_list
      where stocks.symbol = comps_list.symbol
      group by comp;
    create index on comp_prices (comp);
  )");
}

/// Shared measurement state of the order-submission actions across all
/// shard engines: firing count plus the wall-clock window from the first
/// order's start to the last one's finish (process-wide clock, so the
/// window is comparable across engines).
struct OrderStats {
  std::mutex mu;
  uint64_t firings = 0;
  bool have_window = false;
  std::chrono::steady_clock::time_point first_start;
  std::chrono::steady_clock::time_point last_finish;
};

/// The per-quote order rule: fires once per update transaction on the
/// shard's stocks partition (non-unique, no delay — orders are not
/// batchable), and its action blocks for the exchange round-trip. The
/// stall occupies one pool worker; with W workers per shard and K shards,
/// up to K*W stalls overlap, which is the scale-up this bench measures.
Status InstallOrderRule(Database& db, int64_t latency_micros,
                        std::shared_ptr<OrderStats> stats) {
  STRIP_RETURN_IF_ERROR(db.RegisterFunction(
      "submit_orders",
      [latency_micros, stats](FunctionContext&) -> Status {
        auto start = std::chrono::steady_clock::now();
        if (latency_micros > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(latency_micros));
        }
        auto finish = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> lock(stats->mu);
        ++stats->firings;
        if (!stats->have_window || start < stats->first_start) {
          stats->first_start = start;
          stats->have_window = true;
        }
        if (stats->last_finish < finish) stats->last_finish = finish;
        return Status::OK();
      }));
  return db.Execute(R"(
    create rule pta_orders on stocks
    when updated price
    if
      select comp, weight, new.price as price
      from comps_list, new
      where comps_list.symbol = new.symbol
      bind as matches
    then execute submit_orders)")
      .status();
}

Result<std::vector<MergedGroup>> ReadView(Database& db) {
  STRIP_ASSIGN_OR_RETURN(
      ResultSet rows,
      db.Execute("select comp, total, _count from comp_prices "
                 "order by comp"));
  std::vector<MergedGroup> out;
  out.reserve(rows.num_rows());
  for (const std::vector<Value>& row : rows.rows) {
    MergedGroup g;
    g.comp = row[0].as_string();
    g.total = row[1].as_double();
    g.count = row[2].as_int();
    out.push_back(std::move(g));
  }
  return out;
}

FeedRecord QuoteRecord(const std::pair<int, double>& q) {
  FeedRecord rec;
  rec.at = 0;
  rec.values = {Value::Str(SymName(q.first)), Value::Double(q.second)};
  return rec;
}

}  // namespace

Result<ShardedPtaResult> RunShardedPta(const ShardedPtaOptions& options) {
  ClusterOptions copts;
  copts.num_shards = options.num_shards;
  copts.shard.mode = ExecutorMode::kThreaded;
  copts.shard.num_workers = options.num_workers;
  copts.shard.enable_metrics = options.enable_metrics;
  copts.merge = copts.shard;
  Cluster cluster(copts);

  for (int i = 0; i < cluster.num_shards(); ++i) {
    STRIP_RETURN_IF_ERROR(SetUpSchema(cluster.shard(i), options));
  }
  auto stats = std::make_shared<OrderStats>();
  for (int i = 0; i < cluster.num_shards(); ++i) {
    STRIP_RETURN_IF_ERROR(InstallOrderRule(
        cluster.shard(i), options.order_latency_micros, stats));
  }
  Cluster::TwoTierOptions tt;
  tt.tier1.delay_seconds = options.tier1_delay_seconds;
  tt.export_delay_seconds = options.export_delay_seconds;
  tt.merge_delay_seconds = options.merge_delay_seconds;
  STRIP_RETURN_IF_ERROR(cluster.ConnectTwoTier("comp_prices", "stocks", tt));
  STRIP_ASSIGN_OR_RETURN(FeedRouter * router, cluster.OpenFeed("stocks"));

  Workload w = MakeWorkload(options);

  // Phase 1: seed every symbol (inserts fire no order rule), drain.
  for (const auto& q : w.seed) {
    STRIP_RETURN_IF_ERROR(router->Route(QuoteRecord(q)));
  }
  STRIP_RETURN_IF_ERROR(cluster.DrainAll());

  // Phase 2: the measured burst.
  auto t0 = std::chrono::steady_clock::now();
  for (const auto& q : w.burst) {
    STRIP_RETURN_IF_ERROR(router->Route(QuoteRecord(q)));
  }
  STRIP_RETURN_IF_ERROR(cluster.DrainAll());
  auto t1 = std::chrono::steady_clock::now();

  ShardedPtaResult result;
  result.num_shards = options.num_shards;
  result.num_workers = options.num_workers;
  result.wall_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  {
    std::lock_guard<std::mutex> lock(stats->mu);
    result.num_firings = stats->firings;
    if (stats->have_window && stats->first_start < stats->last_finish) {
      result.firing_window_seconds =
          std::chrono::duration<double>(stats->last_finish -
                                        stats->first_start)
              .count();
      result.firings_per_second =
          static_cast<double>(result.num_firings) /
          result.firing_window_seconds;
    }
  }

  // Phase 3: closing quotes pin the final state; excluded from the
  // measurement but still routed through the same pipeline.
  for (const auto& q : w.close) {
    STRIP_RETURN_IF_ERROR(router->Route(QuoteRecord(q)));
  }
  STRIP_RETURN_IF_ERROR(cluster.DrainAll());

  result.num_records = router->total_routed();
  result.deltas_shipped = cluster.deltas_shipped();
  const FeedImporter* staging = cluster.staging_importer("comp_prices");
  result.staging_failed =
      staging != nullptr ? staging->records_failed() : 0;
  for (int i = 0; i < cluster.num_shards(); ++i) {
    result.wait_die_aborts +=
        cluster.shard(i).locks().stats().wait_die_aborts.load();
  }
  result.wait_die_aborts +=
      cluster.merge().locks().stats().wait_die_aborts.load();
  STRIP_ASSIGN_OR_RETURN(result.merged_view, ReadView(cluster.merge()));
  result.metrics_json =
      options.enable_metrics ? cluster.MetricsJson() : "{}";
  return result;
}

Result<std::vector<MergedGroup>> RunSingleEnginePta(
    const ShardedPtaOptions& options) {
  Database::Options db_opts;
  db_opts.mode = ExecutorMode::kSimulated;
  db_opts.advance_clock_by_cost = true;
  Database db(db_opts);
  STRIP_RETURN_IF_ERROR(SetUpSchema(db, options));
  RuleGenOptions gen;
  gen.delay_seconds = options.tier1_delay_seconds;
  STRIP_RETURN_IF_ERROR(
      GenerateMaintenanceRule(db, "comp_prices", "stocks", gen).status());

  STRIP_ASSIGN_OR_RETURN(std::unique_ptr<FeedImporter> importer,
                         FeedImporter::Create(&db, "stocks"));
  Workload w = MakeWorkload(options);
  for (const auto* phase : {&w.seed, &w.burst, &w.close}) {
    for (const auto& q : *phase) {
      STRIP_RETURN_IF_ERROR(importer->Submit(QuoteRecord(q)));
    }
    db.simulated()->RunUntilQuiescent();
  }
  return ReadView(db);
}

Status CompareMergedViews(const std::vector<MergedGroup>& merged,
                          const std::vector<MergedGroup>& reference) {
  if (merged.size() != reference.size()) {
    return Status::Internal(StrFormat(
        "merged view has %zu groups, single-engine reference has %zu",
        merged.size(), reference.size()));
  }
  for (size_t i = 0; i < merged.size(); ++i) {
    const MergedGroup& m = merged[i];
    const MergedGroup& r = reference[i];
    if (m.comp != r.comp || m.total != r.total || m.count != r.count) {
      return Status::Internal(StrFormat(
          "merged['%s'] = (%.6f, %lld) but single-engine reference has "
          "['%s'] = (%.6f, %lld)",
          m.comp.c_str(), m.total, static_cast<long long>(m.count),
          r.comp.c_str(), r.total, static_cast<long long>(r.count)));
    }
  }
  return Status::OK();
}

}  // namespace strip
