// Incremental view maintenance: delta rules vs. per-group recompute, and
// what batching adds on top (§8 / ROADMAP item 2). A weighted-sum join
// view (the paper's comp_prices shape) is maintained three ways under the
// same synthetic price feed:
//
//   recompute      hand-written `unique on grp` rule re-aggregating the
//                  whole group per firing — O(|group|) per change, the
//                  paper-era strategy;
//   delta          generated maintenance rule (rule_gen.h) applying
//                  (new - old) x weight per changed row, delay 0 so every
//                  update pays its own firing — O(|delta|);
//   delta_batched  the same generated rule with a delay window, so
//                  same-group deltas inside the window fold to one net
//                  update per group (net_effect) — O(|net delta|).
//
// recompute and delta_batched sweep the paper's 0.5 - 3 s windows; delta
// is the window-free reference point. Every run ends with an exact
// view-vs-recompute equality check (weights are 0.5 against integral
// prices, so delta arithmetic is exact in double); a benchmark that
// produced a wrong view aborts instead of reporting a time.
//
// Usage: bench_ivm [--full | --scale=F] [--seed=N]
//
// Emits BENCH_ivm.json (canonical BenchReport schema): one entry per
// (group size, strategy, delay) with the feed-only baseline subtracted,
// plus a summary with the delta-vs-recompute speedup at the largest
// group size.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "pta_bench_common.h"
#include "strip/common/string_util.h"
#include "strip/engine/database.h"
#include "strip/engine/prepared_statement.h"
#include "strip/viewmaint/rule_gen.h"
#include "strip/viewmaint/view_def.h"

namespace strip::bench {
namespace {

struct IvmConfig {
  int num_groups = 8;
  int group_size = 128;    // symbols per group (the sweep axis)
  int num_updates = 2000;  // price updates in the feed
  Timestamp mean_gap_micros = 50'000;  // virtual time between updates
  /// Market feeds are skewed: most prints hit a few hot symbols. The hot
  /// set is spread across all groups, so every group keeps changing —
  /// recompute cannot sit idle — while the per-window delta stays a
  /// handful of symbols (the "small delta, large group" regime).
  double hot_fraction = 0.85;
  int hot_syms = 16;
  uint64_t seed = 42;
};

enum class Strategy { kNone, kRecompute, kDelta };

const char* StrategyName(Strategy s, double delay) {
  switch (s) {
    case Strategy::kNone: return "baseline";
    case Strategy::kRecompute: return "recompute";
    case Strategy::kDelta: return delay > 0 ? "delta_batched" : "delta";
  }
  return "?";
}

/// Sequential splitmix64 for the feed (generated once, up front).
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

std::string SymName(int i) { return StrFormat("S%d", i); }
std::string GrpName(int i) { return StrFormat("G%d", i); }

/// px (fact, integral prices) x members (dim, weight 0.5) -> vidx, the
/// weighted-sum view every strategy maintains.
Status SetUpWorkload(Database& db, const IvmConfig& c) {
  STRIP_RETURN_IF_ERROR(db.ExecuteScript(R"(
    create table px (sym string, price double);
    create index on px (sym);
    create table members (grp string, sym string, w double);
    create index on members (sym);
    create index on members (grp);
  )"));
  int num_syms = c.num_groups * c.group_size;
  // Batched inserts: one statement per 256 rows keeps setup off the
  // measured path's scale.
  for (int base = 0; base < num_syms; base += 256) {
    std::string px_vals, mem_vals;
    for (int i = base; i < std::min(base + 256, num_syms); ++i) {
      const char* sep = px_vals.empty() ? "" : ", ";
      px_vals += StrFormat("%s('%s', 100.0)", sep, SymName(i).c_str());
      mem_vals += StrFormat("%s('%s', '%s', 0.5)", sep,
                            GrpName(i / c.group_size).c_str(),
                            SymName(i).c_str());
    }
    STRIP_RETURN_IF_ERROR(
        db.Execute("insert into px values " + px_vals).status());
    STRIP_RETURN_IF_ERROR(
        db.Execute("insert into members values " + mem_vals).status());
  }
  STRIP_RETURN_IF_ERROR(db.ExecuteScript(R"(
    create materialized view vidx as
      select grp, sum(px.price * w) as total
      from px, members
      where px.sym = members.sym
      group by grp;
    create index on vidx (grp);
  )"));
  return Status::OK();
}

/// The paper-era baseline: on any price change, re-aggregate the whole
/// group from scratch. Prepared statements, so the gap to the delta rule
/// is algorithmic (O(|group|) vs O(|delta|)), not parse overhead.
Status InstallRecomputeRule(Database& db, double delay) {
  STRIP_ASSIGN_OR_RETURN(
      PreparedStatementPtr group_sum,
      db.Prepare("select grp, sum(px.price * w) as s from px, members "
                 "where px.sym = members.sym and grp = ? group by grp"));
  STRIP_ASSIGN_OR_RETURN(
      PreparedStatementPtr write_back,
      db.Prepare("update vidx set total = ? where grp = ?"));
  STRIP_RETURN_IF_ERROR(db.RegisterFunction(
      "ivm_recompute",
      [group_sum, write_back](FunctionContext& ctx) -> Status {
        const TempTable* changed = ctx.BoundTable("changed");
        if (changed == nullptr || changed->size() == 0) {
          return Status::Internal("ivm_recompute: empty bound table");
        }
        // `unique on grp`: every row in this firing carries the same grp.
        Value grp = changed->Get(0, 0);
        STRIP_ASSIGN_OR_RETURN(TempTable s, ctx.Query(*group_sum, {grp}));
        if (s.size() != 1) {
          return Status::Internal("ivm_recompute: group vanished");
        }
        return ctx.Exec(*write_back, {s.Get(0, 1), grp}).status();
      }));
  return db
      .Execute(StrFormat(R"(
        create rule ivm_recompute on px when updated price
        if select members.grp as grp from new, members
           where new.sym = members.sym bind as changed
        then execute ivm_recompute unique on grp after %f seconds
      )",
                         delay))
      .status();
}

struct RunResult {
  double total_seconds = 0;   // wall clock of the drain (feed + rules)
  uint64_t tasks_created = 0;
  uint64_t firings_merged = 0;
};

/// Exact equality between the maintained view and a from-scratch
/// aggregation (column 0/1 only: delta strategies append hidden _count).
Status CheckViewExact(Database& db) {
  auto view = db.Execute("select grp, total from vidx order by grp");
  STRIP_RETURN_IF_ERROR(view.status());
  auto want = db.Execute(
      "select grp, sum(px.price * w) as total from px, members "
      "where px.sym = members.sym group by grp order by grp");
  STRIP_RETURN_IF_ERROR(want.status());
  if (view->num_rows() != want->num_rows()) {
    return Status::Internal(StrFormat("view has %zu rows, recompute %zu",
                                      view->num_rows(), want->num_rows()));
  }
  for (size_t i = 0; i < view->num_rows(); ++i) {
    if (view->rows[i][0] != want->rows[i][0] ||
        view->rows[i][1].as_double() != want->rows[i][1].as_double()) {
      return Status::Internal(StrFormat(
          "view row %zu = (%s, %s) but recompute says (%s, %s)", i,
          view->rows[i][0].ToString().c_str(),
          view->rows[i][1].ToString().c_str(),
          want->rows[i][0].ToString().c_str(),
          want->rows[i][1].ToString().c_str()));
    }
  }
  return Status::OK();
}

Result<RunResult> RunOnce(const IvmConfig& c, Strategy strat, double delay) {
  Database db;
  STRIP_RETURN_IF_ERROR(SetUpWorkload(db, c));
  switch (strat) {
    case Strategy::kNone:
      break;
    case Strategy::kRecompute:
      STRIP_RETURN_IF_ERROR(InstallRecomputeRule(db, delay));
      break;
    case Strategy::kDelta: {
      RuleGenOptions gen;
      gen.delay_seconds = delay;
      STRIP_RETURN_IF_ERROR(
          GenerateMaintenanceRule(db, "vidx", "px", gen).status());
      break;
    }
  }

  // The feed: one prepared UPDATE per event, each its own transaction
  // (rules fire at commit), released on a virtual-time grid so the delay
  // windows batch exactly as they would against a live feed.
  STRIP_ASSIGN_OR_RETURN(PreparedStatementPtr feed,
                         db.Prepare("update px set price = ? where sym = ?"));
  SplitMix rng(c.seed ^ 0x1f2e3d4c5b6a7988ull);
  int num_syms = c.num_groups * c.group_size;
  // Hot symbols at a fixed stride, one every num_syms/hot_syms — each
  // group contains hot symbols, so merging never lets a group go cold.
  int hot_stride = std::max(1, num_syms / c.hot_syms);
  Timestamp t = 10'000;
  for (int i = 0; i < c.num_updates; ++i) {
    int sym = rng.Unit() < c.hot_fraction
                  ? static_cast<int>(rng.Below(
                        static_cast<uint64_t>(c.hot_syms))) *
                        hot_stride
                  : static_cast<int>(
                        rng.Below(static_cast<uint64_t>(num_syms)));
    std::vector<Value> params = {
        Value::Double(1.0 + static_cast<double>(rng.Below(1000))),
        Value::Str(SymName(sym))};
    t += 1 + static_cast<Timestamp>(rng.Below(2 * c.mean_gap_micros));
    TaskPtr task = db.NewTask();
    task->release_time = t;
    task->function_name = "feed";
    PreparedStatementPtr stmt = feed;
    task->work = [stmt, params = std::move(params)](
                     TaskControlBlock&) -> Status {
      return stmt->Execute(params).status();
    };
    db.Submit(std::move(task));
  }

  auto start = std::chrono::steady_clock::now();
  db.simulated()->RunUntilQuiescent();
  auto stop = std::chrono::steady_clock::now();

  if (strat != Strategy::kNone) {
    STRIP_RETURN_IF_ERROR(CheckViewExact(db));
  }
  RunResult r;
  r.total_seconds = std::chrono::duration<double>(stop - start).count();
  r.tasks_created = db.rules().stats().tasks_created.load();
  r.firings_merged = db.rules().stats().firings_merged.load();
  return r;
}

/// Min-of-reps wall time: the repeatable cost, robust to scheduler noise.
Result<RunResult> RunBest(const IvmConfig& c, Strategy strat, double delay,
                          int reps) {
  RunResult best;
  for (int i = 0; i < reps; ++i) {
    STRIP_ASSIGN_OR_RETURN(RunResult r, RunOnce(c, strat, delay));
    if (i == 0 || r.total_seconds < best.total_seconds) best = r;
  }
  return best;
}

struct Row {
  int group_size;
  std::string strategy;
  double delay_seconds;
  RunResult run;
  double maintenance_seconds;  // run minus the feed-only baseline
};

int Run(const SweepOptions& opts) {
  constexpr int kReps = 5;
  const std::vector<int> group_sizes = {16, 128, 1024};
  IvmConfig base;
  base.seed = opts.seed;
  // scale 0.05 (the default) keeps the checked-in artifact's feed at 2000
  // updates; --full sweeps the paper-scale 40k.
  base.num_updates = std::max(500, static_cast<int>(40'000 * opts.scale));

  std::vector<Row> rows;
  for (int gs : group_sizes) {
    IvmConfig c = base;
    c.group_size = gs;
    std::printf("group size %d: baseline ...\n", gs);
    auto baseline = RunBest(c, Strategy::kNone, 0, kReps);
    if (!baseline.ok()) {
      std::fprintf(stderr, "baseline failed: %s\n",
                   baseline.status().ToString().c_str());
      return 1;
    }
    rows.push_back({gs, "baseline", 0.0, *baseline, 0.0});

    auto measure = [&](Strategy s, double delay) -> bool {
      auto r = RunBest(c, s, delay, kReps);
      if (!r.ok()) {
        std::fprintf(stderr, "%s (delay %.2f) failed: %s\n",
                     StrategyName(s, delay), delay,
                     r.status().ToString().c_str());
        return false;
      }
      double maint =
          std::max(0.0, r->total_seconds - baseline->total_seconds);
      rows.push_back({gs, StrategyName(s, delay), delay, *r, maint});
      std::printf("  %-14s delay %-5.2f total %8.3f ms  maint %8.3f ms  "
                  "tasks %6llu  merged %6llu\n",
                  StrategyName(s, delay), delay, r->total_seconds * 1e3,
                  maint * 1e3,
                  static_cast<unsigned long long>(r->tasks_created),
                  static_cast<unsigned long long>(r->firings_merged));
      return true;
    };

    if (!measure(Strategy::kDelta, 0.0)) return 1;
    for (double delay : opts.delays) {
      if (!measure(Strategy::kRecompute, delay)) return 1;
      if (!measure(Strategy::kDelta, delay)) return 1;
    }
  }

  // Summary: the headline comparisons in the small-delta/large-group
  // regime (the largest group size). The delta-vs-recompute speedup pits
  // delta against recompute's BEST window — its most favorable batching,
  // not a strawman — and the batching claim requires delta_batched to
  // beat BOTH alternatives at every window, recompute compared at the
  // matching window (same staleness budget).
  int big = group_sizes.back();
  double recompute_best = 0, delta_alone = 0, batched_best = 0;
  double matched_speedup_min = 0;  // min over windows of recompute/batched
  bool batched_fastest = true;
  auto find = [&](const char* strategy, double delay) -> const Row* {
    for (const Row& r : rows) {
      if (r.group_size == big && r.strategy == strategy &&
          r.delay_seconds == delay) {
        return &r;
      }
    }
    return nullptr;
  };
  delta_alone = find("delta", 0.0)->maintenance_seconds;
  for (double delay : opts.delays) {
    double rec = find("recompute", delay)->maintenance_seconds;
    double bat = find("delta_batched", delay)->maintenance_seconds;
    if (recompute_best == 0 || rec < recompute_best) recompute_best = rec;
    if (batched_best == 0 || bat < batched_best) batched_best = bat;
    if (bat >= rec || bat >= delta_alone) batched_fastest = false;
    double ratio = bat > 0 ? rec / bat : 0;
    if (matched_speedup_min == 0 || ratio < matched_speedup_min) {
      matched_speedup_min = ratio;
    }
  }
  double speedup = delta_alone > 0 ? recompute_best / delta_alone : 0;
  std::printf("\nlargest group (%d syms): recompute best %.3f ms, delta "
              "%.3f ms (%.1fx), batched best %.3f ms (matched-window "
              "speedup >= %.1fx); batched fastest at every window: %s\n",
              big, recompute_best * 1e3, delta_alone * 1e3, speedup,
              batched_best * 1e3, matched_speedup_min,
              batched_fastest ? "yes" : "no");

  BenchReport report("ivm");
  report.Config([&](JsonWriter& w) {
    w.Key("seed").Uint(opts.seed);
    w.Key("num_groups").Int(base.num_groups);
    w.Key("num_updates").Int(base.num_updates);
    w.Key("mean_gap_micros").Int(static_cast<int>(base.mean_gap_micros));
    w.Key("hot_fraction").Double(base.hot_fraction);
    w.Key("hot_syms").Int(base.hot_syms);
    w.Key("reps").Int(kReps);
    w.Key("group_sizes").BeginArray();
    for (int gs : group_sizes) w.Int(gs);
    w.EndArray();
    w.Key("delays_seconds").BeginArray();
    for (double d : opts.delays) w.Double(d);
    w.EndArray();
  });
  report.Metrics([&](JsonWriter& w) {
    w.Key("runs").BeginArray();
    for (const Row& r : rows) {
      w.BeginObject();
      w.Key("group_size").Int(r.group_size);
      w.Key("strategy").String(r.strategy);
      w.Key("delay_seconds").Double(r.delay_seconds);
      w.Key("total_seconds").Double(r.run.total_seconds);
      w.Key("maintenance_seconds").Double(r.maintenance_seconds);
      w.Key("rule_tasks_created").Uint(r.run.tasks_created);
      w.Key("firings_merged").Uint(r.run.firings_merged);
      w.EndObject();
    }
    w.EndArray();
    w.Key("summary").BeginObject();
    w.Key("largest_group_size").Int(big);
    w.Key("recompute_best_seconds").Double(recompute_best);
    w.Key("delta_seconds").Double(delta_alone);
    w.Key("delta_batched_best_seconds").Double(batched_best);
    w.Key("speedup_delta_vs_recompute").Double(speedup);
    w.Key("matched_window_speedup_min").Double(matched_speedup_min);
    w.Key("batched_fastest_every_window").Bool(batched_fastest);
    w.EndObject();
  });
  if (!report.WriteFile("BENCH_ivm.json")) {
    std::fprintf(stderr, "cannot write BENCH_ivm.json\n");
    return 1;
  }
  std::printf("wrote BENCH_ivm.json\n");
  return 0;
}

}  // namespace
}  // namespace strip::bench

int main(int argc, char** argv) {
  return strip::bench::Run(strip::bench::ParseArgs(argc, argv));
}
