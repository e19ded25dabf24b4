// Ablation for the §6.3 unique-transaction machinery: the cost of the
// Appendix A partitioning step and of folding a firing into the
// per-function hash table (merge vs create), as a function of the number
// of distinct unique keys — the knob behind the paper's "critical region"
// discussion (§5.1).

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "strip/rules/unique_manager.h"

namespace strip {
namespace {

TempTable MakeBoundTable(int rows, int distinct_keys) {
  Schema s;
  s.AddColumn("comp", ValueType::kString);
  s.AddColumn("delta", ValueType::kDouble);
  TempTable t = TempTable::Materialized("m", std::move(s));
  for (int i = 0; i < rows; ++i) {
    t.Append(TempTuple{
        {},
        {Value::Str("c" + std::to_string(i % distinct_keys)),
         Value::Double(i)}});
  }
  return t;
}

BoundTableSet OneTableSet(TempTable t) {
  BoundTableSet set;
  if (!set.Add(std::move(t)).ok()) std::abort();
  return set;
}

UniqueTxnManager::TaskFactory CountingFactory(uint64_t& ids) {
  return [&ids](const std::vector<Value>&, BoundTableSet&& tables) {
    auto task = std::make_shared<TaskControlBlock>(ids++);
    task->function_name = "fn";
    task->bound_tables = std::move(tables);
    return task;
  };
}

/// What the rule engine resolves once per plan generation: the home of
/// the `comp` unique column and the bound tables' layout id.
struct UniquePath {
  std::vector<UniqueColumnHome> homes;
  uint64_t layout = 0;
};

UniquePath ResolvePath(const BoundTableSet& shape) {
  std::vector<const Schema*> schemas;
  for (const TempTable& t : shape.tables()) schemas.push_back(&t.schema());
  auto homes = ResolveUniqueColumns(schemas, {"comp"});
  if (!homes.ok()) std::abort();
  return UniquePath{homes.take(), BoundLayoutId(shape)};
}

/// One firing down the rule engine's unique path: partition on `comp`,
/// check against the queued tasks, merge or create. Returns keys merged.
size_t Fire(UniqueTxnManager& mgr, UniqueTxnManager::FunctionQueue* queue,
            const UniquePath& path, BoundTableSet&& set,
            const UniqueTxnManager::TaskFactory& factory,
            std::vector<TaskPtr>& created) {
  UniquePartition parts = PartitionByUniqueColumns(set, path.homes);
  if (!mgr.CheckMergeable(queue, path.layout, parts).ok()) std::abort();
  return mgr.MergeFiring(queue, path.layout, std::move(set), parts, 0, 0,
                         factory, created);
}

/// Partitioning cost per firing: rows spread over K distinct keys.
void BM_PartitionByUniqueColumns(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  int keys = static_cast<int>(state.range(1));
  BoundTableSet set = OneTableSet(MakeBoundTable(rows, keys));
  const UniquePath path = ResolvePath(set);
  for (auto _ : state) {
    UniquePartition parts = PartitionByUniqueColumns(set, path.homes);
    benchmark::DoNotOptimize(parts.num_keys);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_PartitionByUniqueColumns)
    ->Args({12, 1})
    ->Args({12, 12})
    ->Args({400, 400})
    ->Args({4096, 64});

/// Steady-state merge of a one-row firing into an already-queued task
/// (the common case during a burst).
void BM_MergeIntoQueuedTask(benchmark::State& state) {
  UniqueTxnManager mgr;
  UniqueTxnManager::FunctionQueue* queue = mgr.EnsureFunction("fn");
  uint64_t ids = 1;
  auto factory = CountingFactory(ids);
  std::vector<TaskPtr> created;
  const UniquePath path = ResolvePath(OneTableSet(MakeBoundTable(1, 1)));
  Fire(mgr, queue, path, OneTableSet(MakeBoundTable(1, 1)), factory,
       created);
  for (auto _ : state) {
    size_t merged = Fire(mgr, queue, path, OneTableSet(MakeBoundTable(1, 1)),
                         factory, created);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MergeIntoQueuedTask);

/// Create-new-task path: every firing hits a different key (the
/// unmanageable unique-on-option_symbol regime of §5.2).
void BM_CreatePerDistinctKey(benchmark::State& state) {
  UniqueTxnManager mgr;
  UniqueTxnManager::FunctionQueue* queue = mgr.EnsureFunction("fn");
  uint64_t ids = 1;
  auto factory = CountingFactory(ids);
  std::vector<TaskPtr> created;
  const UniquePath path = ResolvePath(OneTableSet(MakeBoundTable(1, 1)));
  int64_t i = 0;
  for (auto _ : state) {
    Schema s;
    s.AddColumn("comp", ValueType::kString);
    TempTable t = TempTable::Materialized("m", std::move(s));
    t.Append(TempTuple{{}, {Value::Str("k" + std::to_string(i++))}});
    created.clear();
    Fire(mgr, queue, path, OneTableSet(std::move(t)), factory, created);
    benchmark::DoNotOptimize(created.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CreatePerDistinctKey);

/// The PTA `unique on comp` shape: one firing of 12 rows, one per
/// composite the updated stock belongs to, laid out like the comp rule's
/// `matches` (comp, symbol and weight read through a comps_list record,
/// old and new price materialized), merging into 12 queued tasks.
void BM_PtaFiringMergesTwelveKeys(benchmark::State& state) {
  constexpr int kKeys = 12;
  constexpr int kPool = 256;  // firings per refill; queued tasks retire then
  Schema schema;
  schema.AddColumn("comp", ValueType::kString);
  schema.AddColumn("symbol", ValueType::kString);
  schema.AddColumn("weight", ValueType::kDouble);
  schema.AddColumn("old_price", ValueType::kDouble);
  schema.AddColumn("new_price", ValueType::kDouble);
  const std::vector<TempColumnMap> layout = {
      {0, 0},
      {0, 1},
      {0, 2},
      {TempColumnMap::kMaterializedSlot, 0},
      {TempColumnMap::kMaterializedSlot, 1}};
  std::vector<RecordRef> comps_list;
  for (int k = 0; k < kKeys; ++k) {
    comps_list.push_back(MakeRecord({Value::Str("comp" + std::to_string(k)),
                                     Value::Str("SYM"), Value::Double(0.5)}));
  }
  auto make_firing = [&] {
    TempTable matches("matches", schema, layout, /*num_slots=*/1,
                      /*num_extra=*/2);
    for (int k = 0; k < kKeys; ++k) {
      matches.Append(
          TempTuple{{comps_list[k]}, {Value::Double(10), Value::Double(11)}});
    }
    return OneTableSet(std::move(matches));
  };

  UniqueTxnManager mgr;
  UniqueTxnManager::FunctionQueue* queue = mgr.EnsureFunction("fn");
  uint64_t ids = 1;
  auto factory = CountingFactory(ids);
  const UniquePath path = ResolvePath(make_firing());
  std::vector<TaskPtr> queued;
  std::vector<BoundTableSet> pool;
  auto refill = [&] {
    for (const TaskPtr& t : queued) {
      t->TryStart();
      mgr.OnTaskStart(*t);
    }
    queued.clear();
    Fire(mgr, queue, path, make_firing(), factory, queued);  // 12 queued
    pool.clear();
    for (int i = 0; i < kPool; ++i) pool.push_back(make_firing());
  };
  refill();
  std::vector<TaskPtr> created;
  size_t next = 0;
  for (auto _ : state) {
    if (next == pool.size()) {
      state.PauseTiming();
      refill();
      next = 0;
      state.ResumeTiming();
    }
    size_t merged =
        Fire(mgr, queue, path, std::move(pool[next++]), factory, created);
    if (merged != kKeys) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_PtaFiringMergesTwelveKeys);

}  // namespace
}  // namespace strip

BENCHMARK_MAIN();
