#include "strip/rules/unique_manager.h"

#include <algorithm>
#include <mutex>

#include "strip/common/logging.h"
#include "strip/common/string_util.h"

namespace strip {

Result<std::vector<UniqueColumnHome>> ResolveUniqueColumns(
    const std::vector<const Schema*>& schemas,
    const std::vector<std::string>& unique_columns) {
  std::vector<UniqueColumnHome> homes(unique_columns.size());
  for (size_t u = 0; u < unique_columns.size(); ++u) {
    for (size_t t = 0; t < schemas.size(); ++t) {
      int c = schemas[t]->FindColumn(unique_columns[u]);
      if (c < 0) continue;
      if (homes[u].table >= 0) {
        return Status::InvalidArgument(StrFormat(
            "unique column '%s' appears in more than one bound table",
            unique_columns[u].c_str()));
      }
      homes[u] = UniqueColumnHome{static_cast<int>(t), c};
    }
    if (homes[u].table < 0) {
      return Status::NotFound(StrFormat(
          "unique column '%s' appears in no bound table",
          unique_columns[u].c_str()));
    }
  }
  return homes;
}

uint64_t BoundLayoutId(const BoundTableSet& tables) {
  // The signature lists the tables by name, so sets whose tables appear
  // in another order still match (the merge finds targets by name).
  std::vector<std::string> parts;
  for (const TempTable& t : tables.tables()) {
    std::string p = t.name();
    p += StrFormat("\x1f%d\x1f%d", t.num_slots(), t.num_extra());
    for (int c = 0; c < t.schema().num_columns(); ++c) {
      const Column& col = t.schema().column(c);
      const TempColumnMap& m = t.column_map()[static_cast<size_t>(c)];
      p += StrFormat("\x1f%s:%d:%d:%d", col.name.c_str(),
                     static_cast<int>(col.type), m.slot, m.offset);
    }
    parts.push_back(std::move(p));
  }
  std::sort(parts.begin(), parts.end());
  std::string signature;
  for (const std::string& p : parts) {
    signature += p;
    signature += '\x1e';
  }
  static std::mutex mu;
  static std::unordered_map<std::string, uint64_t> ids;
  std::lock_guard<std::mutex> lk(mu);
  return ids.try_emplace(std::move(signature), ids.size() + 1).first->second;
}

size_t KeySpanHash::operator()(std::span<const Value> key) const {
  size_t h = 0x517cc1b727220a95ull;
  for (const Value& v : key) h ^= v.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
  return h;
}

namespace {

/// Groups the rows of `table` by the values of its `key_columns` into
/// `out`. An open-addressing table maps a key's hash to its group; keys
/// are read in place from the rows and compared against each group's
/// first row. A counting pass then lays the groups out flat.
void GroupRows(const TempTable& table, const std::vector<int>& key_columns,
               UniquePartition::TableGroups& out) {
  const size_t n = table.size();
  auto hash = [&](size_t row) -> uint64_t {
    uint64_t h = 0x517cc1b727220a95ull;
    for (int c : key_columns) {
      h ^= table.Get(row, c).Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    return h * 0x9e3779b97f4a7c15ull;  // spread into the high bits
  };
  auto same_key = [&](size_t a, size_t b) {
    for (int c : key_columns) {
      if (table.Get(a, c) != table.Get(b, c)) return false;
    }
    return true;
  };
  int bits = 4;
  while ((size_t{1} << bits) < 2 * n) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  // Slot value: group index + 1; 0 is empty.
  std::vector<uint32_t> slots(mask + 1, 0);
  std::vector<uint32_t> first_row;    // per group
  std::vector<uint32_t> group_of(n);  // per row
  first_row.reserve(n);
  for (size_t row = 0; row < n; ++row) {
    for (size_t i = static_cast<size_t>(hash(row) >> (64 - bits));;
         i = (i + 1) & mask) {
      uint32_t g = slots[i];
      if (g == 0) {
        first_row.push_back(static_cast<uint32_t>(row));
        slots[i] = static_cast<uint32_t>(first_row.size());
        group_of[row] = slots[i] - 1;
        break;
      }
      if (same_key(first_row[g - 1], row)) {
        group_of[row] = g - 1;
        break;
      }
    }
  }
  out.begin.assign(first_row.size() + 1, 0);
  for (uint32_t g : group_of) ++out.begin[g + 1];
  for (size_t g = 1; g < out.begin.size(); ++g) {
    out.begin[g] += out.begin[g - 1];
  }
  out.rows.resize(n);
  std::vector<uint32_t> fill(out.begin.begin(), out.begin.end() - 1);
  for (size_t row = 0; row < n; ++row) {
    out.rows[fill[group_of[row]]++] = static_cast<uint32_t>(row);
  }
}

}  // namespace

UniquePartition PartitionByUniqueColumns(
    const BoundTableSet& tables, const std::vector<UniqueColumnHome>& homes) {
  const size_t num_tables = tables.tables().size();

  // Group each table's rows: T^u tables (holding unique columns) by the
  // values of their own unique columns; T^a tables into one group of
  // every row.
  UniquePartition out;
  out.tables.resize(num_tables);
  out.num_columns = homes.size();
  std::vector<int> key_columns;
  for (size_t t = 0; t < num_tables; ++t) {
    const TempTable& table = tables.tables()[t];
    UniquePartition::TableGroups& groups = out.tables[t];
    key_columns.clear();
    for (const UniqueColumnHome& h : homes) {
      if (h.table == static_cast<int>(t)) key_columns.push_back(h.column);
    }
    if (key_columns.empty()) {
      groups.rows.resize(table.size());
      for (size_t row = 0; row < table.size(); ++row) {
        groups.rows[row] = static_cast<uint32_t>(row);
      }
      groups.begin = {0, static_cast<uint32_t>(table.size())};
      continue;
    }
    GroupRows(table, key_columns, groups);
    // No key combinations when a T^u table is empty: no triggered
    // transactions.
    if (groups.num_groups() == 0) return out;
  }

  // Enumerate the cross product of the per-table groups.
  size_t num_keys = 1;
  for (const UniquePartition::TableGroups& g : out.tables) {
    num_keys *= g.num_groups();
  }
  out.num_keys = num_keys;
  out.key_values.reserve(num_keys * homes.size());
  out.key_groups.reserve(num_keys * num_tables);
  for (UniquePartition::TableGroups& g : out.tables) {
    g.last_key.assign(g.num_groups(), 0);
  }
  std::vector<uint32_t> choice(num_tables, 0);
  for (size_t k = 0; k < num_keys; ++k) {
    for (const UniqueColumnHome& h : homes) {
      // Every row of a group carries its key: read it off the first.
      const size_t t = static_cast<size_t>(h.table);
      const UniquePartition::TableGroups& g = out.tables[t];
      const uint32_t row = g.rows[g.begin[choice[t]]];
      out.key_values.push_back(tables.tables()[t].Get(row, h.column));
    }
    for (size_t t = 0; t < num_tables; ++t) {
      out.key_groups.push_back(choice[t]);
      out.tables[t].last_key[choice[t]] = static_cast<uint32_t>(k);
    }
    // Advance the cross-product counter (T^a tables have one group).
    for (size_t t = 0; t < num_tables; ++t) {
      if (++choice[t] < out.tables[t].num_groups()) break;
      choice[t] = 0;
    }
  }
  return out;
}

namespace {

/// The table of a queued task's bound set that receives the firing's
/// table `t`: the same name, at the same position when the rules sharing
/// the function list their bound tables in the same order.
TempTable* TargetOf(BoundTableSet& queued, size_t t, const TempTable& src) {
  std::vector<TempTable>& tables = queued.tables();
  if (t < tables.size() && tables[t].name() == src.name()) return &tables[t];
  return queued.FindMutable(src.name());
}

/// Appends key `k`'s rows of `src` (table `t` of the firing) to `dst`:
/// moved when `k` is the last key receiving them, copied otherwise.
void AppendRows(TempTable& dst, TempTable& src, const UniquePartition& parts,
                size_t k, size_t t) {
  const bool last = parts.IsLastKey(k, t);
  std::vector<TempTuple>& from = src.tuples();
  std::vector<TempTuple>& to = dst.tuples();
  for (uint32_t row : parts.Rows(k, t)) {
    if (last) {
      to.push_back(std::move(from[row]));
    } else {
      to.push_back(from[row]);
    }
  }
}

}  // namespace

size_t UniqueTxnManager::StripeOf(const std::string& function_name) {
  return std::hash<std::string>()(function_name) % kNumStripes;
}

UniqueTxnManager::FunctionQueue* UniqueTxnManager::Find(
    const std::string& function_name) {
  return const_cast<FunctionQueue*>(
      static_cast<const UniqueTxnManager*>(this)->Find(function_name));
}

const UniqueTxnManager::FunctionQueue* UniqueTxnManager::Find(
    const std::string& function_name) const {
  const Stripe& stripe = stripes_[StripeOf(function_name)];
  SpinLockGuard g(stripe.lock);
  auto it = stripe.tables.find(function_name);
  return it == stripe.tables.end() ? nullptr : &it->second;
}

UniqueTxnManager::FunctionQueue* UniqueTxnManager::EnsureFunction(
    const std::string& function_name) {
  std::string name = ToLower(function_name);
  Stripe& stripe = stripes_[StripeOf(name)];
  SpinLockGuard g(stripe.lock);
  return &stripe.tables.try_emplace(std::move(name)).first->second;
}

Status UniqueTxnManager::CheckMergeable(const FunctionQueue* queue,
                                        uint64_t layout,
                                        const UniquePartition& parts) const {
  SpinLockGuard g(queue->lock);
  for (size_t k = 0; k < parts.num_keys; ++k) {
    auto it = queue->queued.find(parts.Key(k));
    if (it == queue->queued.end() || it->second.layout == layout) continue;
    TaskControlBlock& queued = *it->second.task;
    SpinLockGuard tg(queued.merge_lock);
    if (!queued.started) {
      return Status::Internal(StrFormat(
          "bound-table merge layout mismatch for function '%s'",
          queued.function_name.c_str()));
    }
  }
  return Status::OK();
}

size_t UniqueTxnManager::MergeFiring(FunctionQueue* queue, uint64_t layout,
                                     BoundTableSet&& tables,
                                     const UniquePartition& parts,
                                     Timestamp change_time,
                                     uint64_t parent_trace_id,
                                     const TaskFactory& factory,
                                     std::vector<TaskPtr>& created) {
  size_t merged = 0;
  SpinLockGuard g(queue->lock);
  for (size_t k = 0; k < parts.num_keys; ++k) {
    auto it = queue->queued.find(parts.Key(k));
    if (it != queue->queued.end() && it->second.layout == layout) {
      TaskControlBlock& queued = *it->second.task;
      SpinLockGuard tg(queued.merge_lock);
      // A started task's bound tables are fixed (§2): replace its entry
      // with a fresh task below.
      if (!queued.started) {
        for (size_t t = 0; t < tables.size(); ++t) {
          TempTable& src = tables.tables()[t];
          AppendRows(*TargetOf(queued.bound_tables, t, src), src, parts, k,
                     t);
        }
        if (queued.oldest_change_time < 0 ||
            change_time < queued.oldest_change_time) {
          queued.oldest_change_time = change_time;
        }
        if (change_time > queued.newest_change_time) {
          queued.newest_change_time = change_time;
        }
        ++queued.batched_firings;
        if (parent_trace_id != 0) {
          queued.merged_parent_traces.push_back(parent_trace_id);
        }
        ++merged;
        continue;
      }
    }
    // A single key receives every row: hand it the firing's tables whole.
    BoundTableSet own;
    if (parts.num_keys == 1) {
      own = std::move(tables);
    } else {
      for (size_t t = 0; t < tables.size(); ++t) {
        TempTable& src = tables.tables()[t];
        TempTable dst(src.name(), src.schema(), src.column_map(),
                      src.num_slots(), src.num_extra());
        dst.Reserve(parts.Rows(k, t).size());
        AppendRows(dst, src, parts, k, t);
        Status st = own.Add(std::move(dst));
        STRIP_CHECK(st.ok());  // names were distinct in the firing
      }
    }
    std::vector<Value> key(parts.Key(k).begin(), parts.Key(k).end());
    TaskPtr fresh = factory(key, std::move(own));
    fresh->is_unique = true;
    fresh->unique_key = key;
    queue->queued.insert_or_assign(std::move(key),
                                   FunctionQueue::Entry{fresh, layout});
    created.push_back(std::move(fresh));
  }
  return merged;
}

void UniqueTxnManager::OnTaskStart(const TaskControlBlock& task) {
  if (!task.is_unique) return;
  // A unique task always has its function table (created by
  // EnsureFunction when its rule was defined); look it up without mutating
  // the directory so the task-start release path stays read-only on the
  // stripe.
  FunctionQueue* ft = Find(task.function_name);
  if (ft == nullptr) return;
  SpinLockGuard g(ft->lock);
  auto it = ft->queued.find(task.unique_key);
  if (it != ft->queued.end() && it->second.task.get() == &task) {
    ft->queued.erase(it);
  }
}

size_t UniqueTxnManager::NumQueued(const std::string& function_name) const {
  const FunctionQueue* ft = Find(ToLower(function_name));
  if (ft == nullptr) return 0;
  SpinLockGuard g(ft->lock);
  return ft->queued.size();
}

std::vector<std::pair<std::string, TaskPtr>>
UniqueTxnManager::SnapshotQueued() const {
  std::vector<std::pair<std::string, TaskPtr>> out;
  for (const Stripe& stripe : stripes_) {
    SpinLockGuard sg(stripe.lock);
    for (const auto& [name, ft] : stripe.tables) {
      // Stripe lock -> function-table lock is safe: no path takes them in
      // the reverse order (merges and task starts release the stripe
      // before locking the function table and never re-enter it).
      SpinLockGuard fg(ft.lock);
      for (const auto& [key, entry] : ft.queued) {
        out.emplace_back(name, entry.task);
      }
    }
  }
  return out;
}

}  // namespace strip
