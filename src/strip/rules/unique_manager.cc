#include "strip/rules/unique_manager.h"

#include <algorithm>

#include "strip/common/logging.h"
#include "strip/common/string_util.h"

namespace strip {

Result<UniquePartition> PartitionByUniqueColumns(
    const BoundTableSet& tables,
    const std::vector<std::string>& unique_columns) {
  const size_t num_tables = tables.tables().size();

  // Locate each unique column: (table index, column index). Appendix A
  // assumes column names are unique across the rule's bound tables.
  struct ColumnHome {
    int table = -1;
    int column = -1;
  };
  std::vector<ColumnHome> homes(unique_columns.size());
  for (size_t u = 0; u < unique_columns.size(); ++u) {
    for (size_t t = 0; t < num_tables; ++t) {
      int c = tables.tables()[t].schema().FindColumn(unique_columns[u]);
      if (c < 0) continue;
      if (homes[u].table >= 0) {
        return Status::InvalidArgument(StrFormat(
            "unique column '%s' appears in more than one bound table",
            unique_columns[u].c_str()));
      }
      homes[u] = ColumnHome{static_cast<int>(t), c};
    }
    if (homes[u].table < 0) {
      return Status::NotFound(StrFormat(
          "unique column '%s' appears in no bound table",
          unique_columns[u].c_str()));
    }
  }

  // Group each table's rows: T^u tables (holding unique columns) by the
  // values of their own unique columns; T^a tables into one group of
  // every row.
  UniquePartition out;
  out.groups.resize(num_tables);
  for (size_t t = 0; t < num_tables; ++t) {
    const TempTable& table = tables.tables()[t];
    std::vector<int> key_columns;
    for (const ColumnHome& h : homes) {
      if (h.table == static_cast<int>(t)) key_columns.push_back(h.column);
    }
    std::vector<std::vector<uint32_t>>& groups = out.groups[t];
    if (key_columns.empty()) {
      groups.emplace_back(table.size());
      for (size_t row = 0; row < table.size(); ++row) {
        groups[0][row] = static_cast<uint32_t>(row);
      }
      continue;
    }
    std::unordered_map<std::vector<Value>, size_t, ValueVectorHash,
                       ValueVectorEq>
        group_of;
    std::vector<Value> key;
    for (size_t row = 0; row < table.size(); ++row) {
      key.clear();
      for (int c : key_columns) key.push_back(table.Get(row, c));
      auto [it, inserted] = group_of.try_emplace(key, groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(static_cast<uint32_t>(row));
    }
    // No key combinations when a T^u table is empty: no triggered
    // transactions.
    if (groups.empty()) return out;
  }

  // Enumerate the cross product of the per-table groups.
  out.last_key.resize(num_tables);
  for (size_t t = 0; t < num_tables; ++t) {
    out.last_key[t].assign(out.groups[t].size(), 0);
  }
  std::vector<uint32_t> choice(num_tables, 0);
  for (;;) {
    UniquePartition::Key key;
    key.group = choice;
    key.values.resize(homes.size());
    for (size_t u = 0; u < homes.size(); ++u) {
      // Every row of a group carries its key: read it off the first.
      const size_t t = static_cast<size_t>(homes[u].table);
      const uint32_t row = out.groups[t][choice[t]][0];
      key.values[u] = tables.tables()[t].Get(row, homes[u].column);
    }
    for (size_t t = 0; t < num_tables; ++t) {
      out.last_key[t][choice[t]] = static_cast<uint32_t>(out.keys.size());
    }
    out.keys.push_back(std::move(key));

    // Advance the cross-product counter (T^a tables have one group).
    size_t t = 0;
    for (; t < num_tables; ++t) {
      if (++choice[t] < out.groups[t].size()) break;
      choice[t] = 0;
    }
    if (t == num_tables) break;
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

/// True when every table of `firing` can be appended to `queued` as is.
bool Mergeable(BoundTableSet& queued, const BoundTableSet& firing) {
  if (queued.size() != firing.size()) return false;
  for (size_t t = 0; t < firing.size(); ++t) {
    const TempTable& src = firing.tables()[t];
    const TempTable* dst = TargetOf(queued, t, src);
    if (dst == nullptr || !dst->SameLayout(src)) return false;
  }
  return true;
}

/// Appends key `k`'s rows of `src` (table `t` of the firing) to `dst`:
/// moved when `k` is the last key receiving them, copied otherwise.
void AppendRows(TempTable& dst, TempTable& src, const UniquePartition& parts,
                size_t k, size_t t) {
  const std::vector<uint32_t>& rows = parts.Rows(k, t);
  const bool last = parts.last_key[t][parts.keys[k].group[t]] == k;
  std::vector<TempTuple>& from = src.tuples();
  std::vector<TempTuple>& to = dst.tuples();
  for (uint32_t row : rows) {
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
                                        const BoundTableSet& tables,
                                        const UniquePartition& parts) const {
  SpinLockGuard g(queue->lock);
  for (const UniquePartition::Key& key : parts.keys) {
    auto it = queue->queued.find(key.values);
    if (it == queue->queued.end()) continue;
    TaskControlBlock& queued = *it->second;
    SpinLockGuard tg(queued.merge_lock);
    if (!queued.started && !Mergeable(queued.bound_tables, tables)) {
      return Status::Internal(StrFormat(
          "bound-table merge layout mismatch for function '%s'",
          queued.function_name.c_str()));
    }
  }
  return Status::OK();
}

size_t UniqueTxnManager::MergeFiring(FunctionQueue* queue,
                                     BoundTableSet&& tables,
                                     const UniquePartition& parts,
                                     Timestamp change_time,
                                     uint64_t parent_trace_id,
                                     const TaskFactory& factory,
                                     std::vector<TaskPtr>& created) {
  size_t merged = 0;
  SpinLockGuard g(queue->lock);
  for (size_t k = 0; k < parts.keys.size(); ++k) {
    const std::vector<Value>& key = parts.keys[k].values;
    auto it = queue->queued.find(key);
    if (it != queue->queued.end()) {
      TaskControlBlock& queued = *it->second;
      SpinLockGuard tg(queued.merge_lock);
      // A started task's bound tables are fixed (§2): replace its entry
      // with a fresh task below.
      if (!queued.started && Mergeable(queued.bound_tables, tables)) {
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
    if (parts.keys.size() == 1) {
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
    TaskPtr fresh = factory(key, std::move(own));
    fresh->is_unique = true;
    fresh->unique_key = key;
    queue->queued[key] = fresh;
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
  if (it != ft->queued.end() && it->second.get() == &task) {
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
      for (const auto& [key, task] : ft.queued) {
        out.emplace_back(name, task);
      }
    }
  }
  return out;
}

}  // namespace strip
