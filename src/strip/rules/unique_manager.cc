#include "strip/rules/unique_manager.h"

#include <algorithm>

#include "strip/common/string_util.h"

namespace strip {

Result<std::vector<std::pair<std::vector<Value>, BoundTableSet>>>
PartitionByUniqueColumns(BoundTableSet&& tables,
                         const std::vector<std::string>& unique_columns) {
  std::vector<std::pair<std::vector<Value>, BoundTableSet>> out;
  if (unique_columns.empty()) {
    out.emplace_back(std::vector<Value>{}, std::move(tables));
    return out;
  }

  // Locate each unique column: (table index, column index). Appendix A
  // assumes column names are unique across the rule's bound tables.
  struct ColumnHome {
    int table = -1;
    int column = -1;
  };
  std::vector<ColumnHome> homes(unique_columns.size());
  for (size_t u = 0; u < unique_columns.size(); ++u) {
    for (size_t t = 0; t < tables.tables().size(); ++t) {
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

  // T^u = tables holding at least one unique column.
  std::vector<bool> is_unique_table(tables.tables().size(), false);
  for (const ColumnHome& h : homes) {
    is_unique_table[static_cast<size_t>(h.table)] = true;
  }

  // Partition each T^u table by its own unique columns; the global key is
  // the concatenation in unique_columns order, and the key set is the
  // cross product of the per-table key sets (equivalent to projecting the
  // product relation B of Appendix A).
  struct TablePartitions {
    // distinct per-table keys, each with the tuple indexes carrying it
    std::vector<std::vector<Value>> keys;
    std::vector<std::vector<size_t>> tuple_indexes;
  };
  std::vector<TablePartitions> parts(tables.tables().size());
  for (size_t t = 0; t < tables.tables().size(); ++t) {
    if (!is_unique_table[t]) continue;
    const TempTable& table = tables.tables()[t];
    std::unordered_map<std::vector<Value>, size_t, ValueVectorHash,
                       ValueVectorEq>
        index_of;
    for (size_t row = 0; row < table.size(); ++row) {
      std::vector<Value> key;
      for (size_t u = 0; u < homes.size(); ++u) {
        if (homes[u].table != static_cast<int>(t)) continue;
        key.push_back(table.Get(row, homes[u].column));
      }
      auto [it, inserted] = index_of.try_emplace(key, parts[t].keys.size());
      if (inserted) {
        parts[t].keys.push_back(key);
        parts[t].tuple_indexes.emplace_back();
      }
      parts[t].tuple_indexes[it->second].push_back(row);
    }
  }

  // Enumerate the cross product of per-table key sets.
  std::vector<size_t> unique_tables;
  for (size_t t = 0; t < tables.tables().size(); ++t) {
    if (is_unique_table[t]) unique_tables.push_back(t);
  }
  // If any T^u table is empty there are no key combinations, hence no
  // triggered transactions.
  for (size_t t : unique_tables) {
    if (parts[t].keys.empty()) return out;
  }

  std::vector<size_t> choice(unique_tables.size(), 0);
  for (;;) {
    // Assemble the global key in unique_columns order.
    std::vector<Value> key(homes.size());
    for (size_t u = 0; u < homes.size(); ++u) {
      size_t t = static_cast<size_t>(homes[u].table);
      size_t which = 0;
      for (size_t i = 0; i < unique_tables.size(); ++i) {
        if (unique_tables[i] == t) which = i;
      }
      // Position of column u within table t's per-table key vector:
      // per-table keys were built in unique_columns order restricted to t.
      size_t pos = 0;
      for (size_t v = 0; v < u; ++v) {
        if (homes[v].table == homes[u].table) ++pos;
      }
      key[u] = parts[t].keys[choice[which]][pos];
    }

    // Build this partition's bound tables.
    BoundTableSet partition;
    for (size_t t = 0; t < tables.tables().size(); ++t) {
      const TempTable& src = tables.tables()[t];
      TempTable dst(src.name(), src.schema(), src.column_map(),
                    src.num_slots(), src.num_extra());
      if (is_unique_table[t]) {
        size_t which = 0;
        for (size_t i = 0; i < unique_tables.size(); ++i) {
          if (unique_tables[i] == t) which = i;
        }
        for (size_t row : parts[t].tuple_indexes[choice[which]]) {
          dst.Append(src.tuples()[row]);
        }
      } else {
        // Tables without unique columns are passed whole (Appendix A).
        for (const TempTuple& tup : src.tuples()) dst.Append(tup);
      }
      STRIP_RETURN_IF_ERROR(partition.Add(std::move(dst)));
    }
    out.emplace_back(std::move(key), std::move(partition));

    // Advance the cross-product counter.
    size_t i = 0;
    for (; i < unique_tables.size(); ++i) {
      if (++choice[i] < parts[unique_tables[i]].keys.size()) break;
      choice[i] = 0;
    }
    if (i == unique_tables.size()) break;
  }
  return out;
}

size_t UniqueTxnManager::StripeOf(const std::string& function_name) {
  return std::hash<std::string>()(function_name) % kNumStripes;
}

UniqueTxnManager::FuncTable* UniqueTxnManager::GetOrCreate(
    const std::string& function_name) {
  Stripe& stripe = stripes_[StripeOf(function_name)];
  SpinLockGuard g(stripe.lock);
  return &stripe.tables.try_emplace(function_name).first->second;
}

UniqueTxnManager::FuncTable* UniqueTxnManager::Find(
    const std::string& function_name) {
  return const_cast<FuncTable*>(
      static_cast<const UniqueTxnManager*>(this)->Find(function_name));
}

const UniqueTxnManager::FuncTable* UniqueTxnManager::Find(
    const std::string& function_name) const {
  const Stripe& stripe = stripes_[StripeOf(function_name)];
  SpinLockGuard g(stripe.lock);
  auto it = stripe.tables.find(function_name);
  return it == stripe.tables.end() ? nullptr : &it->second;
}

void UniqueTxnManager::EnsureFunction(const std::string& function_name) {
  GetOrCreate(ToLower(function_name));
}

Result<TaskPtr> UniqueTxnManager::MergeOrCreate(
    const std::string& function_name, const std::vector<Value>& key,
    BoundTableSet&& tables, Timestamp change_time,
    uint64_t parent_trace_id, const TaskFactory& factory) {
  FuncTable* ft = GetOrCreate(function_name);
  SpinLockGuard g(ft->lock);
  auto it = ft->queued.find(key);
  if (it != ft->queued.end()) {
    TaskPtr queued = it->second;
    SpinLockGuard tg(queued->merge_lock);
    if (!queued->started) {
      STRIP_RETURN_IF_ERROR(
          queued->bound_tables.MergeFrom(std::move(tables)));
      if (queued->oldest_change_time < 0 ||
          change_time < queued->oldest_change_time) {
        queued->oldest_change_time = change_time;
      }
      if (change_time > queued->newest_change_time) {
        queued->newest_change_time = change_time;
      }
      ++queued->batched_firings;
      if (parent_trace_id != 0) {
        queued->merged_parent_traces.push_back(parent_trace_id);
      }
      return TaskPtr(nullptr);  // merged; nothing to submit
    }
    // The queued task began running: its bound tables are fixed (§2).
    // Fall through to replace the entry with a fresh task.
  }
  TaskPtr fresh = factory(key, std::move(tables));
  fresh->is_unique = true;
  fresh->unique_key = key;
  ft->queued[key] = fresh;
  return fresh;
}

void UniqueTxnManager::OnTaskStart(const TaskControlBlock& task) {
  if (!task.is_unique) return;
  // A unique task always has its function table (created by MergeOrCreate
  // or EnsureFunction); look it up without mutating the directory so the
  // task-start release path stays read-only on the stripe.
  FuncTable* ft = Find(task.function_name);
  if (ft == nullptr) return;
  SpinLockGuard g(ft->lock);
  auto it = ft->queued.find(task.unique_key);
  if (it != ft->queued.end() && it->second.get() == &task) {
    ft->queued.erase(it);
  }
}

size_t UniqueTxnManager::NumQueued(const std::string& function_name) const {
  const FuncTable* ft = Find(ToLower(function_name));
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
      // Stripe lock -> FuncTable lock is safe: no path takes them in the
      // reverse order (MergeOrCreate releases the stripe before locking
      // the function table, but never re-enters the stripe under it).
      SpinLockGuard fg(ft.lock);
      for (const auto& [key, task] : ft.queued) {
        out.emplace_back(name, task);
      }
    }
  }
  return out;
}

}  // namespace strip
