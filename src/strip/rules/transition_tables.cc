#include "strip/rules/transition_tables.h"

#include "strip/common/logging.h"

namespace strip {

Schema TransitionSchema(const Table& table) {
  Schema s = table.schema();
  s.AddColumn(kExecuteOrderColumn, ValueType::kInt);
  return s;
}

namespace {

/// A transition table layout: base columns pointer-backed through slot 0,
/// execute_order materialized.
TempTable MakeTransitionTable(const std::string& name, const Table& table) {
  Schema schema = TransitionSchema(table);
  std::vector<TempColumnMap> map;
  map.reserve(static_cast<size_t>(schema.num_columns()));
  for (int c = 0; c < table.schema().num_columns(); ++c) {
    map.push_back(TempColumnMap{0, c});
  }
  map.push_back(TempColumnMap{TempColumnMap::kMaterializedSlot, 0});
  return TempTable(name, std::move(schema), std::move(map), /*num_slots=*/1,
                   /*num_extra=*/1);
}

void AppendTransitionRow(TempTable& t, const RecordRef& rec,
                         int execute_order) {
  TempTuple tuple;
  tuple.slots.push_back(rec);
  tuple.extra.push_back(Value::Int(execute_order));
  t.Append(std::move(tuple));
}

}  // namespace

BoundTableSet BuildTransitionTables(const Table& table, const TxnLog& log) {
  TempTable inserted = MakeTransitionTable(kTransitionTableNames[0], table);
  TempTable deleted = MakeTransitionTable(kTransitionTableNames[1], table);
  TempTable old_t = MakeTransitionTable(kTransitionTableNames[2], table);
  TempTable new_t = MakeTransitionTable(kTransitionTableNames[3], table);

  // Size the tables up front: big batched transactions (a delay window's
  // worth of merged changes) would otherwise regrow each vector log(n)
  // times.
  size_t n_ins = 0, n_del = 0, n_upd = 0;
  for (const LogEntry& e : log.entries()) {
    if (e.table != &table) continue;
    switch (e.op) {
      case LogOp::kInsert: ++n_ins; break;
      case LogOp::kDelete: ++n_del; break;
      case LogOp::kUpdate: ++n_upd; break;
    }
  }
  inserted.Reserve(n_ins);
  deleted.Reserve(n_del);
  old_t.Reserve(n_upd);
  new_t.Reserve(n_upd);

  for (const LogEntry& e : log.entries()) {
    if (e.table != &table) continue;
    switch (e.op) {
      case LogOp::kInsert:
        AppendTransitionRow(inserted, e.new_rec, e.execute_order);
        break;
      case LogOp::kDelete:
        AppendTransitionRow(deleted, e.old_rec, e.execute_order);
        break;
      case LogOp::kUpdate:
        // Old and new images of one update share their execute_order (§2).
        AppendTransitionRow(old_t, e.old_rec, e.execute_order);
        AppendTransitionRow(new_t, e.new_rec, e.execute_order);
        break;
    }
  }

  BoundTableSet out;
  Status st = out.Add(std::move(inserted));
  STRIP_CHECK(st.ok());
  st = out.Add(std::move(deleted));
  STRIP_CHECK(st.ok());
  st = out.Add(std::move(old_t));
  STRIP_CHECK(st.ok());
  st = out.Add(std::move(new_t));
  STRIP_CHECK(st.ok());
  return out;
}

}  // namespace strip
