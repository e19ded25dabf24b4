#include "strip/feed/feed.h"

#include "strip/common/string_util.h"

namespace strip {

// ---------------------------------------------------------------------------
// FeedImporter
// ---------------------------------------------------------------------------

Result<std::unique_ptr<FeedImporter>> FeedImporter::Create(
    Database* db, const std::string& table_name) {
  STRIP_ASSIGN_OR_RETURN(Table * table, db->catalog().GetTable(table_name));
  const Schema& schema = table->schema();
  if (schema.num_columns() < 2) {
    return Status::InvalidArgument(
        "feed tables need a key column plus at least one value column");
  }
  if (table->FindIndexByPosition(0) == nullptr) {
    return Status::FailedPrecondition(StrFormat(
        "feed table '%s' must be indexed on its key column '%s'",
        table->name().c_str(), schema.column(0).name.c_str()));
  }

  // update t set c1 = ?, ..., cn = ? where key = ?
  std::string update_sql = "update " + table->name() + " set ";
  for (int c = 1; c < schema.num_columns(); ++c) {
    if (c > 1) update_sql += ", ";
    update_sql += schema.column(c).name + " = ?";
  }
  update_sql += " where " + schema.column(0).name + " = ?";
  STRIP_ASSIGN_OR_RETURN(PreparedStatementPtr update, db->Prepare(update_sql));

  std::string insert_sql = "insert into " + table->name() + " values (";
  for (int c = 0; c < schema.num_columns(); ++c) {
    insert_sql += c > 0 ? ", ?" : "?";
  }
  insert_sql += ")";
  STRIP_ASSIGN_OR_RETURN(PreparedStatementPtr insert, db->Prepare(insert_sql));

  return std::unique_ptr<FeedImporter>(
      new FeedImporter(db, table, std::move(update), std::move(insert)));
}

FeedImporter::FeedImporter(Database* db, Table* table,
                           PreparedStatementPtr update,
                           PreparedStatementPtr insert)
    : db_(db),
      table_(table),
      update_(std::move(update)),
      insert_(std::move(insert)) {}

Status FeedImporter::Apply(const FeedRecord& rec, TaskControlBlock* tcb) {
  // Feed upserts restart on wait-die aborts (Database::RunWithRestarts).
  // The feed is at-least-once: a record dropped on an abort is simply
  // lost — harmless for an idempotent market quote, but fatal for a
  // cluster delta shipment, where a lost record desyncs the merged view
  // from its shards for good.
  std::vector<Value> update_params(rec.values.begin() + 1, rec.values.end());
  update_params.push_back(rec.values[0]);
  Status st = db_->RunWithRestarts([&](Transaction& txn) -> Status {
    if (tcb != nullptr) {
      // The record's root context, stamped in Submit: the feed upsert is
      // the first span of everything this record causes downstream.
      txn.set_trace(ChildOf(tcb->trace));
      txn.set_lock_wait_sink(&tcb->lock_wait_micros);
    }
    // Upsert: try the keyed update, insert on miss.
    STRIP_ASSIGN_OR_RETURN(int n, update_->ExecuteDml(&txn, update_params));
    if (n == 0) {
      STRIP_ASSIGN_OR_RETURN(n, insert_->ExecuteDml(&txn, rec.values));
    }
    if (n != 1) {
      return Status::Internal(StrFormat("feed upsert touched %d rows in '%s'",
                                        n, table_->name().c_str()));
    }
    return Status::OK();
  });
  (st.ok() ? applied_ : failed_).fetch_add(1, std::memory_order_relaxed);
  return st;
}

Status FeedImporter::Validate(const FeedRecord& rec) const {
  const Schema& schema = table_->schema();
  if (static_cast<int>(rec.values.size()) != schema.num_columns()) {
    return Status::InvalidArgument(StrFormat(
        "feed record arity %zu does not match table '%s'",
        rec.values.size(), table_->name().c_str()));
  }
  for (int i = 0; i < schema.num_columns(); ++i) {
    const Value& v = rec.values[static_cast<size_t>(i)];
    if (v.is_null()) continue;
    ValueType want = schema.column(i).type;
    if (v.type() == want) continue;
    if (want == ValueType::kDouble && v.type() == ValueType::kInt) continue;
    return Status::InvalidArgument(StrFormat(
        "feed record for table '%s' column '%s': expected %s, got %s",
        table_->name().c_str(), schema.column(i).name.c_str(),
        ValueTypeName(want), ValueTypeName(v.type())));
  }
  return Status::OK();
}

Status FeedImporter::ApplyNow(const FeedRecord& rec) {
  STRIP_RETURN_IF_ERROR(Validate(rec));
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return Apply(rec, nullptr);
}

Status FeedImporter::Submit(FeedRecord rec) {
  STRIP_RETURN_IF_ERROR(Validate(rec));
  TaskPtr task = db_->NewTask();
  task->release_time = rec.at;
  // Every feed record starts its own causal trace: spans of the upsert
  // transaction, any rules it fires, and their view commits all chain back
  // to this root (ISSUE: trace stamped at feed ingestion). Records that
  // already carry a context — routed across cluster shards — keep it, so
  // the trace spans router -> shard firing -> merge commit.
  task->trace = rec.trace.traced() ? rec.trace : NewTraceContext();
  task->work = [this, rec = std::move(rec)](TaskControlBlock& tcb) {
    return Apply(rec, &tcb);
  };
  db_->Submit(std::move(task));
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FeedImporter::SubmitAll(const std::vector<FeedRecord>& stream) {
  ReserveForBurst(stream.size());
  for (const FeedRecord& rec : stream) {
    STRIP_RETURN_IF_ERROR(Submit(rec));
  }
  return Status::OK();
}

void FeedImporter::ReserveForBurst(size_t incoming) {
  if (incoming == 0) return;
  // Pre-size the table's arena page directory and row-id map for the
  // worst case (every record a fresh insert) so a market-open burst does
  // not rehash the directory mid-stream. Capacity changes race with
  // concurrent readers, so take the table exclusively for the moment it
  // takes; best-effort — on a wait-die abort the burst just pays the
  // rehashes like it used to.
  auto txn = db_->Begin();
  if (!txn.ok()) return;
  Status locked = db_->locks().Acquire(*txn, LockKey::WholeTable(table_),
                                       LockMode::kExclusive);
  if (locked.ok()) {
    table_->Reserve(table_->size() + incoming);
  }
  Status ignored = db_->Abort(*txn);  // release the lock; nothing logged
  (void)ignored;
}

// ---------------------------------------------------------------------------
// TableExporter
// ---------------------------------------------------------------------------

Result<std::unique_ptr<TableExporter>> TableExporter::Create(
    Database* db, const std::string& table_name, double delay_seconds,
    ExportSink sink) {
  STRIP_ASSIGN_OR_RETURN(Table * table, db->catalog().GetTable(table_name));
  std::string rule_name = "export_" + table->name();
  std::string fn_name = rule_name + "_fn";
  auto batches = std::make_shared<std::atomic<uint64_t>>(0);

  // The action materializes its three bound tables into an ExportBatch.
  STRIP_RETURN_IF_ERROR(db->RegisterFunction(
      fn_name,
      [db, sink = std::move(sink), batches](FunctionContext& ctx) -> Status {
        ExportBatch batch;
        batch.delivered_at = db->Now();
        auto fill = [&](const char* name,
                        std::vector<std::vector<Value>>& out) -> Status {
          const TempTable* t = ctx.BoundTable(name);
          if (t == nullptr) {
            return Status::Internal("export bound table missing");
          }
          for (size_t i = 0; i < t->size(); ++i) {
            out.push_back(t->MaterializeRow(i));
          }
          return Status::OK();
        };
        STRIP_RETURN_IF_ERROR(fill("_export_ins", batch.inserted));
        STRIP_RETURN_IF_ERROR(fill("_export_upd", batch.updated_new));
        STRIP_RETURN_IF_ERROR(fill("_export_del", batch.deleted));
        batches->fetch_add(1, std::memory_order_relaxed);
        sink(batch);
        return Status::OK();
      }));

  // Rule: any change to the table binds all three transition views. The
  // evaluate clause is used so an empty kind (e.g. no deletes) does not
  // make the condition false.
  CreateRuleStmt rule;
  rule.rule_name = rule_name;
  rule.table = table->name();
  rule.events = {RuleEvent{RuleEventKind::kInserted, {}},
                 RuleEvent{RuleEventKind::kDeleted, {}},
                 RuleEvent{RuleEventKind::kUpdated, {}}};
  auto star_query = [&](const char* from, const char* bind) {
    RuleQuery rq;
    rq.query.star = true;
    rq.query.from.push_back(TableRef{from, ""});
    rq.bind_as = bind;
    return rq;
  };
  rule.evaluate.push_back(star_query("inserted", "_export_ins"));
  rule.evaluate.push_back(star_query("new", "_export_upd"));
  rule.evaluate.push_back(star_query("deleted", "_export_del"));
  rule.function_name = fn_name;
  rule.unique = true;  // batch everything in the window into one delivery
  rule.delay_seconds = delay_seconds;
  STRIP_RETURN_IF_ERROR(db->rules().CreateRule(std::move(rule)));

  return std::unique_ptr<TableExporter>(
      new TableExporter(db, std::move(rule_name), std::move(batches)));
}

TableExporter::~TableExporter() {
  // Stop exporting; the function registration stays (cheap, inert).
  Status ignored = db_->rules().DropRule(rule_name_);
  (void)ignored;
}

}  // namespace strip
