#ifndef STRIP_FEED_FEED_H_
#define STRIP_FEED_FEED_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "strip/common/clock.h"
#include "strip/common/status.h"
#include "strip/engine/database.h"
#include "strip/obs/trace_context.h"

namespace strip {

/// The import/export system of Figure 15 ([AKGM96b]): alongside user
/// applications and the rule system, it is the third source of tasks in
/// STRIP. The importer turns an external update stream (e.g. a market
/// feed) into upsert transactions released at their feed timestamps; the
/// exporter streams a table's changes out to a consumer by installing a
/// rule whose action delivers batched bound tables to a callback.

/// One imported record: upsert into `table` keyed on its first schema
/// column. `at` is the release time on the database's clock.
struct FeedRecord {
  Timestamp at = 0;
  std::vector<Value> values;  // full row in schema order
  /// Causal context the record travels under. Untraced (all-zero) records
  /// get a fresh root context at Submit — the single-engine feed path.
  /// A traced record keeps its context, so a record forwarded between
  /// cluster shards (or a shard delta shipped to the merge engine)
  /// continues the trace that began at the original ingestion point.
  TraceContext trace{};
};

/// Imports an external stream into one table as keyed upserts: if a row
/// with the same key exists it is updated (firing `updated` rules),
/// otherwise inserted (firing `inserted` rules). Each record runs as its
/// own transaction inside its own task, exactly like STRIP's feed handler.
class FeedImporter {
 public:
  /// The key column is the table's first column, which must be indexed
  /// (feeds are keyed streams; the paper's stocks table is keyed by
  /// symbol).
  static Result<std::unique_ptr<FeedImporter>> Create(
      Database* db, const std::string& table);

  /// Checks `rec` against the table schema: arity plus per-column value
  /// type (null anywhere, exact match, or int into a double column — the
  /// same rules Table::ValidateRecord enforces at insert). The server runs
  /// this over a whole batch BEFORE the first WAL append: a record that
  /// cannot ever apply must be refused at the wire, because once it is
  /// durably logged every future recovery replays the same failure and the
  /// server can never boot again.
  Status Validate(const FeedRecord& rec) const;

  /// Submits one record as a task released at `rec.at`.
  Status Submit(FeedRecord rec);

  /// Applies one record synchronously in the caller's thread: the upsert
  /// runs (and commits, firing rules) before this returns; only the
  /// triggered action tasks stay asynchronous. The network server uses
  /// this instead of Submit so that per-key apply order equals WAL append
  /// order — the property that makes crash-recovery replay land on the
  /// byte-identical final state (DESIGN.md §2.6).
  Status ApplyNow(const FeedRecord& rec);

  /// Submits a whole pre-loaded stream (the paper loads its trace into
  /// memory before the experiment, §4.1). Pre-reserves table capacity for
  /// the stream so the burst does not rehash the row directory mid-flight.
  Status SubmitAll(const std::vector<FeedRecord>& stream);

  uint64_t records_submitted() const { return submitted_.load(); }
  uint64_t records_applied() const { return applied_.load(); }
  uint64_t records_failed() const { return failed_.load(); }

 private:
  FeedImporter(Database* db, Table* table, PreparedStatementPtr update,
               PreparedStatementPtr insert);

  /// Applies one record inside its own transaction. When run from a
  /// submitted task, `tcb` carries the record's root trace context into
  /// the transaction (and receives its lock waits).
  Status Apply(const FeedRecord& rec, TaskControlBlock* tcb);

  /// Best-effort capacity reservation for `incoming` upserts, under a
  /// short whole-table exclusive lock.
  void ReserveForBurst(size_t incoming);

  Database* db_;
  Table* table_;
  PreparedStatementPtr update_;  // update t set c2=?, ... where key=?
  PreparedStatementPtr insert_;  // insert into t values (?, ?, ...)
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> failed_{0};
};

/// A batch of exported changes: materialized rows of the export rule's
/// bound table (the table's columns plus execute_order).
struct ExportBatch {
  Timestamp delivered_at = 0;
  std::vector<std::vector<Value>> inserted;
  std::vector<std::vector<Value>> updated_new;  // new images of updates
  std::vector<std::vector<Value>> deleted;
};

using ExportSink = std::function<void(const ExportBatch&)>;

/// Streams a table's changes to `sink` by installing a rule on the table.
/// Batching is the rule system's: with `delay_seconds > 0` the export rule
/// runs as a unique transaction collecting everything that happened in the
/// window into one batch — export consumers get the same batching lever
/// applications do.
class TableExporter {
 public:
  /// Installs rule `export_<table>` executing function `export_<table>_fn`.
  /// Fails if either name is taken.
  static Result<std::unique_ptr<TableExporter>> Create(
      Database* db, const std::string& table, double delay_seconds,
      ExportSink sink);

  ~TableExporter();

  uint64_t batches_delivered() const { return batches_->load(); }

 private:
  TableExporter(Database* db, std::string rule_name,
                std::shared_ptr<std::atomic<uint64_t>> batches)
      : db_(db), rule_name_(std::move(rule_name)),
        batches_(std::move(batches)) {}

  Database* db_;
  std::string rule_name_;
  std::shared_ptr<std::atomic<uint64_t>> batches_;
};

}  // namespace strip

#endif  // STRIP_FEED_FEED_H_
