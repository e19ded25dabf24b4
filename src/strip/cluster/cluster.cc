#include "strip/cluster/cluster.h"

#include <utility>

#include "strip/common/string_util.h"
#include "strip/feed/wire.h"
#include "strip/obs/json.h"
#include "strip/rules/net_effect.h"
#include "strip/storage/table.h"

namespace strip {

namespace {

/// Drives one engine to quiescence in whichever mode it runs.
void DrainEngine(Database& db) {
  if (db.threaded() != nullptr) {
    db.threaded()->Drain();
  } else {
    db.simulated()->RunUntilQuiescent();
  }
}

bool EngineHasPending(Database& db) {
  if (db.simulated() != nullptr) {
    return db.simulated()->num_ready() + db.simulated()->num_delayed() > 0;
  }
  return false;  // threaded Drain() already blocked until empty
}

}  // namespace

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Database>(options_.shard));
  }
  merge_ = std::make_unique<Database>(options_.merge);
}

Cluster::~Cluster() = default;

Status Cluster::ExecuteOnShards(const std::string& sql) {
  for (auto& shard : shards_) {
    STRIP_RETURN_IF_ERROR(shard->ExecuteScript(sql));
  }
  return Status::OK();
}

Status Cluster::ExecuteEverywhere(const std::string& sql) {
  STRIP_RETURN_IF_ERROR(ExecuteOnShards(sql));
  return merge_->ExecuteScript(sql);
}

Result<FeedRouter*> Cluster::OpenFeed(const std::string& table) {
  if (feeds_.count(table) != 0) {
    return Status::AlreadyExists(
        StrFormat("feed on '%s' already open", table.c_str()));
  }
  Feed feed;
  std::vector<FeedRouter::Inbox> inboxes;
  for (auto& shard : shards_) {
    STRIP_ASSIGN_OR_RETURN(std::unique_ptr<FeedImporter> importer,
                           FeedImporter::Create(shard.get(), table));
    FeedImporter* raw = importer.get();
    feed.importers.push_back(std::move(importer));
    // The shard's receive side: decode the wire bytes back into records
    // and submit them. One Route() call ships one record, but the inbox
    // accepts any concatenation — the transport, not the router, decides
    // how records coalesce into buffers.
    inboxes.push_back([raw](std::string_view bytes) -> Status {
      size_t offset = 0;
      while (offset < bytes.size()) {
        STRIP_ASSIGN_OR_RETURN(FeedRecord rec,
                               DecodeFeedRecord(bytes, &offset));
        STRIP_RETURN_IF_ERROR(raw->Submit(std::move(rec)));
      }
      return Status::OK();
    });
  }
  feed.router = std::make_unique<FeedRouter>(std::move(inboxes));
  FeedRouter* router = feed.router.get();
  feeds_.emplace(table, std::move(feed));
  return router;
}

Status Cluster::ConnectTwoTier(const std::string& view_name,
                               const std::string& fact_table,
                               const TwoTierOptions& options) {
  if (staging_importers_.count(view_name) != 0) {
    return Status::AlreadyExists(
        StrFormat("view '%s' is already two-tier", view_name.c_str()));
  }
  // 1. Tier-1 rules on every shard maintain its partial view.
  for (auto& shard : shards_) {
    STRIP_RETURN_IF_ERROR(
        GenerateMaintenanceRule(*shard, view_name, fact_table, options.tier1)
            .status());
  }

  // 2. The top-level view table on the merge engine, with the partial
  // views' layout (EnableHiddenCount has appended _count by now).
  STRIP_ASSIGN_OR_RETURN(Table * partial,
                         shards_[0]->catalog().GetTable(view_name));
  const Schema& schema = partial->schema();
  std::string ddl = "create table " + view_name + " (";
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) ddl += ", ";
    ddl += schema.column(c).name + " " +
           ValueTypeName(schema.column(c).type);
  }
  ddl += ")";
  STRIP_RETURN_IF_ERROR(merge_->ExecuteScript(ddl));

  // Seed it from the shards' current partial contents. The same group can
  // live on several shards (the group key need not be the routing key), so
  // partial rows fold — SUM columns and _count add — before insertion.
  std::vector<GroupDelta> seed;
  for (auto& shard : shards_) {
    STRIP_ASSIGN_OR_RETURN(ResultSet rows,
                           shard->Execute("select * from " + view_name));
    for (const auto& row : rows.rows) {
      GroupDelta d;
      d.key = row[0];
      for (size_t c = 1; c + 1 < row.size(); ++c) {
        d.sums.push_back(row[c].as_double());
      }
      d.count = row.back().as_int();
      seed.push_back(std::move(d));
    }
  }
  if (!seed.empty()) {
    std::vector<GroupDelta> folded = FoldGroupDeltas(std::move(seed));
    std::string ins = "insert into " + view_name + " values (?";
    for (int c = 1; c < schema.num_columns(); ++c) ins += ", ?";
    ins += ")";
    STRIP_ASSIGN_OR_RETURN(PreparedStatementPtr insert, merge_->Prepare(ins));
    STRIP_ASSIGN_OR_RETURN(Transaction * txn, merge_->Begin());
    for (const GroupDelta& d : folded) {
      std::vector<Value> params;
      params.push_back(d.key);
      for (double s : d.sums) params.push_back(Value::Double(s));
      params.push_back(Value::Int(d.count));
      auto n = insert->ExecuteDml(txn, params);
      if (!n.ok()) {
        Status ignored = merge_->Abort(txn);
        (void)ignored;
        return n.status();
      }
    }
    STRIP_RETURN_IF_ERROR(merge_->Commit(txn));
  }

  // 3. Merge rule + staging table on the merge engine, and its importer.
  MergeRuleOptions merge_opts;
  merge_opts.delay_seconds = options.merge_delay_seconds;
  STRIP_ASSIGN_OR_RETURN(MergeRuleSpec merge_spec,
                         GenerateMergeRule(*merge_, view_name, merge_opts));
  STRIP_ASSIGN_OR_RETURN(
      std::unique_ptr<FeedImporter> staging,
      FeedImporter::Create(merge_.get(), merge_spec.staging_table));
  FeedImporter* staging_raw = staging.get();
  staging_importers_.emplace(view_name, std::move(staging));

  // 4. Export rules on every shard, shipping folded deltas across the
  // wire boundary into the staging importer. The encode/decode round trip
  // is deliberate: the hop is byte-identical to a socket hop.
  for (int i = 0; i < num_shards(); ++i) {
    ShardExportOptions export_opts;
    export_opts.shard_id = i;
    export_opts.delay_seconds = options.export_delay_seconds;
    auto sink = [this, staging_raw](const FeedRecord& rec) -> Status {
      std::string bytes = EncodeFeedRecord(rec);
      size_t offset = 0;
      STRIP_ASSIGN_OR_RETURN(FeedRecord decoded,
                             DecodeFeedRecord(bytes, &offset));
      STRIP_RETURN_IF_ERROR(staging_raw->Submit(std::move(decoded)));
      deltas_shipped_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    };
    STRIP_RETURN_IF_ERROR(
        GenerateShardDeltaExport(*shards_[static_cast<size_t>(i)], view_name,
                                 export_opts, sink)
            .status());
  }
  return Status::OK();
}

Status Cluster::DrainAll() {
  // Shard drains can ship deltas into the merge engine; merge drains never
  // feed back into shards. One shards-then-merge pass usually suffices,
  // but loop to a fixed point in case a drain races a late shipment.
  for (int pass = 0; pass < 16; ++pass) {
    uint64_t shipped_before = deltas_shipped();
    for (auto& shard : shards_) DrainEngine(*shard);
    DrainEngine(*merge_);
    bool pending = EngineHasPending(*merge_);
    for (auto& shard : shards_) pending = pending || EngineHasPending(*shard);
    if (!pending && deltas_shipped() == shipped_before) {
      return Status::OK();
    }
  }
  return Status::Internal("cluster did not quiesce in 16 drain passes");
}

std::string Cluster::MetricsJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("num_shards").Int(num_shards());
  w.Key("deltas_shipped").Uint(deltas_shipped());
  for (size_t i = 0; i < shards_.size(); ++i) {
    w.Key(StrFormat("shard%zu", i)).Raw(shards_[i]->metrics().SnapshotJson());
  }
  w.Key("merge").Raw(merge_->metrics().SnapshotJson());
  w.EndObject();
  return w.str();
}

std::string Cluster::ChromeTraceJson() const {
  // Splice every engine's bare event array into one traceEvents list, one
  // pid (process lane) per engine.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto splice = [&](const TraceRing& ring, int pid, const std::string& name) {
    std::string bare = ring.ToChromeJson(pid, name, /*bare=*/true);
    if (bare.size() <= 2) return;  // "[]": nothing recorded
    if (!first) out += ',';
    first = false;
    out.append(bare, 1, bare.size() - 2);
  };
  for (size_t i = 0; i < shards_.size(); ++i) {
    splice(shards_[i]->trace_ring(), static_cast<int>(i) + 1,
           StrFormat("shard%zu", i));
  }
  splice(merge_->trace_ring(), static_cast<int>(shards_.size()) + 1, "merge");
  out += "]}";
  return out;
}

}  // namespace strip
