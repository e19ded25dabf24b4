#ifndef STRIP_VIEWMAINT_RULE_GEN_H_
#define STRIP_VIEWMAINT_RULE_GEN_H_

#include <functional>
#include <string>
#include <vector>

#include "strip/common/status.h"
#include "strip/feed/feed.h"
#include "strip/sql/ast.h"

namespace strip {

class Database;

/// Generated maintenance rules. The paper's §8 conjectures that the [CW91]
/// approach of deriving maintenance rules from view definitions extends to
/// deriving the unit of batching and the delay window as well; this module
/// implements that conjecture for the view shapes the evaluation uses:
///
///  - aggregation views:  SELECT g, SUM(e)... [, AVG(e)...] [, COUNT(*)]
///                        FROM fact [, dims...] WHERE equi-joins GROUP BY g
///    maintained from the fact table's inserts, updates and deletes by
///    three companion rules. Three derivation strategies, picked
///    automatically:
///      * direct     — no dimensions: deltas keyed by the group column;
///      * dim-probe  — one dimension, group key and weights on the
///        dimension side (the comp_prices shape): the condition query
///        projects only fact-local delta columns, and the action probes
///        the dimension through a prepared index lookup per net key — the
///        compute_comps3 pattern of §4.3, generated;
///      * join-in-condition — general fallback: the condition query joins
///        the dimensions at commit time and emits per-group deltas.
///    The backing table gains a hidden per-group `_count`; a group whose
///    count reaches zero is erased by a sweep deferred to a firing with no
///    queued sibling task, so reordered batched deltas never erase a group
///    a pending delta will resurrect.
///
///  - projection views:   SELECT k, exprs... FROM fact [, dims...]
///                        WHERE equi-joins
///    maintained by recomputing affected rows (e.g. Black-Scholes option
///    prices), like do_options.
///
/// Every generated aggregate action — tier-1 maintenance here, and the
/// shard export and merge actions below — runs one fold-and-apply
/// routine: bound rows become group delta contributions, same-key deltas
/// fold (rules/net_effect), and each net delta is applied, shipped, or
/// applied and retired. A batched unique transaction therefore applies one
/// net delta per group: maintenance cost O(|delta|), not O(|group|).
///
/// The generator derives everything but the delay window: aggregation
/// rules batch `unique on` the delta key (the group column, or the fact
/// join key under dim-probe) — "just large enough to take advantage of the
/// redundancy in the recomputation but no larger" (§8) — and projection
/// rules batch coarsely, one recompute pass per window. It indexes the
/// backing table on the group (or key) column when no index exists, and
/// installs a recompute fallback rule on every dimension table: delta
/// rules see fact-table changes only (§3 treats dimensions as slowly
/// changing), so a dimension change refreshes the view from scratch,
/// bumps `viewmaint.dim_fallback_recompute` and logs a warning.
///
/// Known fallback limitation: with several dimensions (join-in-condition
/// strategy), an UPDATE that changes the fact-side join key matches the
/// old image against the new image's dimension rows. The dim-probe
/// strategy handles join-key updates exactly (old and new keys are probed
/// separately).
struct RuleGenOptions {
  /// The delay window of every generated rule (§6.3).
  double delay_seconds = 1.0;
};

/// What the generator produced (for inspection / documentation).
struct GeneratedRule {
  std::string rule_name;       // the primary (update-event) rule
  std::string function_name;
  std::string rule_sql;        // display form of the primary rule
  /// Companion rules: insert/delete events (aggregation views) and the
  /// dimension-change fallback rules.
  std::vector<std::string> extra_rule_names;
  /// Which derivation the generator picked: "direct", "dim-probe",
  /// "join-in-condition", or "projection".
  std::string strategy;
};

/// Generates and installs the maintenance rule + action function for the
/// materialized view `view_name` with respect to updates of `fact_table`
/// (the table whose changes drive maintenance; other FROM tables are
/// treated as slowly changing dimensions, as the paper does for
/// comps_list / options_list, §3).
Result<GeneratedRule> GenerateMaintenanceRule(Database& db,
                                              const std::string& view_name,
                                              const std::string& fact_table,
                                              const RuleGenOptions& options);

// ---------------------------------------------------------------------------
// Two-tier maintenance across the cluster's shard boundary (DESIGN.md §2.5)
// ---------------------------------------------------------------------------
// Tier 1 is the ordinary generated rule set above, keeping a PARTIAL
// SUM/`_count` aggregate view on each shard from that shard's slice of the
// fact table. Tier 2 watches the partial view itself: export rules fold
// each window's changes to net group deltas (rules/net_effect) and ship
// them — encoded as feed records in the EncodeGroupDeltaRow staging-row
// layout — to the merge engine, whose merge rule folds the staged deltas
// again and applies them to the top-level view. Both hops stay in delta
// form (DBSP-style composition): recomputed groups never cross the
// boundary.

/// Receives each folded group delta leaving the shard, as a feed record in
/// the staging-row layout. The cluster's sink wire-encodes the record,
/// crosses the shard boundary as bytes, and submits the decoded record to
/// the merge engine's staging importer.
using ShardDeltaSink = std::function<Status(const FeedRecord&)>;

struct ShardExportOptions {
  /// Stamped into the high bits of every `_seq` this shard emits, making
  /// staged rows unique across the cluster.
  int shard_id = 0;
  /// Export batching window: one shipment per window, folding everything
  /// the tier-1 rules did to the partial view meanwhile.
  double delay_seconds = 0.5;
};

struct ShardExportSpec {
  std::vector<std::string> rule_names;      // _upd / _ins / _del
  std::vector<std::string> function_names;
};

/// Installs the tier-2 export rules on a shard engine, watching the
/// backing table of `view_name` (a maintained SUM/COUNT aggregation view
/// with the hidden `_count` — AVG partials are rejected, quotients do not
/// ship as deltas). Call after GenerateMaintenanceRule.
Result<ShardExportSpec> GenerateShardDeltaExport(
    Database& db, const std::string& view_name,
    const ShardExportOptions& options, ShardDeltaSink sink);

struct MergeRuleOptions {
  /// Merge-side batching window: staged deltas accumulating within it are
  /// folded into one application pass over the top-level view.
  double delay_seconds = 0.5;
};

struct MergeRuleSpec {
  std::string staging_table;  // `<view>_deltas`, keyed + indexed on _seq
  std::string rule_name;
  std::string function_name;
};

/// Installs the tier-2 merge side on the merge engine: creates the staging
/// table for `view_table` (which must already exist there with the shard
/// partial views' column layout — group key first, SUM columns, `_count`
/// last) and the merge rule applying folded staged deltas to it, indexing
/// the group column when no index exists. Groups are erased by the tier-1
/// deferred sweep, but only once `_count` is at most zero AND every SUM is
/// exactly zero: a count-0 row with nonzero sums is an out-of-order
/// interim whose insert delta is still batching on a shard.
Result<MergeRuleSpec> GenerateMergeRule(Database& db,
                                        const std::string& view_table,
                                        const MergeRuleOptions& options);

}  // namespace strip

#endif  // STRIP_VIEWMAINT_RULE_GEN_H_
