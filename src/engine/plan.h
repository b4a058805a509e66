#ifndef MIP_ENGINE_PLAN_H_
#define MIP_ENGINE_PLAN_H_

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/exec_context.h"
#include "engine/expr.h"
#include "engine/operators.h"
#include "engine/sql_ast.h"
#include "engine/storage_iface.h"
#include "engine/table.h"

namespace mip::engine {

class FunctionRegistry;

/// \brief Logical query plan IR.
///
/// SELECT execution is split into three layers (mirroring how MonetDB — the
/// worker engine of the MIP paper — decomposes queries over merge tables so
/// computation moves to the data):
///
///   1. the planner (PlanSelect) turns a parsed SelectStmt into a tree of
///      typed PlanNodes, resolving FROM sources through a PlanCatalog;
///   2. the rule-based optimizer (engine/optimizer.h) rewrites the tree —
///      predicate/projection/limit pushdown into scans (remote scans lower
///      them into the SQL shipped to the owning node) and the merge-table
///      partial-aggregate decomposition;
///   3. the executor (ExecutePlan) walks the tree bottom-up with the
///      existing vectorized operators and ExecContext morsel parallelism.
///
/// Invariant: for any query, the optimized plan produces byte-identical
/// results to the unoptimized plan (and to the pre-plan-layer interpreter):
/// row order, first-seen group order, and float arithmetic order are all
/// preserved by every rule except the merge-aggregate decomposition, which
/// reassociates float sums exactly like the legacy pushdown path did.
enum class PlanKind {
  kScan,        ///< base table or table-function scan
  kIndexScan,   ///< disk scan that additionally probes ordered indexes
  kRemoteScan,  ///< scan served by another node (MonetDB REMOTE table)
  kMergeUnion,  ///< non-materialized UNION ALL over parts (MERGE table)
  kJoin,        ///< two-way equi hash join
  kFilter,      ///< keep rows where predicate is non-null true
  kProject,     ///< evaluate select items / expressions into output columns
  kAggregate,   ///< hash group-by (empty keys = whole-table aggregation)
  kDistinct,    ///< keep first occurrence of each distinct row
  kSort,        ///< stable multi-key sort by output column names
  kLimit,       ///< first n rows
};

const char* PlanKindName(PlanKind kind);

/// \brief Physical strategy of a distributed join, chosen by the cost model
/// (optimizer.cc) per join node.
///
///   kCollect   — fetch both sides through the compressed wire format and
///                hash-join at the master (the only pre-cost-model behavior,
///                and the MIP_COST_MODEL=0 ablation).
///   kBroadcast — materialize the small (right/build) side once, ship it to
///                every worker holding a left-side part, and push the join
///                into the worker via a bound-table SQL round trip; the
///                master only concatenates per-part join results.
///
/// The strategy is a *physical* annotation: results are byte-identical
/// either way (each worker joins its part against the identical build table,
/// and per-part outputs concatenate in part order — exactly the master-side
/// join of the concatenated parts), so the canonical rendering omits it and
/// strategy flips never fracture the gateway result cache.
enum class JoinStrategy { kCollect, kBroadcast };

struct PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// One node of a logical plan. A tagged union in the style of the Expr tree:
/// `kind` selects which fields are meaningful.
struct PlanNode {
  PlanKind kind = PlanKind::kScan;
  std::vector<PlanPtr> children;

  // --- kScan / kRemoteScan / kMergeUnion --------------------------------
  /// Local catalog name of the scanned table (merge tables keep their view
  /// name here; remote scans the local alias).
  std::string table_name;
  /// kScan only: table-function source. Function scans are materialized
  /// once at plan time (exactly as often as the legacy interpreter ran
  /// them) and carried in `prebound`.
  std::string func_name;
  std::vector<Value> func_args;
  std::shared_ptr<Table> prebound;
  /// Projection pruning: the only columns this scan must produce (and a
  /// remote scan must *fetch*). Empty = all columns.
  std::vector<std::string> columns;
  /// LIMIT pushed below a sort-free pipeline; -1 = none.
  int64_t scan_limit = -1;
  /// kScan only: the table is disk-resident (TableKind::kDisk) and executes
  /// through PlanExecutorOptions::scan_disk.
  bool disk = false;
  /// kScan over a disk table: predicate copied down by the optimizer as a
  /// zone-map pruning *hint*. Purely advisory — the originating Filter node
  /// stays above the scan, so pruning can never change results (the same
  /// "at most, not exactly" contract as scan_limit).
  ExprPtr prune_filter;
  /// Optimizer annotation for EXPLAIN: segment counts the zone maps decide
  /// to scan/prune for this disk scan, filled by the prune-annotation pass
  /// from PlanCatalog::DiskPrunePreview. -1 = not annotated.
  int64_t seg_total = -1;
  int64_t seg_pruned = -1;
  /// kIndexScan annotation for EXPLAIN: ordered-index probes the access-path
  /// rule previewed and the candidate rows they matched. -1 = not annotated.
  int64_t idx_probes = -1;
  int64_t idx_rows = -1;

  // --- kRemoteScan -------------------------------------------------------
  std::string location;     ///< node id that owns the data
  std::string remote_name;  ///< table name on that node
  /// Predicate lowered into the SQL shipped via run_sql; null = none.
  ExprPtr remote_filter;
  /// Full remote SQL override (merge-aggregate partials). When set it wins
  /// over columns/remote_filter/scan_limit.
  std::string sql_override;

  // --- kFilter -----------------------------------------------------------
  ExprPtr predicate;

  // --- kProject ----------------------------------------------------------
  /// Two flavors: raw select items (star expansion + output naming happen
  /// at execution against the input schema, exactly like the legacy path),
  /// or pre-resolved expressions with final output names (aggregate
  /// rewrites). `exprs` non-empty selects the second flavor.
  std::vector<SelectItem> items;
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;

  // --- kAggregate --------------------------------------------------------
  std::vector<ExprPtr> keys;
  std::vector<std::string> key_names;
  std::vector<AggregateSpec> aggs;

  // --- kJoin -------------------------------------------------------------
  std::string left_key;
  std::string right_key;
  JoinType join_type = JoinType::kInner;
  /// Physical strategy (see JoinStrategy); excluded from the canonical
  /// rendering like the segment/index annotations.
  JoinStrategy strategy = JoinStrategy::kCollect;
  /// Cost-model annotations for EXPLAIN (-1 = not annotated): estimated
  /// input/output cardinalities and the modeled wire cost of each strategy.
  double est_left_rows = -1.0;
  double est_right_rows = -1.0;
  double est_out_rows = -1.0;
  double cost_broadcast = -1.0;
  double cost_collect = -1.0;

  // --- kSort -------------------------------------------------------------
  std::vector<std::string> sort_keys;
  std::vector<bool> sort_ascending;

  // --- kLimit ------------------------------------------------------------
  int64_t limit = -1;
};

PlanPtr MakePlanNode(PlanKind kind);

/// \brief Catalog view the planner and optimizer resolve table names
/// against. Implemented by Database; kept abstract so the plan layer does
/// not depend on the catalog's storage.
class PlanCatalog {
 public:
  enum class TableKind { kBase, kRemote, kMerge, kDisk };
  struct TableInfo {
    TableKind kind = TableKind::kBase;
    std::string location;     // kRemote
    std::string remote_name;  // kRemote
    std::vector<std::string> parts;  // kMerge
  };

  virtual ~PlanCatalog() = default;

  /// Kind and metadata of a named table; NotFound when absent.
  virtual Result<TableInfo> Describe(const std::string& name) const = 0;

  /// Schema of a named table without materializing it when possible (remote
  /// schemas may cost one lightweight round trip on first use).
  virtual Result<Schema> TableSchema(const std::string& name) const = 0;

  /// Runs a FROM-clause table function.
  virtual Result<Table> RunTableFunction(
      const std::string& name, const std::vector<Value>& args) const = 0;

  /// Zone-map prune counts for a disk table (TableKind::kDisk) under a
  /// pruning hint — how the optimizer annotates `segments:` on EXPLAIN
  /// output. Defaulted so catalogs without attached storage (and test
  /// doubles) need not implement it; the annotation pass skips scans whose
  /// catalog answers NotImplemented.
  virtual Result<ScanStats> DiskPrunePreview(const std::string& name,
                                             const Expr* prune_filter) const {
    (void)name;
    (void)prune_filter;
    return Status::NotImplemented("catalog has no attached disk storage");
  }

  /// Access-path preview for a disk table: would probing its ordered
  /// secondary indexes under this pruning hint skip more segments than zone
  /// maps alone? Drives the optimizer's Scan-vs-IndexScan choice; defaulted
  /// like DiskPrunePreview so storage-less catalogs answer NotImplemented
  /// and the choice pass leaves scans untouched.
  virtual Result<IndexPreview> DiskIndexPreview(const std::string& name,
                                                const Expr* prune_filter) const {
    (void)name;
    (void)prune_filter;
    return Status::NotImplemented("catalog has no attached disk storage");
  }

  /// Table statistics feeding the cost model: row counts, per-column NDV
  /// and ranges (engine/stats.h). Local tables compute (and cache) them,
  /// remote tables answer through the `get_stats` envelope, merge tables
  /// combine their parts. Defaulted like the previews above — a catalog
  /// without statistics simply leaves the cost model blind, which degrades
  /// to the pre-cost-model plan (collect), never to a wrong result.
  virtual Result<TableStats> GetTableStats(const std::string& name) const {
    (void)name;
    return Status::NotImplemented("catalog has no table statistics");
  }
};

/// Deep-copies an expression tree (unbinding is not performed; clones carry
/// whatever binding state the source had).
ExprPtr CloneExpr(const Expr& e);

/// \brief Output-name uniquing shared by the planner, the executor's star
/// expansion, and the aggregate rewrite: append '_' until `name` (compared
/// case-insensitively) is unused, then record it in `used`.
std::string UniquifyName(std::string name, std::set<std::string>* used);

/// True when `name` lexes as one plain identifier token and is not a keyword
/// of the engine's grammar — i.e. it can be spliced into generated SQL text
/// (remote column lists, lowered predicates) without changing its parse.
bool IsSqlIdentifier(const std::string& name);

/// \brief Renders `expr` as SQL text that reparses to an equivalent tree.
///
/// Unlike Expr::ToString (whose double formatting is for humans), double
/// literals are printed with round-trip precision — the text a RemoteScan
/// ships must select exactly the rows a local evaluation would.
std::string LowerExprToSql(const Expr& expr);

/// True when `expr` only uses constructs every peer engine evaluates
/// identically from SQL text: literals (finite doubles, strings without
/// embedded quotes), column refs, unary/binary operators, CASE, and calls
/// to scalar built-ins. UDF calls and aggregates are not remotable.
bool IsRemotelyEvaluable(const Expr& expr);

/// \brief Builds the logical plan for a SELECT. The plan is unoptimized:
/// merge tables expand to MergeUnion over their parts, remote tables to
/// bare RemoteScans, and all filtering/projection happens above the scans.
Result<PlanPtr> PlanSelect(const SelectStmt& stmt, const PlanCatalog& catalog);

/// Output schema of a source subtree (scans, unions, joins, filters) — used
/// for the sort-placement decision and by the optimizer. May cost a remote
/// schema lookup for RemoteScan nodes.
Result<Schema> InferPlanSchema(const PlanNode& node, const PlanCatalog& catalog);

/// \brief Stable text rendering of a plan (the EXPLAIN output): one node
/// per line, two-space indent per depth. Golden-testable.
std::string RenderPlan(const PlanNode& root);

/// \brief 64-bit FNV-1a fingerprint of the plan's *canonical* rendering —
/// the gateway's result-cache key. Two statements that optimize to the same
/// plan (modulo whitespace in the original SQL, aliasing that doesn't
/// survive planning) share a fingerprint; any semantic difference —
/// predicates, projections, limits, aggregate specs, sources — renders
/// differently and diverges. Stable across processes: no pointers, no
/// iteration-order dependence.
///
/// Canonical means physical-only annotations are excluded: the `segments:`
/// / `index:` stat lines are omitted and IndexScan renders as Scan. Those
/// reflect the store's current segment layout, which flushes, compactions,
/// and access-path flips change without changing any result — a cache keyed
/// on them would miss (or worse, never invalidate) for byte-identical
/// answers. Real data changes invalidate through catalog_version, not the
/// fingerprint.
uint64_t PlanFingerprint(const PlanNode& root);

/// \brief Lifetime join counters for the /metrics surface. `joins_planned`
/// and the strategy tallies are incremented by the optimizer's strategy
/// chooser; `build_rows`/`probe_rows` by the executor (probe rows count
/// master-side probes only — a pushed broadcast join probes on the worker,
/// where the master cannot see the row count).
struct JoinCounters {
  std::atomic<uint64_t> joins_planned{0};
  std::atomic<uint64_t> broadcast_chosen{0};
  std::atomic<uint64_t> collect_chosen{0};
  std::atomic<uint64_t> build_rows{0};
  std::atomic<uint64_t> probe_rows{0};
};

/// \brief Everything the executor needs from its host database.
struct PlanExecutorOptions {
  const FunctionRegistry* functions = nullptr;
  const ExecContext* exec = nullptr;
  /// Host database name, used only in error messages.
  std::string db_name;
  /// Materializes a base table by catalog name.
  std::function<Result<Table>(const std::string& name)> get_table;
  /// Scans a disk-resident table (TableKind::kDisk) under `spec`: the
  /// scan's columns, its prune hint, its access path (kIndexScan sets
  /// `use_index`) and, when a Filter sits directly above a scan without a
  /// pushed limit, that Filter's predicate as the exact `row_filter` (see
  /// TableStorage::ScanDisk). Unset = the catalog has no attached storage;
  /// executing a disk scan then fails with an execution error.
  std::function<Result<Table>(const std::string& name,
                              const DiskScanSpec& spec)>
      scan_disk;
  /// Fetches a whole remote table (fetch_table); used by bare RemoteScans.
  std::function<Result<Table>(const std::string& location,
                              const std::string& remote_name)>
      fetch_remote;
  /// Runs SQL on the remote node (run_sql); used by RemoteScans that carry
  /// a pushed filter, pruned columns, a limit, or a partial-aggregate
  /// override. May be null — the optimizer only lowers work into remote
  /// SQL when a runner is available.
  std::function<Result<Table>(const std::string& location,
                              const std::string& sql)>
      run_remote_sql;
  /// Runs SQL on the remote node with a shipped bound table
  /// (run_sql_bound): the worker registers `bound` under `temp_name`, runs
  /// `sql`, drops the temp table, and replies with the result — the
  /// transport of a BroadcastJoin's build side. May be null (no broadcast-
  /// capable transport); broadcast joins then fall back per part to
  /// fetching the part and joining at the master, byte-identically.
  std::function<Result<Table>(const std::string& location,
                              const std::string& temp_name,
                              const std::string& sql, const Table& bound)>
      run_remote_bound_sql;
  /// Lifetime join counters (may be null): executor-side build/probe rows.
  JoinCounters* join_counters = nullptr;
};

/// Executes an (optimized or raw) logical plan.
Result<Table> ExecutePlan(const PlanNode& root,
                          const PlanExecutorOptions& options);

}  // namespace mip::engine

#endif  // MIP_ENGINE_PLAN_H_
