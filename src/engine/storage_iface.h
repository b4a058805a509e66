#ifndef MIP_ENGINE_STORAGE_IFACE_H_
#define MIP_ENGINE_STORAGE_IFACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/stats.h"
#include "engine/table.h"

namespace mip::engine {

struct Expr;
struct ExecContext;
class FunctionRegistry;

/// \brief Per-scan segment accounting: how many on-disk segments a scan
/// touched vs skipped (zone maps, and on the index path also ordered-index
/// probes that proved a segment empty). `total == scanned + pruned`;
/// memtable rows are not segments and are never counted.
struct ScanStats {
  int64_t total = 0;
  int64_t scanned = 0;
  int64_t pruned = 0;
  /// Index accounting (IndexScan path only): segments probed through an
  /// ordered secondary index, and the total candidate rows those probes
  /// matched. Zero on the plain scan path.
  int64_t index_probes = 0;
  int64_t index_rows = 0;
  /// Decode accounting: column blocks read and decoded, and the segment
  /// rows they held (memtable rows are never decoded and never counted).
  int64_t columns_decoded = 0;
  int64_t rows_decoded = 0;
};

/// \brief Everything one disk scan must produce (TableStorage::ScanDisk).
///
/// The scan contract: `columns` may be a superset of what the caller needs
/// (it is the plan's projection, not a promise the caller reads them all);
/// `row_filter` is exact — only rows where it is non-null true come back;
/// `prune_filter` stays advisory (segment skipping, never row selection).
/// The executor fuses a Filter into the scan only when no LIMIT was pushed
/// into that scan: a pushed limit applies before the Filter, so a filter
/// inside the scan would change which rows survive.
struct DiskScanSpec {
  /// Zone-map (and, with `use_index`, ordered-index) pruning hint; may be
  /// null. See ScanTable.
  const Expr* prune_filter = nullptr;
  /// Take IndexScanTable's access path instead of ScanTable's.
  bool use_index = false;
  /// Public columns to produce, in this order; empty = every column.
  std::vector<std::string> columns;
  /// Exact row predicate; null = keep every row. Bound in place, once,
  /// against the projected public schema (BindDiskScan), so an unknown or
  /// hidden column fails exactly as a Filter above the scan would.
  Expr* row_filter = nullptr;
  /// Evaluation context for `row_filter`.
  const FunctionRegistry* functions = nullptr;
  const ExecContext* exec = nullptr;
};

/// Binds `spec.row_filter` (when set) against `schema` narrowed to
/// `spec.columns` and returns that projected schema. Errors match a
/// SelectTableColumns + BindExpr over a materialized table of `schema`.
Result<Schema> BindDiskScan(const DiskScanSpec& spec, const Schema& schema);

/// Keeps the rows of `part` where the bound `spec.row_filter` is true
/// (`part` unchanged when there is none). `part` holds the projected
/// columns first and may carry extra trailing columns the predicate never
/// references.
Result<Table> FilterDiskPart(const DiskScanSpec& spec, Table part);

/// \brief The storage layer's answer to "would an IndexScan beat the
/// zone-map scan here?" — computed from real (cheap, footer-guided) index
/// probes, so `rows` is the exact candidate count at preview time, not a
/// guess. The optimizer turns `use_index` into a plan-node choice and
/// copies the numbers into EXPLAIN.
struct IndexPreview {
  bool use_index = false;
  int64_t probes = 0;  ///< segments probed via an index
  int64_t rows = 0;    ///< candidate rows across surviving segments
  /// Segment accounting the index path would produce (pruned counts both
  /// zone-map skips and index-proved-empty skips).
  ScanStats stats;
};

/// \brief Monotonic storage-layer counters for the /metrics surface:
/// lifetime totals since the store opened (in-memory, reset per process).
struct StorageCounters {
  uint64_t segments_scanned = 0;  ///< segments decoded by scans
  uint64_t segments_pruned = 0;   ///< segments skipped (zone map or index)
  uint64_t index_probes = 0;      ///< per-segment ordered-index probes
  uint64_t index_hits = 0;        ///< probes that found candidate rows
  uint64_t flushes = 0;           ///< memtable flushes committed
  uint64_t compactions = 0;       ///< background/explicit compactions
  uint64_t wal_replays = 0;       ///< WAL records replayed at Open
};

/// \brief Abstract view of a disk-resident table store, implemented by
/// storage::StorageEngine and injected into Database (the same
/// dependency-inverting shape as RemoteFetcher: the engine plans and
/// executes against the interface, the storage library depends on the
/// engine — never the reverse).
class TableStorage {
 public:
  virtual ~TableStorage() = default;

  /// Names of every disk-resident table (lower-cased catalog keys).
  virtual std::vector<std::string> StorageTableNames() const = 0;

  virtual Result<Schema> StorageTableSchema(const std::string& name) const = 0;

  /// Every row and every public column of a table: committed segments in
  /// ingest order, then the WAL'd memtable rows. `prune_filter` (may be
  /// null) is advisory — the scan may use its conjuncts against per-segment
  /// zone maps to skip segments that provably match no rows, so the result
  /// is a superset of the rows the hint selects; callers that need exact
  /// rows filter afterwards (or use ScanDisk's `row_filter`). Fills
  /// `*stats` when non-null.
  virtual Result<Table> ScanTable(const std::string& name,
                                  const Expr* prune_filter,
                                  ScanStats* stats) const = 0;

  /// The executor's disk scan: only `spec.columns`, only rows passing
  /// `spec.row_filter`, in the same order ScanTable would return them (see
  /// DiskScanSpec for the contract). The default runs the full scan and
  /// then projects and filters the materialized table; a store overrides
  /// it to decode only the projected columns and filter each decoded part.
  virtual Result<Table> ScanDisk(const std::string& name,
                                 const DiskScanSpec& spec,
                                 ScanStats* stats) const;

  /// Durably appends rows (WAL first, then memtable; flush policy is the
  /// implementation's). Creates the table from the batch schema when it
  /// does not exist yet.
  virtual Status AppendRows(const std::string& name, const Table& rows) = 0;

  /// Zone-map prune accounting for EXPLAIN without reading any data
  /// blocks: exactly the skip decisions ScanTable would make right now.
  virtual Result<ScanStats> PrunePreview(const std::string& name,
                                         const Expr* prune_filter) const = 0;

  /// Like ScanTable, but additionally consults the per-segment ordered
  /// secondary indexes: a segment whose probe proves zero candidate rows is
  /// skipped without being decoded. Same superset contract as zone maps —
  /// the Filter above re-applies the predicate, so results are byte-
  /// identical to ScanTable for any filter. Defaults to the plain scan so
  /// implementations without indexes stay correct.
  virtual Result<Table> IndexScanTable(const std::string& name,
                                       const Expr* prune_filter,
                                       ScanStats* stats) const {
    return ScanTable(name, prune_filter, stats);
  }

  /// Access-path preview for the optimizer: probes the ordered indexes
  /// under `prune_filter` (cheap, footer-guided) and reports whether the
  /// index path would decode strictly fewer segments than the zone-map
  /// path. Defaulted so stores without indexes need not implement it.
  virtual Result<IndexPreview> PreviewIndexScan(const std::string& name,
                                                const Expr* prune_filter) const {
    (void)name;
    (void)prune_filter;
    return Status::NotImplemented("storage has no ordered indexes");
  }

  /// Table statistics for the cost model, assembled from footer metadata
  /// (row counts, zone-map min/max/null counts) without decoding any data
  /// blocks; NDV stays -1 (unknown) since footers carry no sketches.
  /// Defaulted so stores without statistics need not implement it.
  virtual Result<TableStats> StorageTableStats(const std::string& name) const {
    (void)name;
    return Status::NotImplemented("storage has no table statistics");
  }

  /// Lifetime counters for the serving layer's /metrics page.
  virtual StorageCounters Counters() const { return StorageCounters(); }
};

}  // namespace mip::engine

#endif  // MIP_ENGINE_STORAGE_IFACE_H_
