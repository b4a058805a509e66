#ifndef MIP_STORAGE_SEGMENT_H_
#define MIP_STORAGE_SEGMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/expr.h"
#include "engine/table.h"

namespace mip::storage {

/// \brief Immutable, compressed, CRC-checked columnar segment files.
///
/// One segment holds one batch of rows for one table, columns encoded with
/// the engine's wire codecs (engine/encoding.h: dict / delta-varint / RLE /
/// XOR-double, smallest candidate wins). Layout, all integers little-endian:
///
///   u32 magic        "MSG1"
///   u8  version      1
///   -- one block per column, schema order:
///     u8      has_validity
///     [block] validity  (EncodeValidity, present iff has_validity)
///     [block] data      (EncodeInts/Doubles/Bools/Strings by column type)
///   -- footer:
///     varint  num_rows
///     varint  num_cols
///     per column:
///       string  name
///       u8      type          (DataType)
///       zone map:
///         varint null_count
///         u8     has_range    (any non-null — and for doubles non-NaN — value)
///         u8     has_nan      (any non-null NaN; doubles only)
///         typed  min, max     (i64 pair / double pair / string pair;
///                              present iff has_range)
///       varint  offset        (column block, absolute file offset)
///       varint  length        (column block byte count)
///       u32     crc32         (of the column block bytes)
///   -- trailer (fixed 12 bytes, so the footer is locatable from EOF):
///     u32 footer_len
///     u32 footer_crc   (of the footer bytes)
///     u32 magic        "MSGF"
///
/// Readers trust nothing: magics, versions, CRCs, counts, offsets and
/// lengths are all validated before any allocation or decode, and the
/// codec decoders underneath are the fuzz-hardened PR-4 ones — a truncated
/// or bit-flipped file yields a clean kIOError, never a crash or over-read.
///
/// NaN is excluded from double min/max on write and tracked as a separate
/// has_nan flag. The flag matters because of how this engine's comparison
/// kernels work: they compute cmp = (a<b) ? -1 : (a>b ? 1 : 0), so a NaN
/// operand yields cmp == 0 — a NaN cell therefore satisfies =, <= and >=
/// against ANY literal (and never satisfies < or >). SegmentCanMatch
/// mirrors those semantics exactly; pruning is only sound relative to the
/// engine it serves.
inline constexpr uint32_t kSegmentMagic = 0x3147534Du;   // "MSG1"
inline constexpr uint32_t kSegmentFooterMagic = 0x4647534Du;  // "MSGF"
inline constexpr uint8_t kSegmentVersion = 1;
inline constexpr size_t kSegmentHeaderBytes = 5;
inline constexpr size_t kSegmentTrailerBytes = 12;
inline constexpr uint64_t kMaxSegmentColumns = 4096;

/// Per-column min/max/null-count statistics.
struct ZoneMap {
  uint64_t null_count = 0;
  /// False when the column holds no non-null (for doubles: non-NaN) value
  /// in this segment.
  bool has_range = false;
  /// Any non-null NaN value (kFloat64 only). NaN rows satisfy =, <=, >=
  /// against every literal under this engine's comparison kernels.
  bool has_nan = false;
  int64_t min_i = 0, max_i = 0;        // kInt64 / kBool (0/1)
  double min_d = 0.0, max_d = 0.0;     // kFloat64, NaN excluded
  std::string min_s, max_s;            // kString
};

struct SegmentColumn {
  std::string name;
  engine::DataType type = engine::DataType::kFloat64;
  ZoneMap zone;
  uint64_t offset = 0;  // column block position in the file
  uint64_t length = 0;  // column block byte count
  uint32_t crc = 0;     // CRC-32 of the column block
};

struct SegmentFooter {
  uint64_t num_rows = 0;
  std::vector<SegmentColumn> columns;

  engine::Schema schema() const;
};

/// Computes the zone map of one column (NaN excluded for doubles).
ZoneMap ComputeZoneMap(const engine::Column& column);

/// Writes `table` as a segment file, crash-atomically (tmp + fsync +
/// rename). Returns the footer that was persisted.
Result<SegmentFooter> WriteSegment(const std::string& path,
                                   const engine::Table& table);

/// Reads and validates only the footer (header magic, trailer, footer CRC,
/// bounds of every column block) — the cheap path pruning and recovery use.
Result<SegmentFooter> ReadSegmentFooter(const std::string& path);

/// Full read: footer validation plus per-column CRC check and codec decode.
/// Every decoded count must equal num_rows.
Result<engine::Table> ReadSegment(const std::string& path);

/// Same, reusing an already-validated footer (the in-memory copy the store
/// caches for immutable segments).
Result<engine::Table> ReadSegmentData(const std::string& path,
                                      const SegmentFooter& footer);

/// Projected read under an already-validated footer: checks the header,
/// then reads, CRC-checks and decodes only the column blocks at the footer
/// ordinals `columns` (output in that order) — one open file, one pread per
/// block. Blocks not listed are never read, so their corruption cannot
/// surface here; every byte that is read is checked.
Result<engine::Table> ReadSegmentColumns(const std::string& path,
                                         const SegmentFooter& footer,
                                         const std::vector<size_t>& columns);

/// \brief One zone-map-testable conjunct of a pruning hint:
/// `column <op> literal` with op in {=, <, <=, >, >=}.
struct PruneConjunct {
  std::string column;
  engine::BinaryOp op = engine::BinaryOp::kEq;
  engine::Value literal;
};

/// Splits an expression on AND and keeps the conjuncts of the form
/// `ColumnRef op Literal` (either side; swapped sides mirror the operator)
/// with op in {=, <, <=, >, >=} and a non-NULL literal. Everything else —
/// ORs, !=, IS NULL, function calls, column-to-column comparisons — is
/// dropped: a dropped conjunct is simply never used to prune, which keeps
/// the decision conservative (a kept Filter above the scan re-applies the
/// full predicate anyway).
std::vector<PruneConjunct> ExtractPruneConjuncts(const engine::Expr& expr);

/// True when some row of the segment *could* satisfy every conjunct —
/// the conservative zone-map test. False means provably zero matching rows
/// (the segment can be skipped). Conjuncts naming unknown columns or with
/// type-incompatible literals are ignored (treated as satisfiable).
bool SegmentCanMatch(const SegmentFooter& footer,
                     const std::vector<PruneConjunct>& conjuncts);

}  // namespace mip::storage

#endif  // MIP_STORAGE_SEGMENT_H_
