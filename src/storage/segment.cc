#include "storage/segment.h"

#include <cmath>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/string_util.h"
#include "engine/encoding.h"
#include "storage/io.h"

namespace mip::storage {

using engine::Column;
using engine::DataType;
using engine::DecodeBools;
using engine::DecodeDoubles;
using engine::DecodeInts;
using engine::DecodeStrings;
using engine::DecodeValidity;
using engine::EncodeBools;
using engine::EncodeDoubles;
using engine::EncodeInts;
using engine::EncodeStrings;
using engine::EncodeValidity;
using engine::Expr;
using engine::GetVarint;
using engine::kMaxWireElements;
using engine::PutVarint;
using engine::Schema;
using engine::Table;
using engine::Value;

namespace {

Status Corrupt(const std::string& path, const std::string& why) {
  return Status::IOError("corrupt segment '" + path + "': " + why);
}

}  // namespace

Schema SegmentFooter::schema() const {
  Schema schema;
  for (const SegmentColumn& col : columns) {
    // Duplicate names were rejected at footer-parse time; ignore here.
    (void)schema.AddField(engine::Field{col.name, col.type});
  }
  return schema;
}

ZoneMap ComputeZoneMap(const Column& column) {
  ZoneMap zone;
  zone.null_count = column.null_count();
  for (size_t i = 0; i < column.length(); ++i) {
    if (!column.IsValid(i)) continue;
    switch (column.type()) {
      case DataType::kBool: {
        const int64_t v = column.BoolAt(i) ? 1 : 0;
        if (!zone.has_range) {
          zone.min_i = zone.max_i = v;
          zone.has_range = true;
        } else {
          if (v < zone.min_i) zone.min_i = v;
          if (v > zone.max_i) zone.max_i = v;
        }
        break;
      }
      case DataType::kInt64: {
        const int64_t v = column.IntAt(i);
        if (!zone.has_range) {
          zone.min_i = zone.max_i = v;
          zone.has_range = true;
        } else {
          if (v < zone.min_i) zone.min_i = v;
          if (v > zone.max_i) zone.max_i = v;
        }
        break;
      }
      case DataType::kFloat64: {
        const double v = column.DoubleAt(i);
        if (std::isnan(v)) {
          zone.has_nan = true;
          break;
        }
        if (!zone.has_range) {
          zone.min_d = zone.max_d = v;
          zone.has_range = true;
        } else {
          if (v < zone.min_d) zone.min_d = v;
          if (v > zone.max_d) zone.max_d = v;
        }
        break;
      }
      case DataType::kString: {
        const std::string& v = column.StringAt(i);
        if (!zone.has_range) {
          zone.min_s = zone.max_s = v;
          zone.has_range = true;
        } else {
          if (v < zone.min_s) zone.min_s = v;
          if (v > zone.max_s) zone.max_s = v;
        }
        break;
      }
    }
  }
  return zone;
}

namespace {

void WriteZoneMap(const SegmentColumn& col, BufferWriter* w) {
  const ZoneMap& z = col.zone;
  PutVarint(w, z.null_count);
  w->WriteU8(z.has_range ? 1 : 0);
  w->WriteU8(z.has_nan ? 1 : 0);
  if (!z.has_range) return;
  switch (col.type) {
    case DataType::kBool:
    case DataType::kInt64:
      w->WriteI64(z.min_i);
      w->WriteI64(z.max_i);
      break;
    case DataType::kFloat64:
      w->WriteDouble(z.min_d);
      w->WriteDouble(z.max_d);
      break;
    case DataType::kString:
      w->WriteString(z.min_s);
      w->WriteString(z.max_s);
      break;
  }
}

Status ReadZoneMap(BufferReader* r, SegmentColumn* col) {
  ZoneMap& z = col->zone;
  MIP_ASSIGN_OR_RETURN(z.null_count, GetVarint(r));
  MIP_ASSIGN_OR_RETURN(uint8_t has_range, r->ReadU8());
  MIP_ASSIGN_OR_RETURN(uint8_t has_nan, r->ReadU8());
  if (has_range > 1 || has_nan > 1) {
    return Status::IOError("bad zone-map flag byte");
  }
  z.has_range = has_range == 1;
  z.has_nan = has_nan == 1;
  if (!z.has_range) return Status::OK();
  switch (col->type) {
    case DataType::kBool:
    case DataType::kInt64: {
      MIP_ASSIGN_OR_RETURN(z.min_i, r->ReadI64());
      MIP_ASSIGN_OR_RETURN(z.max_i, r->ReadI64());
      break;
    }
    case DataType::kFloat64: {
      MIP_ASSIGN_OR_RETURN(z.min_d, r->ReadDouble());
      MIP_ASSIGN_OR_RETURN(z.max_d, r->ReadDouble());
      break;
    }
    case DataType::kString: {
      MIP_ASSIGN_OR_RETURN(z.min_s, r->ReadString());
      MIP_ASSIGN_OR_RETURN(z.max_s, r->ReadString());
      break;
    }
  }
  return Status::OK();
}

/// Parses + validates footer bytes. `file_size` and `footer_start` bound
/// every column block: [kSegmentHeaderBytes, footer_start).
Result<SegmentFooter> ParseFooter(const std::string& path,
                                  const std::vector<uint8_t>& footer_bytes,
                                  uint64_t footer_start) {
  BufferReader r(footer_bytes);
  SegmentFooter footer;
  MIP_ASSIGN_OR_RETURN(footer.num_rows, GetVarint(&r));
  if (footer.num_rows > kMaxWireElements) {
    return Corrupt(path, "row count " + std::to_string(footer.num_rows) +
                             " exceeds cap");
  }
  MIP_ASSIGN_OR_RETURN(uint64_t num_cols, GetVarint(&r));
  if (num_cols > kMaxSegmentColumns) {
    return Corrupt(path, "column count " + std::to_string(num_cols) +
                             " exceeds cap");
  }
  Schema dup_check;
  for (uint64_t i = 0; i < num_cols; ++i) {
    SegmentColumn col;
    MIP_ASSIGN_OR_RETURN(col.name, r.ReadString());
    MIP_ASSIGN_OR_RETURN(uint8_t type_byte, r.ReadU8());
    if (type_byte > static_cast<uint8_t>(DataType::kString)) {
      return Corrupt(path, "bad column type byte");
    }
    col.type = static_cast<DataType>(type_byte);
    MIP_RETURN_NOT_OK(ReadZoneMap(&r, &col));
    MIP_ASSIGN_OR_RETURN(col.offset, GetVarint(&r));
    MIP_ASSIGN_OR_RETURN(col.length, GetVarint(&r));
    MIP_ASSIGN_OR_RETURN(col.crc, r.ReadU32());
    if (col.offset < kSegmentHeaderBytes || col.offset > footer_start ||
        col.length > footer_start - col.offset) {
      return Corrupt(path, "column block out of bounds");
    }
    if (col.zone.null_count > footer.num_rows) {
      return Corrupt(path, "null count exceeds row count");
    }
    if (!dup_check.AddField(engine::Field{col.name, col.type}).ok()) {
      return Corrupt(path, "duplicate column name '" + col.name + "'");
    }
    footer.columns.push_back(std::move(col));
  }
  if (!r.AtEnd()) return Corrupt(path, "trailing bytes after footer");
  return footer;
}

/// Splits the trailer, checks magics/CRC, returns (footer_bytes,
/// footer_start) given the file size and a reader positioned on the raw
/// trailer+footer tail bytes.
Result<std::pair<std::vector<uint8_t>, uint64_t>> CheckTail(
    const std::string& path, uint64_t file_size,
    const std::vector<uint8_t>& tail, uint64_t tail_offset) {
  // tail holds bytes [tail_offset, file_size); the last 12 are the trailer.
  if (tail.size() < kSegmentTrailerBytes) {
    return Corrupt(path, "file too small for trailer");
  }
  BufferReader tr(tail.data() + tail.size() - kSegmentTrailerBytes,
                  kSegmentTrailerBytes);
  MIP_ASSIGN_OR_RETURN(uint32_t footer_len, tr.ReadU32());
  MIP_ASSIGN_OR_RETURN(uint32_t footer_crc, tr.ReadU32());
  MIP_ASSIGN_OR_RETURN(uint32_t magic, tr.ReadU32());
  if (magic != kSegmentFooterMagic) {
    return Corrupt(path, "bad footer magic");
  }
  if (footer_len >
      file_size - kSegmentHeaderBytes - kSegmentTrailerBytes) {
    return Corrupt(path, "footer length out of bounds");
  }
  const uint64_t footer_start =
      file_size - kSegmentTrailerBytes - footer_len;
  if (footer_start < tail_offset) {
    return Corrupt(path, "footer longer than tail read");
  }
  const size_t in_tail = static_cast<size_t>(footer_start - tail_offset);
  std::vector<uint8_t> footer_bytes(tail.begin() + in_tail,
                                    tail.end() - kSegmentTrailerBytes);
  if (Crc32(footer_bytes) != footer_crc) {
    return Corrupt(path, "footer CRC mismatch");
  }
  return std::make_pair(std::move(footer_bytes), footer_start);
}

Status CheckHeader(const std::string& path, const uint8_t* data, size_t n) {
  BufferReader r(data, n);
  MIP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kSegmentMagic) return Corrupt(path, "bad segment magic");
  MIP_ASSIGN_OR_RETURN(uint8_t version, r.ReadU8());
  if (version != kSegmentVersion) {
    return Corrupt(path, "unsupported segment version " +
                             std::to_string(version));
  }
  return Status::OK();
}

Result<Column> DecodeColumnBlock(const std::string& path,
                                 const SegmentColumn& meta,
                                 const uint8_t* block, uint64_t num_rows) {
  BufferReader r(block, static_cast<size_t>(meta.length));
  MIP_ASSIGN_OR_RETURN(uint8_t has_validity, r.ReadU8());
  if (has_validity > 1) return Corrupt(path, "bad validity flag");
  engine::Bitmap validity;
  if (has_validity == 1) {
    MIP_ASSIGN_OR_RETURN(validity, DecodeValidity(&r));
    if (validity.length() != num_rows) {
      return Corrupt(path, "validity length mismatch");
    }
  }
  Column col;
  switch (meta.type) {
    case DataType::kBool: {
      MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> v, DecodeBools(&r));
      if (v.size() != num_rows) return Corrupt(path, "bool count mismatch");
      col = Column::FromBools(std::move(v));
      break;
    }
    case DataType::kInt64: {
      MIP_ASSIGN_OR_RETURN(std::vector<int64_t> v, DecodeInts(&r));
      if (v.size() != num_rows) return Corrupt(path, "int count mismatch");
      col = Column::FromInts(std::move(v));
      break;
    }
    case DataType::kFloat64: {
      MIP_ASSIGN_OR_RETURN(std::vector<double> v, DecodeDoubles(&r));
      if (v.size() != num_rows) {
        return Corrupt(path, "double count mismatch");
      }
      col = Column::FromDoubles(std::move(v));
      break;
    }
    case DataType::kString: {
      MIP_ASSIGN_OR_RETURN(std::vector<std::string> v, DecodeStrings(&r));
      if (v.size() != num_rows) {
        return Corrupt(path, "string count mismatch");
      }
      col = Column::FromStrings(std::move(v));
      break;
    }
  }
  if (!r.AtEnd()) return Corrupt(path, "trailing bytes in column block");
  if (has_validity == 1) {
    MIP_RETURN_NOT_OK(col.SetValidity(std::move(validity)));
  }
  return col;
}

}  // namespace

Result<SegmentFooter> WriteSegment(const std::string& path,
                                   const Table& table) {
  if (table.num_rows() > kMaxWireElements) {
    return Status::InvalidArgument("segment batch exceeds row cap");
  }
  BufferWriter w;
  w.WriteU32(kSegmentMagic);
  w.WriteU8(kSegmentVersion);

  SegmentFooter footer;
  footer.num_rows = table.num_rows();
  for (size_t i = 0; i < table.num_columns(); ++i) {
    const Column& column = table.column(i);
    BufferWriter block;
    block.WriteU8(column.has_validity() ? 1 : 0);
    if (column.has_validity()) EncodeValidity(column.validity(), &block);
    switch (column.type()) {
      case DataType::kBool:
        EncodeBools(column.bools(), &block);
        break;
      case DataType::kInt64:
        EncodeInts(column.ints(), &block);
        break;
      case DataType::kFloat64:
        EncodeDoubles(column.doubles(), &block);
        break;
      case DataType::kString:
        EncodeStrings(column.strings(), &block);
        break;
    }
    const std::vector<uint8_t> block_bytes = block.TakeBytes();

    SegmentColumn col;
    col.name = table.schema().field(i).name;
    col.type = column.type();
    col.zone = ComputeZoneMap(column);
    col.offset = w.size();
    col.length = block_bytes.size();
    col.crc = Crc32(block_bytes);
    w.AppendRaw(block_bytes.data(), block_bytes.size());
    footer.columns.push_back(std::move(col));
  }

  BufferWriter f;
  PutVarint(&f, footer.num_rows);
  PutVarint(&f, footer.columns.size());
  for (const SegmentColumn& col : footer.columns) {
    f.WriteString(col.name);
    f.WriteU8(static_cast<uint8_t>(col.type));
    WriteZoneMap(col, &f);
    PutVarint(&f, col.offset);
    PutVarint(&f, col.length);
    f.WriteU32(col.crc);
  }
  const std::vector<uint8_t> footer_bytes = f.TakeBytes();
  w.AppendRaw(footer_bytes.data(), footer_bytes.size());
  w.WriteU32(static_cast<uint32_t>(footer_bytes.size()));
  w.WriteU32(Crc32(footer_bytes));
  w.WriteU32(kSegmentFooterMagic);

  MIP_RETURN_NOT_OK(WriteFileAtomic(path, w.bytes()));
  return footer;
}

Result<SegmentFooter> ReadSegmentFooter(const std::string& path) {
  MIP_ASSIGN_OR_RETURN(uint64_t size, FileSize(path));
  if (size < kSegmentHeaderBytes + kSegmentTrailerBytes) {
    return Corrupt(path, "file too small");
  }
  MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> head,
                       ReadFileRange(path, 0, kSegmentHeaderBytes));
  MIP_RETURN_NOT_OK(CheckHeader(path, head.data(), head.size()));
  // One bounded tail read covers the trailer and (almost always) the whole
  // footer; re-read exactly when the footer is larger.
  const uint64_t tail_n = std::min<uint64_t>(size, 64 * 1024);
  MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> tail,
                       ReadFileRange(path, size - tail_n, tail_n));
  auto parsed = CheckTail(path, size, tail, size - tail_n);
  if (!parsed.ok() &&
      parsed.status().message().find("longer than tail read") !=
          std::string::npos) {
    MIP_ASSIGN_OR_RETURN(tail, ReadFileBytes(path));
    parsed = CheckTail(path, size, tail, 0);
  }
  MIP_RETURN_NOT_OK(parsed.status());
  return ParseFooter(path, parsed->first, parsed->second);
}

Result<engine::Table> ReadSegmentData(const std::string& path,
                                      const SegmentFooter& footer) {
  std::vector<size_t> all(footer.columns.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return ReadSegmentColumns(path, footer, all);
}

Result<engine::Table> ReadSegmentColumns(const std::string& path,
                                         const SegmentFooter& footer,
                                         const std::vector<size_t>& columns) {
  MIP_ASSIGN_OR_RETURN(ReadOnlyFile file, ReadOnlyFile::Open(path));
  MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> head,
                       file.ReadRange(0, kSegmentHeaderBytes));
  MIP_RETURN_NOT_OK(CheckHeader(path, head.data(), head.size()));
  std::vector<Column> out;
  out.reserve(columns.size());
  Schema schema;
  for (const size_t c : columns) {
    if (c >= footer.columns.size()) {
      return Status::InvalidArgument("segment '" + path + "' has no column #" +
                                     std::to_string(c));
    }
    const SegmentColumn& meta = footer.columns[c];
    MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> block,
                         file.ReadRange(meta.offset, meta.length));
    if (Crc32(block.data(), block.size()) != meta.crc) {
      return Corrupt(path, "column '" + meta.name + "' CRC mismatch");
    }
    MIP_ASSIGN_OR_RETURN(Column col, DecodeColumnBlock(path, meta, block.data(),
                                                       footer.num_rows));
    MIP_RETURN_NOT_OK(schema.AddField(engine::Field{meta.name, meta.type}));
    out.push_back(std::move(col));
  }
  return Table::Make(std::move(schema), std::move(out));
}

Result<engine::Table> ReadSegment(const std::string& path) {
  MIP_ASSIGN_OR_RETURN(SegmentFooter footer, ReadSegmentFooter(path));
  return ReadSegmentData(path, footer);
}

// --- Zone-map pruning -------------------------------------------------------

namespace {

bool IsComparisonOp(engine::BinaryOp op) {
  switch (op) {
    case engine::BinaryOp::kEq:
    case engine::BinaryOp::kLt:
    case engine::BinaryOp::kLe:
    case engine::BinaryOp::kGt:
    case engine::BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

engine::BinaryOp MirrorOp(engine::BinaryOp op) {
  switch (op) {
    case engine::BinaryOp::kLt:
      return engine::BinaryOp::kGt;
    case engine::BinaryOp::kLe:
      return engine::BinaryOp::kGe;
    case engine::BinaryOp::kGt:
      return engine::BinaryOp::kLt;
    case engine::BinaryOp::kGe:
      return engine::BinaryOp::kLe;
    default:
      return op;  // kEq is symmetric
  }
}

void CollectConjuncts(const Expr& e, std::vector<PruneConjunct>* out) {
  if (e.kind != engine::ExprKind::kBinary) return;
  if (e.binary_op == engine::BinaryOp::kAnd) {
    for (const auto& a : e.args) CollectConjuncts(*a, out);
    return;
  }
  if (!IsComparisonOp(e.binary_op) || e.args.size() != 2) return;
  const Expr& l = *e.args[0];
  const Expr& r = *e.args[1];
  if (l.kind == engine::ExprKind::kColumnRef &&
      r.kind == engine::ExprKind::kLiteral && !r.literal.is_null()) {
    out->push_back({l.column_name, e.binary_op, r.literal});
  } else if (r.kind == engine::ExprKind::kColumnRef &&
             l.kind == engine::ExprKind::kLiteral && !l.literal.is_null()) {
    out->push_back({r.column_name, MirrorOp(e.binary_op), l.literal});
  }
}

/// Interval feasibility of `exists x in [min,max] : x op v` for a totally
/// ordered domain. Exact at the bounds: e.g. for kLt, min < v iff x=min is
/// a witness.
template <typename T>
bool RangeFeasible(const T& min, const T& max, const T& v,
                   engine::BinaryOp op) {
  switch (op) {
    case engine::BinaryOp::kEq:
      return !(v < min) && !(max < v);
    case engine::BinaryOp::kLt:
      return min < v;
    case engine::BinaryOp::kLe:
      return !(v < min);
    case engine::BinaryOp::kGt:
      return v < max;
    case engine::BinaryOp::kGe:
      return !(max < v);
    default:
      return true;
  }
}

/// Could any row of this segment column satisfy the conjunct, under the
/// engine's comparison semantics (numerics compared as doubles; NaN on
/// either side compares "equal", satisfying =, <=, >=)?
bool ConjunctFeasible(const SegmentColumn& col, uint64_t num_rows,
                      const PruneConjunct& c) {
  const ZoneMap& z = col.zone;
  const Value& lit = c.literal;
  if (z.null_count >= num_rows) return false;  // all NULL: nothing matches

  if (col.type == DataType::kString) {
    if (lit.kind() != Value::Kind::kString) return true;  // mixed: keep
    if (!z.has_range) return false;
    return RangeFeasible(z.min_s, z.max_s, lit.string_value(), c.op);
  }

  // Numeric column. Only numeric literals prune; a string literal routes
  // the engine through its string comparison path — keep conservatively.
  if (lit.kind() == Value::Kind::kString) return true;
  const double v = lit.AsDouble();
  const bool eq_like = c.op == engine::BinaryOp::kEq ||
                       c.op == engine::BinaryOp::kLe ||
                       c.op == engine::BinaryOp::kGe;
  if (std::isnan(v)) {
    // cmp(x, NaN) == 0 for every x: =, <=, >= match every non-null row;
    // <, > match none.
    return eq_like;
  }
  if (z.has_nan && eq_like) return true;  // a NaN cell matches any v
  if (!z.has_range) return false;
  double lo = 0.0, hi = 0.0;
  switch (col.type) {
    case DataType::kBool:
    case DataType::kInt64:
      // The engine compares cells as doubles; casting the exact integer
      // bounds is monotonic, so the double interval still contains every
      // converted cell value — the test stays conservative.
      lo = static_cast<double>(z.min_i);
      hi = static_cast<double>(z.max_i);
      break;
    default:
      lo = z.min_d;
      hi = z.max_d;
      break;
  }
  return RangeFeasible(lo, hi, v, c.op);
}

}  // namespace

std::vector<PruneConjunct> ExtractPruneConjuncts(const Expr& expr) {
  std::vector<PruneConjunct> out;
  CollectConjuncts(expr, &out);
  return out;
}

bool SegmentCanMatch(const SegmentFooter& footer,
                     const std::vector<PruneConjunct>& conjuncts) {
  if (footer.num_rows == 0) return false;  // empty segment: nothing to scan
  for (const PruneConjunct& c : conjuncts) {
    const SegmentColumn* col = nullptr;
    for (const SegmentColumn& candidate : footer.columns) {
      if (EqualsIgnoreCase(candidate.name, c.column)) {
        col = &candidate;
        break;
      }
    }
    if (col == nullptr) continue;  // unknown column: never prune on it
    if (!ConjunctFeasible(*col, footer.num_rows, c)) return false;
  }
  return true;
}

}  // namespace mip::storage
