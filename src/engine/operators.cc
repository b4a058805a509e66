#include "engine/operators.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <unordered_map>

#include "engine/vectorized.h"

namespace mip::engine {

namespace {

/// Streaming state for one aggregate output.
///
/// Aggregation is morsel-parallel: each morsel streams its rows into a
/// private AggState, then the per-morsel partials are merged (Merge) in
/// morsel order. Morsel boundaries depend only on ExecContext::morsel_size,
/// so the merge tree — and therefore every last bit of the result — is
/// identical at any thread count.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double m2 = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  Value min_value;  // typed min/max (strings supported)
  Value max_value;
  std::set<std::string> distinct;  // only populated for COUNT(DISTINCT)

  void Add(const Value& v, AggFunc func) {
    if (v.is_null()) return;
    ++count;
    if (func == AggFunc::kCountDistinct) {
      std::string key;
      key.push_back(static_cast<char>(v.kind()));
      key += v.ToString();
      distinct.insert(std::move(key));
      return;
    }
    if (v.kind() == Value::Kind::kString) {
      if (min_value.is_null() ||
          v.string_value() < min_value.string_value()) {
        min_value = v;
      }
      if (max_value.is_null() ||
          v.string_value() > max_value.string_value()) {
        max_value = v;
      }
      return;
    }
    AddNumeric(v.AsDouble(), v);
  }

  /// Unboxed fast paths for the numeric aggregate functions — same updates
  /// as Add() on the equivalent boxed value, minus the Value round-trip.
  void AddDouble(double x) { AddNumericTracked(x, Value::Kind::kDouble, 0); }
  void AddInt(int64_t v) {
    AddNumericTracked(static_cast<double>(v), Value::Kind::kInt, v);
  }

  /// Merges `o` into this state, where `o` accumulated a later row range.
  /// Must be applied in morsel order: min/max ties and the variance combine
  /// assume `this` precedes `o`.
  void Merge(const AggState& o, AggFunc /*func*/) {
    if (o.count == 0) return;
    if (count == 0) {
      *this = o;
      return;
    }
    distinct.insert(o.distinct.begin(), o.distinct.end());
    // String min/max (numeric states keep these in lockstep with min/max).
    if (!o.min_value.is_null() &&
        o.min_value.kind() == Value::Kind::kString) {
      if (min_value.is_null() ||
          o.min_value.string_value() < min_value.string_value()) {
        min_value = o.min_value;
      }
      if (max_value.is_null() ||
          o.max_value.string_value() > max_value.string_value()) {
        max_value = o.max_value;
      }
    } else {
      // Strict comparisons: on ties the earlier morsel wins, matching the
      // serial stream's first-occurrence behavior.
      if (o.min < min) {
        min = o.min;
        min_value = o.min_value;
      }
      if (o.max > max) {
        max = o.max;
        max_value = o.max_value;
      }
    }
    // Chan et al. pairwise combine of (count, mean, m2).
    const double na = static_cast<double>(count);
    const double nb = static_cast<double>(o.count);
    const double nt = na + nb;
    const double delta = o.mean - mean;
    mean += delta * (nb / nt);
    m2 += o.m2 + delta * delta * na * (nb / nt);
    sum += o.sum;
    count += o.count;
  }

  Value Finish(AggFunc func, int64_t group_rows) const {
    switch (func) {
      case AggFunc::kCountStar:
        return Value::Int(group_rows);
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kCountDistinct:
        return Value::Int(static_cast<int64_t>(distinct.size()));
      case AggFunc::kSum:
        return count > 0 ? Value::Double(sum) : Value::Null();
      case AggFunc::kAvg:
        return count > 0 ? Value::Double(mean) : Value::Null();
      case AggFunc::kMin:
        return min_value;
      case AggFunc::kMax:
        return max_value;
      case AggFunc::kVarSamp:
        return count > 1
                   ? Value::Double(m2 / static_cast<double>(count - 1))
                   : Value::Null();
      case AggFunc::kStddevSamp:
        return count > 1
                   ? Value::Double(
                         std::sqrt(m2 / static_cast<double>(count - 1)))
                   : Value::Null();
    }
    return Value::Null();
  }

 private:
  void AddNumeric(double x, const Value& v) {
    sum += x;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
    if (x < min) {
      min = x;
      min_value = v;
    }
    if (x > max) {
      max = x;
      max_value = v;
    }
  }

  void AddNumericTracked(double x, Value::Kind kind, int64_t iv) {
    ++count;
    sum += x;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
    if (x < min) {
      min = x;
      min_value = kind == Value::Kind::kInt ? Value::Int(iv)
                                            : Value::Double(x);
    }
    if (x > max) {
      max = x;
      max_value = kind == Value::Kind::kInt ? Value::Int(iv)
                                            : Value::Double(x);
    }
  }
};

/// Streams row `r` of `col` into `state`, taking the unboxed path for
/// numeric columns (the hot aggregate loop) and the boxed path otherwise.
inline void AddRow(const Column& col, size_t r, AggFunc func,
                   AggState* state) {
  if (func != AggFunc::kCountDistinct) {
    if (col.type() == DataType::kFloat64) {
      if (col.IsValid(r)) state->AddDouble(col.doubles()[r]);
      return;
    }
    if (col.type() == DataType::kInt64) {
      if (col.IsValid(r)) state->AddInt(col.ints()[r]);
      return;
    }
  }
  state->Add(col.ValueAt(r), func);
}

DataType AggOutputType(const AggregateSpec& spec) {
  switch (spec.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
    case AggFunc::kCountDistinct:
      return DataType::kInt64;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return spec.arg != nullptr ? spec.arg->result_type
                                 : DataType::kFloat64;
    default:
      return DataType::kFloat64;
  }
}

// Encodes a grouping key tuple into a hashable string with type tags.
std::string EncodeKey(const std::vector<Column>& key_cols, size_t row) {
  std::string key;
  for (const Column& c : key_cols) {
    const Value v = c.ValueAt(row);
    key.push_back(static_cast<char>(v.kind()));
    key += v.ToString();
    key.push_back('\x1f');
  }
  return key;
}

}  // namespace

Result<Table> Filter(const Table& table, const Expr& predicate,
                     const FunctionRegistry* registry,
                     const ExecContext* exec) {
  MIP_ASSIGN_OR_RETURN(std::vector<int64_t> sel,
                       EvalPredicate(predicate, table, registry, exec));
  return table.Take(sel);
}

Result<Table> Project(const Table& table, const std::vector<ExprPtr>& exprs,
                      const std::vector<std::string>& names,
                      const FunctionRegistry* registry,
                      const ExecContext* exec) {
  if (exprs.size() != names.size()) {
    return Status::InvalidArgument("project exprs/names size mismatch");
  }
  Schema schema;
  std::vector<Column> columns;
  for (size_t i = 0; i < exprs.size(); ++i) {
    MIP_ASSIGN_OR_RETURN(Column col,
                         EvalVectorized(*exprs[i], table, registry, exec));
    MIP_RETURN_NOT_OK(schema.AddField(Field{names[i], col.type()}));
    columns.push_back(std::move(col));
  }
  return Table::Make(std::move(schema), std::move(columns));
}

Result<Table> AggregateAll(const Table& table,
                           const std::vector<AggregateSpec>& aggs,
                           const FunctionRegistry* registry,
                           const ExecContext* exec) {
  const ExecContext& ctx = ExecContext::Resolve(exec);
  std::vector<Column> arg_cols;
  arg_cols.reserve(aggs.size());
  for (const AggregateSpec& a : aggs) {
    if (a.arg != nullptr) {
      MIP_ASSIGN_OR_RETURN(Column c,
                           EvalVectorized(*a.arg, table, registry, &ctx));
      arg_cols.push_back(std::move(c));
    } else {
      arg_cols.emplace_back(DataType::kFloat64);
    }
  }
  const size_t n = table.num_rows();
  // Per-morsel partial states, merged in morsel order below.
  std::vector<std::vector<AggState>> partials(
      ctx.NumMorsels(n), std::vector<AggState>(aggs.size()));
  ctx.ForEachMorsel(n, [&](size_t morsel, size_t begin, size_t end) {
    std::vector<AggState>& local = partials[morsel];
    for (size_t r = begin; r < end; ++r) {
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (aggs[i].arg != nullptr) {
          AddRow(arg_cols[i], r, aggs[i].func, &local[i]);
        }
      }
    }
  });
  std::vector<AggState> states(aggs.size());
  for (const std::vector<AggState>& local : partials) {
    for (size_t i = 0; i < aggs.size(); ++i) {
      states[i].Merge(local[i], aggs[i].func);
    }
  }
  Schema schema;
  std::vector<Column> columns;
  for (size_t i = 0; i < aggs.size(); ++i) {
    const DataType type = AggOutputType(aggs[i]);
    MIP_RETURN_NOT_OK(schema.AddField(Field{aggs[i].output_name, type}));
    Column col(type);
    MIP_RETURN_NOT_OK(col.AppendValue(states[i].Finish(
        aggs[i].func, static_cast<int64_t>(table.num_rows()))));
    columns.push_back(std::move(col));
  }
  return Table::Make(std::move(schema), std::move(columns));
}

Result<Table> GroupByAggregate(const Table& table,
                               const std::vector<ExprPtr>& keys,
                               const std::vector<std::string>& key_names,
                               const std::vector<AggregateSpec>& aggs,
                               const FunctionRegistry* registry,
                               const ExecContext* exec) {
  if (keys.empty()) return AggregateAll(table, aggs, registry, exec);
  if (keys.size() != key_names.size()) {
    return Status::InvalidArgument("group keys/names size mismatch");
  }
  const ExecContext& ctx = ExecContext::Resolve(exec);

  std::vector<Column> key_cols;
  for (const ExprPtr& k : keys) {
    MIP_ASSIGN_OR_RETURN(Column c, EvalVectorized(*k, table, registry, &ctx));
    key_cols.push_back(std::move(c));
  }
  std::vector<Column> arg_cols;
  for (const AggregateSpec& a : aggs) {
    if (a.arg != nullptr) {
      MIP_ASSIGN_OR_RETURN(Column c,
                           EvalVectorized(*a.arg, table, registry, &ctx));
      arg_cols.push_back(std::move(c));
    } else {
      arg_cols.emplace_back(DataType::kFloat64);
    }
  }

  struct Group {
    size_t first_row;
    int64_t rows = 0;
    std::vector<AggState> states;
  };
  // Each morsel builds a private hash table; groups keep within-morsel
  // first-seen order.
  struct PartialGroups {
    std::unordered_map<std::string, size_t> index;
    std::vector<std::string> insertion_keys;
    std::vector<Group> groups;
  };
  const size_t n = table.num_rows();
  std::vector<PartialGroups> parts(ctx.NumMorsels(n));
  ctx.ForEachMorsel(n, [&](size_t morsel, size_t begin, size_t end) {
    PartialGroups& part = parts[morsel];
    for (size_t r = begin; r < end; ++r) {
      std::string key = EncodeKey(key_cols, r);
      auto [it, inserted] = part.index.emplace(key, part.groups.size());
      if (inserted) {
        part.insertion_keys.push_back(std::move(key));
        Group g;
        g.first_row = r;
        g.states.resize(aggs.size());
        part.groups.push_back(std::move(g));
      }
      Group& g = part.groups[it->second];
      ++g.rows;
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (aggs[i].arg != nullptr) {
          AddRow(arg_cols[i], r, aggs[i].func, &g.states[i]);
        }
      }
    }
  });

  // Merge partial tables in morsel order. A key's first insertion comes from
  // the lowest morsel containing it, and morsels scan disjoint ascending row
  // ranges, so the resulting group order (and first_row) equals the serial
  // whole-table scan's first-seen order.
  std::unordered_map<std::string, size_t> index;
  std::vector<Group> groups;
  for (PartialGroups& part : parts) {
    for (size_t gi = 0; gi < part.groups.size(); ++gi) {
      auto [it, inserted] =
          index.emplace(std::move(part.insertion_keys[gi]), groups.size());
      if (inserted) {
        groups.push_back(std::move(part.groups[gi]));
        continue;
      }
      Group& g = groups[it->second];
      const Group& pg = part.groups[gi];
      g.rows += pg.rows;
      for (size_t i = 0; i < aggs.size(); ++i) {
        g.states[i].Merge(pg.states[i], aggs[i].func);
      }
    }
  }

  Schema schema;
  std::vector<Column> out_cols;
  for (size_t i = 0; i < keys.size(); ++i) {
    MIP_RETURN_NOT_OK(
        schema.AddField(Field{key_names[i], key_cols[i].type()}));
    Column col(key_cols[i].type());
    for (const Group& g : groups) {
      MIP_RETURN_NOT_OK(col.AppendValue(key_cols[i].ValueAt(g.first_row)));
    }
    out_cols.push_back(std::move(col));
  }
  for (size_t i = 0; i < aggs.size(); ++i) {
    const DataType type = AggOutputType(aggs[i]);
    MIP_RETURN_NOT_OK(schema.AddField(Field{aggs[i].output_name, type}));
    Column col(type);
    for (const Group& g : groups) {
      MIP_RETURN_NOT_OK(
          col.AppendValue(g.states[i].Finish(aggs[i].func, g.rows)));
    }
    out_cols.push_back(std::move(col));
  }
  return Table::Make(std::move(schema), std::move(out_cols));
}

Result<Table> SortBy(const Table& table, const std::vector<std::string>& keys,
                     const std::vector<bool>& ascending) {
  if (keys.size() != ascending.size()) {
    return Status::InvalidArgument("sort keys/direction size mismatch");
  }
  std::vector<const Column*> cols;
  for (const std::string& k : keys) {
    MIP_ASSIGN_OR_RETURN(const Column* c, table.ColumnByName(k));
    cols.push_back(c);
  }
  std::vector<int64_t> idx(table.num_rows());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int64_t>(i);

  auto compare_rows = [&](int64_t a, int64_t b) {
    for (size_t k = 0; k < cols.size(); ++k) {
      const Column& c = *cols[k];
      const bool av = c.IsValid(static_cast<size_t>(a));
      const bool bv = c.IsValid(static_cast<size_t>(b));
      if (!av && !bv) continue;
      if (!av) return false;  // NULLs last
      if (!bv) return true;
      int cmp = 0;
      if (c.type() == DataType::kString) {
        cmp = c.StringAt(static_cast<size_t>(a))
                  .compare(c.StringAt(static_cast<size_t>(b)));
      } else {
        const double x = c.AsDoubleAt(static_cast<size_t>(a));
        const double y = c.AsDoubleAt(static_cast<size_t>(b));
        cmp = x < y ? -1 : (x > y ? 1 : 0);
      }
      if (cmp != 0) return ascending[k] ? cmp < 0 : cmp > 0;
    }
    return false;
  };
  std::stable_sort(idx.begin(), idx.end(), compare_rows);
  return table.Take(idx);
}

namespace {

/// Typed gather with -1 => NULL (the left-join null-extension path; plain
/// Column::Take cannot express a missing row).
Column TakeWithNulls(const Column& col, const std::vector<int64_t>& idx) {
  Column out(col.type());
  out.Reserve(idx.size());
  for (int64_t i : idx) {
    if (i < 0 || !col.IsValid(static_cast<size_t>(i))) {
      out.AppendNull();
      continue;
    }
    const size_t r = static_cast<size_t>(i);
    switch (col.type()) {
      case DataType::kBool:
        out.AppendBool(col.BoolAt(r));
        break;
      case DataType::kInt64:
        out.AppendInt(col.IntAt(r));
        break;
      case DataType::kFloat64:
        out.AppendDouble(col.DoubleAt(r));
        break;
      case DataType::kString:
        out.AppendString(col.StringAt(r));
        break;
    }
  }
  return out;
}

/// Normalized numeric key bits: -0.0 folds into +0.0 so values the
/// comparison kernels call equal hash equal. Callers exclude NaN first.
uint64_t NumericKeyBits(double v) {
  if (v == 0.0) v = 0.0;
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_key,
                       const std::string& right_key, JoinType type,
                       const ExecContext* exec) {
  MIP_ASSIGN_OR_RETURN(const Column* lkey, left.ColumnByName(left_key));
  MIP_ASSIGN_OR_RETURN(const Column* rkey, right.ColumnByName(right_key));
  const ExecContext& ctx = ExecContext::Resolve(exec);

  // Key semantics mirror the engine's comparison kernels: NULL keys never
  // match; two string keys compare as strings; numeric keys (bool/int/
  // double) compare through the double view, so 5 joins 5.0; a NaN key —
  // including every cell of a string column probed against a numeric one —
  // matches nothing. Build runs serially over the right side in row order,
  // so per-key match lists carry build-insertion order.
  const bool string_keys =
      lkey->type() == DataType::kString && rkey->type() == DataType::kString;
  const bool numeric_keys =
      lkey->type() != DataType::kString && rkey->type() != DataType::kString;
  std::unordered_map<std::string, std::vector<int64_t>> string_build;
  std::unordered_map<uint64_t, std::vector<int64_t>> numeric_build;
  if (string_keys) {
    string_build.reserve(right.num_rows());
    for (size_t r = 0; r < right.num_rows(); ++r) {
      if (!rkey->IsValid(r)) continue;
      string_build[rkey->StringAt(r)].push_back(static_cast<int64_t>(r));
    }
  } else if (numeric_keys) {
    numeric_build.reserve(right.num_rows());
    for (size_t r = 0; r < right.num_rows(); ++r) {
      if (!rkey->IsValid(r)) continue;
      const double v = rkey->AsDoubleAt(r);
      if (std::isnan(v)) continue;
      numeric_build[NumericKeyBits(v)].push_back(static_cast<int64_t>(r));
    }
  }
  // Mixed string/numeric keys build nothing: no probe can match.

  // Probe phase: morsel-parallel over the left side into per-morsel index
  // pairs, concatenated in morsel order — byte-identical to the serial
  // probe at any thread count (the determinism contract every vectorized
  // operator in this engine keeps).
  const size_t n = left.num_rows();
  const size_t num_morsels = ctx.NumMorsels(n);
  std::vector<std::vector<int64_t>> l_parts(num_morsels);
  std::vector<std::vector<int64_t>> r_parts(num_morsels);
  ctx.ForEachMorsel(n, [&](size_t morsel, size_t begin, size_t end) {
    std::vector<int64_t>& li = l_parts[morsel];
    std::vector<int64_t>& ri = r_parts[morsel];
    for (size_t l = begin; l < end; ++l) {
      const std::vector<int64_t>* matches = nullptr;
      if (lkey->IsValid(l)) {
        if (string_keys) {
          auto it = string_build.find(lkey->StringAt(l));
          if (it != string_build.end()) matches = &it->second;
        } else if (numeric_keys) {
          const double v = lkey->AsDoubleAt(l);
          if (!std::isnan(v)) {
            auto it = numeric_build.find(NumericKeyBits(v));
            if (it != numeric_build.end()) matches = &it->second;
          }
        }
      }
      if (matches != nullptr) {
        for (int64_t r : *matches) {
          li.push_back(static_cast<int64_t>(l));
          ri.push_back(r);
        }
      } else if (type == JoinType::kLeft) {
        li.push_back(static_cast<int64_t>(l));
        ri.push_back(-1);  // null-extended
      }
    }
  });
  size_t total = 0;
  for (const auto& part : l_parts) total += part.size();
  std::vector<int64_t> left_idx;
  std::vector<int64_t> right_idx;
  left_idx.reserve(total);
  right_idx.reserve(total);
  for (size_t m = 0; m < num_morsels; ++m) {
    left_idx.insert(left_idx.end(), l_parts[m].begin(), l_parts[m].end());
    right_idx.insert(right_idx.end(), r_parts[m].begin(), r_parts[m].end());
  }

  Schema schema;
  std::vector<Column> columns;
  for (size_t c = 0; c < left.num_columns(); ++c) {
    MIP_RETURN_NOT_OK(schema.AddField(left.schema().field(c)));
    columns.push_back(left.column(c).Take(left_idx));
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    Field f = right.schema().field(c);
    if (schema.FieldIndex(f.name) >= 0) f.name += "_r";
    MIP_RETURN_NOT_OK(schema.AddField(f));
    columns.push_back(TakeWithNulls(right.column(c), right_idx));
  }
  return Table::Make(std::move(schema), std::move(columns));
}

Table Limit(const Table& table, size_t limit, size_t offset) {
  return table.Slice(offset, limit);
}

Result<Table> SelectTableColumns(const Table& table,
                                 const std::vector<std::string>& columns) {
  Schema schema;
  std::vector<Column> cols;
  for (const std::string& name : columns) {
    const int idx = table.schema().FieldIndex(name);
    if (idx < 0) {
      return Status::Internal("pruned column '" + name +
                              "' missing from scanned table");
    }
    MIP_RETURN_NOT_OK(
        schema.AddField(table.schema().field(static_cast<size_t>(idx))));
    cols.push_back(table.column(static_cast<size_t>(idx)));
  }
  return Table::Make(std::move(schema), std::move(cols));
}

}  // namespace mip::engine
