#include "util.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "common/bytes.h"

namespace mipbench {

using mip::engine::Column;
using mip::engine::DataType;
using mip::engine::Table;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(values[hi])) return frac > 0 ? values[hi] : values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void AddLoadMetrics(const std::vector<OpSample>& samples, double start_ms,
                    double end_ms, RunResult* out) {
  const double width = (end_ms - start_ms) / kLoadSubWindows;
  std::vector<std::vector<double>> lat(kLoadSubWindows);
  std::vector<double> ok(kLoadSubWindows, 0.0), all;
  for (const OpSample& s : samples) {
    const double v = s.ok ? s.latency_ms : INFINITY;
    all.push_back(v);
    const int w = std::clamp(static_cast<int>((s.end_ms - start_ms) / width), 0,
                             kLoadSubWindows - 1);
    lat[w].push_back(v);
    ok[w] += s.ok ? 1.0 : 0.0;
  }
  std::vector<double> p50, rate;
  for (int w = 0; w < kLoadSubWindows; ++w) {
    if (!lat[w].empty()) p50.push_back(Quantile(lat[w], 0.5));
    rate.push_back(ok[w] / (width / 1e3));
  }
  out->Add("p50_ms", Median(p50), "ms");
  out->Add("p90_ms", Quantile(all, 0.90), "ms");
  out->Add("ops_per_s", Median(rate), "1/s");
}

double KindP50(const std::vector<OpSample>& samples, int kind) {
  std::vector<double> lat;
  for (const OpSample& s : samples) {
    if (s.kind == kind) lat.push_back(s.ok ? s.latency_ms : INFINITY);
  }
  return Quantile(lat, 0.5);
}

namespace {

bool CellsEqual(const Column& a, size_t i, const Column& b, size_t j) {
  const bool va = a.IsValid(i);
  const bool vb = b.IsValid(j);
  if (!va || !vb) return va == vb;
  switch (a.type()) {
    case DataType::kBool:
      return a.BoolAt(i) == b.BoolAt(j);
    case DataType::kInt64:
      return a.IntAt(i) == b.IntAt(j);
    case DataType::kString:
      return a.StringAt(i) == b.StringAt(j);
    case DataType::kFloat64: {
      const double x = a.DoubleAt(i);
      const double y = b.DoubleAt(j);
      if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
      if (x == y) return true;
      return std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y));
    }
  }
  return false;
}

// Exact total order over a row, used to line up unordered results. Doubles
// compare by value, so rows that differ only within tolerance may sort
// apart; fetches return stored values verbatim, which keeps this exact
// where it is used.
bool RowLess(const Table& t, size_t i, size_t j) {
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    const bool vi = col.IsValid(i), vj = col.IsValid(j);
    if (vi != vj) return !vi;
    if (!vi) continue;
    switch (col.type()) {
      case DataType::kBool:
        if (col.BoolAt(i) != col.BoolAt(j)) return col.BoolAt(i) < col.BoolAt(j);
        break;
      case DataType::kInt64:
        if (col.IntAt(i) != col.IntAt(j)) return col.IntAt(i) < col.IntAt(j);
        break;
      case DataType::kString:
        if (col.StringAt(i) != col.StringAt(j)) {
          return col.StringAt(i) < col.StringAt(j);
        }
        break;
      case DataType::kFloat64:
        if (col.DoubleAt(i) != col.DoubleAt(j)) {
          return col.DoubleAt(i) < col.DoubleAt(j);
        }
        break;
    }
  }
  return false;
}

std::vector<size_t> SortedRows(const Table& t) {
  std::vector<size_t> idx(t.num_rows());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&t](size_t a, size_t b) { return RowLess(t, a, b); });
  return idx;
}

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

bool TablesMatch(const Table& got, const Table& want, bool ordered,
                 std::string* why) {
  if (got.num_columns() != want.num_columns()) {
    *why = "column count " + std::to_string(got.num_columns()) + " vs " +
           std::to_string(want.num_columns());
    return false;
  }
  for (size_t c = 0; c < got.num_columns(); ++c) {
    if (got.column(c).type() != want.column(c).type()) {
      *why = "type of column " + std::to_string(c) + " differs";
      return false;
    }
  }
  if (got.num_rows() != want.num_rows()) {
    *why = "row count " + std::to_string(got.num_rows()) + " vs " +
           std::to_string(want.num_rows());
    return false;
  }
  std::vector<size_t> gi(got.num_rows()), wi(want.num_rows());
  if (ordered) {
    std::iota(gi.begin(), gi.end(), 0);
    std::iota(wi.begin(), wi.end(), 0);
  } else {
    gi = SortedRows(got);
    wi = SortedRows(want);
  }
  for (size_t r = 0; r < gi.size(); ++r) {
    for (size_t c = 0; c < got.num_columns(); ++c) {
      if (!CellsEqual(got.column(c), gi[r], want.column(c), wi[r])) {
        *why = "row " + std::to_string(r) + " column " + std::to_string(c) +
               ": " + got.At(gi[r], c).ToString() + " vs " +
               want.At(wi[r], c).ToString();
        return false;
      }
    }
  }
  return true;
}

uint64_t RowMultisetDigest(const Table& table) {
  // Sum of per-row hashes: order-insensitive, duplicate-sensitive.
  uint64_t sum = 0x9E3779B97F4A7C15ull * (table.num_rows() + 1);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    uint64_t h = 1469598103934665603ull;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      const uint8_t valid = col.IsValid(r) ? 1 : 0;
      h = Fnv(h, &valid, 1);
      if (!valid) continue;
      switch (col.type()) {
        case DataType::kBool: {
          const uint8_t b = col.BoolAt(r) ? 1 : 0;
          h = Fnv(h, &b, 1);
          break;
        }
        case DataType::kInt64: {
          const int64_t v = col.IntAt(r);
          h = Fnv(h, &v, sizeof(v));
          break;
        }
        case DataType::kFloat64: {
          const double v = col.DoubleAt(r);
          h = Fnv(h, &v, sizeof(v));
          break;
        }
        case DataType::kString:
          h = Fnv(h, col.StringAt(r).data(), col.StringAt(r).size());
          break;
      }
    }
    // Finalize so that sums of similar rows do not cancel.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    sum += h;
  }
  return sum;
}

namespace {

struct Token {
  bool number = false;
  std::string text;
  double value = 0.0;
  double ulp = 0.0;  ///< one unit in the last printed digit
};

std::vector<Token> Tokenize(const std::string& s) {
  std::vector<Token> out;
  size_t i = 0;
  while (i < s.size()) {
    if (std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
      continue;
    }
    const size_t start = i;
    size_t j = i;
    if (s[j] == '-' || s[j] == '+') ++j;
    if (j < s.size() && std::isdigit(static_cast<unsigned char>(s[j]))) {
      while (j < s.size() && std::isdigit(static_cast<unsigned char>(s[j]))) ++j;
      int decimals = 0;
      if (j < s.size() && s[j] == '.') {
        ++j;
        while (j < s.size() && std::isdigit(static_cast<unsigned char>(s[j]))) {
          ++j;
          ++decimals;
        }
      }
      int exponent = 0;
      if (j + 1 < s.size() && (s[j] == 'e' || s[j] == 'E') &&
          (std::isdigit(static_cast<unsigned char>(s[j + 1])) ||
           s[j + 1] == '-' || s[j + 1] == '+')) {
        size_t k = j + 1;
        if (s[k] == '-' || s[k] == '+') ++k;
        if (k < s.size() && std::isdigit(static_cast<unsigned char>(s[k]))) {
          while (k < s.size() && std::isdigit(static_cast<unsigned char>(s[k]))) {
            ++k;
          }
          exponent = std::atoi(s.substr(j + 1, k - j - 1).c_str());
          j = k;
        }
      }
      Token t;
      t.number = true;
      t.text = s.substr(start, j - start);
      t.value = std::strtod(t.text.c_str(), nullptr);
      t.ulp = std::pow(10.0, exponent - decimals);
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    // A word: up to the next space or digit-led number.
    j = i + 1;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j])) &&
           !std::isdigit(static_cast<unsigned char>(s[j])) && s[j] != '-') {
      ++j;
    }
    out.push_back({false, s.substr(start, j - start), 0.0, 0.0});
    i = j;
  }
  return out;
}

}  // namespace

bool RenderedResultsMatch(const std::string& got, const std::string& want,
                          double rel_tol, std::string* why) {
  const std::vector<Token> a = Tokenize(got);
  const std::vector<Token> b = Tokenize(want);
  if (a.size() != b.size()) {
    *why = "token count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].number != b[i].number) {
      *why = "token " + std::to_string(i) + ": '" + a[i].text + "' vs '" +
             b[i].text + "'";
      return false;
    }
    if (!a[i].number) {
      if (a[i].text != b[i].text) {
        *why = "word '" + a[i].text + "' vs '" + b[i].text + "'";
        return false;
      }
      continue;
    }
    const double x = a[i].value, y = b[i].value;
    const double tol = rel_tol * std::max(std::fabs(x), std::fabs(y)) +
                       0.5 * std::max(a[i].ulp, b[i].ulp) * 1.0001;
    if (std::fabs(x - y) > tol) {
      *why = "number " + a[i].text + " vs " + b[i].text;
      return false;
    }
  }
  return true;
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::vector<uint8_t> SqlPayload(const std::string& sql) {
  mip::BufferWriter writer;
  writer.WriteString(sql);
  return writer.TakeBytes();
}

std::vector<uint8_t> CorruptReply(const std::vector<uint8_t>& bytes) {
  mip::Result<Table> table = DecodeTable(bytes);
  if (!table.ok() || table->num_rows() == 0 || table->num_columns() == 0) {
    return std::vector<uint8_t>(bytes.begin(), bytes.begin() + bytes.size() / 2);
  }
  std::vector<Column> columns;
  for (size_t c = 0; c < table->num_columns(); ++c) {
    const Column& col = table->column(c);
    Column out(col.type());
    for (size_t r = 0; r < col.length(); ++r) {
      mip::engine::Value v = col.ValueAt(r);
      if (c == 0 && r == 0) {
        switch (col.type()) {
          case DataType::kBool:
            v = mip::engine::Value::Bool(!col.IsValid(r) || !col.BoolAt(r));
            break;
          case DataType::kInt64:
            v = mip::engine::Value::Int(col.IsValid(r) ? col.IntAt(r) + 1 : 1);
            break;
          case DataType::kFloat64:
            v = mip::engine::Value::Double(col.IsValid(r) ? col.DoubleAt(r) + 1 : 1);
            break;
          case DataType::kString:
            v = mip::engine::Value::String(col.IsValid(r) ? col.StringAt(r) + "x" : "x");
            break;
        }
      }
      (void)out.AppendValue(v);
    }
    columns.push_back(std::move(out));
  }
  mip::BufferWriter writer;
  mip::engine::SerializeTable(
      Table::Make(table->schema(), std::move(columns)).ValueOrDie(), &writer);
  return writer.TakeBytes();
}

mip::Result<Table> DecodeTable(const std::vector<uint8_t>& bytes) {
  mip::BufferReader reader(bytes);
  return mip::engine::DeserializeTable(&reader);
}

}  // namespace mipbench
