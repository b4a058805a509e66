// Experiments E17 + E18 — disk-backed segment store.
//
// E17: LSM ingest throughput and zone-map pruning on selective scans.
// A 2M-row table is ingested through the WAL'd append path (memtable budget
// far below the dataset, so everything lands in ~32 immutable segments on
// disk — the scan works a dataset well beyond its in-memory buffer). The
// bench then measures:
//   * ingest throughput (rows/s through WAL + memtable + flush);
//   * full-scan latency (every segment read and decoded);
//   * selective scans over one id-range, pruned (optimizer pushes the
//     predicate into the scan, zone maps skip non-overlapping segments)
//     vs unpruned (optimizer off: every segment read). Both run the fused
//     Filter-over-Scan path, which filters each segment as it is decoded;
//   * projected + fused filter vs full materialization at the storage
//     layer: ScanDisk(columns, row_filter) against ScanTable ->
//     SelectTableColumns -> Filter for an explore-style two-column fetch
//     on an unprunable predicate, with decoded columns/rows for both, on
//     flush segments and again after compaction (order restoration).
//
// E18: ordered secondary indexes on an UNSORTED high-cardinality column.
// The same table carries a `key` column scattered by a Knuth-multiplier
// bijection, so every segment's zone range spans nearly the whole key space
// and zone maps prune nothing. The ordered per-segment indexes built at
// flush are the only way to skip work. Measured, at ~15x the 4 MiB memtable
// budget (well beyond RAM buffers):
//   * point and narrow-range queries with the IndexScan access path vs the
//     zone-map-only path (set_index_scan(false) ablation), p50 over reps;
//   * byte-parity of both paths at 1 and 8 threads;
//   * EXPLAIN surfacing the chosen path with probe counts;
//   * the same queries after background-style compaction re-sorts the
//     table by `key` (sorted runs make narrow ranges cheap for both paths).
//
// Acceptance: E17 as before (identical results, >= 75% pruned, >= 2x p50);
// E18 adds byte-identical results across path/threads/compaction, EXPLAIN
// showing `IndexScan ... index: probes=`, and a >= 10x point-query p50
// speedup for the index path. Results go to BENCH_storage.json for CI.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/database.h"
#include "engine/exec_context.h"
#include "engine/expr.h"
#include "engine/operators.h"
#include "engine/plan.h"
#include "engine/storage_iface.h"
#include "engine/table.h"
#include "storage/io.h"
#include "storage/store.h"

namespace {

using mip::LatencyHistogram;
using mip::Rng;
using mip::Stopwatch;
using mip::engine::Column;
using mip::engine::DataType;
using mip::engine::Database;
using mip::engine::Schema;
using mip::engine::Table;

constexpr int64_t kRows = 2'000'000;
constexpr int64_t kBatchRows = 100'000;
constexpr uint64_t kSegmentRows = 64 * 1024;
constexpr int kSelectiveReps = 15;
constexpr int kIndexReps = 9;
constexpr int kProjectedReps = 9;

// Unsorted high-cardinality key: a Knuth-multiplier bijection scatters row
// position across the key space, so segment zone ranges all overlap and
// only the ordered index can localize a key.
int64_t KeyOf(int64_t i) { return (i * 2654435761LL) % 999999937LL; }

Table MakeBatch(int64_t start, int64_t count) {
  std::vector<int64_t> ids;
  std::vector<int64_t> keys;
  std::vector<double> vals;
  std::vector<std::string> sites;
  ids.reserve(count);
  keys.reserve(count);
  vals.reserve(count);
  sites.reserve(count);
  Rng rng(0xE17 + static_cast<uint64_t>(start));
  for (int64_t i = start; i < start + count; ++i) {
    ids.push_back(i);
    keys.push_back(KeyOf(i));
    vals.push_back(static_cast<double>(rng.NextBounded(100000)) * 0.01);
    sites.push_back("site_" + std::to_string(i % 7));
  }
  Schema schema({{"id", DataType::kInt64},
                 {"key", DataType::kInt64},
                 {"val", DataType::kFloat64},
                 {"site", DataType::kString}});
  return Table::Make(schema, {Column::FromInts(std::move(ids)),
                              Column::FromInts(std::move(keys)),
                              Column::FromDoubles(std::move(vals)),
                              Column::FromStrings(std::move(sites))})
      .ValueOrDie();
}

std::string TableBytes(const Table& t) {
  mip::BufferWriter w;
  mip::engine::SerializeTable(t, &w);
  return std::string(w.bytes().begin(), w.bytes().end());
}

// One side of the projected-scan comparison: p50 latency and the decode
// accounting of its last run.
struct ScanSide {
  double p50_ms = 0.0;
  mip::engine::ScanStats stats;
  size_t rows_out = 0;
  std::string bytes;
};

// E17 projected row: `SELECT id, val ... WHERE val < 5.0` (val is random,
// so zone maps prune nothing), run at the storage layer both ways, reps
// interleaved. Returns false on a scan error.
bool MeasureProjected(const mip::storage::StorageEngine& store,
                      ScanSide* fused, ScanSide* materialized) {
  using mip::engine::Binary;
  using mip::engine::BinaryOp;
  using mip::engine::Col;
  using mip::engine::LitDouble;
  const std::vector<std::string> columns = {"id", "val"};
  const mip::engine::ExprPtr pred =
      Binary(BinaryOp::kLt, Col("val"), LitDouble(5.0));
  auto run_materialized =
      [&](mip::engine::ScanStats* stats) -> mip::Result<Table> {
    MIP_ASSIGN_OR_RETURN(Table t, store.ScanTable("events", pred.get(), stats));
    MIP_ASSIGN_OR_RETURN(t, mip::engine::SelectTableColumns(t, columns));
    MIP_RETURN_NOT_OK(mip::engine::BindExpr(pred.get(), t.schema(), nullptr));
    return mip::engine::Filter(t, *pred);
  };
  auto run_fused = [&](mip::engine::ScanStats* stats) {
    mip::engine::DiskScanSpec spec;
    spec.prune_filter = pred.get();
    spec.columns = columns;
    spec.row_filter = pred.get();
    return store.ScanDisk("events", spec, stats);
  };
  LatencyHistogram fused_lat, materialized_lat;
  for (int rep = 0; rep < kProjectedReps; ++rep) {
    Stopwatch sw1;
    auto f = run_fused(&fused->stats);
    fused_lat.Record(sw1.ElapsedMillis());
    Stopwatch sw2;
    auto m = run_materialized(&materialized->stats);
    materialized_lat.Record(sw2.ElapsedMillis());
    if (!f.ok() || !m.ok()) return false;
    fused->rows_out = f.ValueOrDie().num_rows();
    materialized->rows_out = m.ValueOrDie().num_rows();
    fused->bytes = TableBytes(f.ValueOrDie());
    materialized->bytes = TableBytes(m.ValueOrDie());
  }
  fused->p50_ms = fused_lat.Quantile(0.5);
  materialized->p50_ms = materialized_lat.Quantile(0.5);
  return true;
}

void PrintProjected(const char* label, const ScanSide& fused,
                    const ScanSide& materialized) {
  std::printf(
      "%s: p50 %.2f ms vs %.2f ms materialized (%.1fx); decoded %lld cols / "
      "%lld rows vs %lld cols / %lld rows; %zu rows out\n",
      label, fused.p50_ms, materialized.p50_ms,
      fused.p50_ms > 0.0 ? materialized.p50_ms / fused.p50_ms : 0.0,
      static_cast<long long>(fused.stats.columns_decoded),
      static_cast<long long>(fused.stats.rows_decoded),
      static_cast<long long>(materialized.stats.columns_decoded),
      static_cast<long long>(materialized.stats.rows_decoded),
      fused.rows_out);
}

// Joins an EXPLAIN result's rows back into the rendered plan text.
std::string ExplainText(Database* db, const std::string& sql) {
  auto out = db->ExecuteSql("EXPLAIN " + sql);
  if (!out.ok()) return "";
  std::string text;
  for (size_t r = 0; r < out.ValueOrDie().num_rows(); ++r) {
    text += out.ValueOrDie().At(r, 0).string_value();
    text += '\n';
  }
  return text;
}

}  // namespace

int main() {
  std::printf("=== E17: disk segment store — LSM ingest + zone-map scans ===\n");
  std::printf("%lld rows, %llu-row segments, memtable budget 4 MiB\n\n",
              static_cast<long long>(kRows),
              static_cast<unsigned long long>(kSegmentRows));

  const std::string dir = "bench_storage_data";
  if (mip::storage::FileExists(dir)) {
    if (auto names = mip::storage::ListDir(dir); names.ok()) {
      for (const std::string& f : names.ValueOrDie()) {
        (void)mip::storage::RemoveFile(dir + "/" + f);
      }
    }
  }

  mip::storage::StorageOptions options;
  options.target_segment_rows = kSegmentRows;
  // E18: compaction re-sorts by the scattered key, turning the table into
  // one sorted run (flush segments stay unsorted until then).
  options.cluster_key = "key";
  auto opened = mip::storage::StorageEngine::Open(dir, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<mip::storage::StorageEngine> store =
      std::move(opened.ValueOrDie());

  // --- Ingest: WAL-first appends, auto-flushing past the memtable budget.
  Stopwatch ingest_sw;
  for (int64_t start = 0; start < kRows; start += kBatchRows) {
    auto st = store->AppendRows("events", MakeBatch(start, kBatchRows));
    if (!st.ok()) {
      std::fprintf(stderr, "append failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (auto st = store->Flush(); !st.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const double ingest_ms = ingest_sw.ElapsedMillis();
  const double ingest_rows_per_s = 1000.0 * kRows / ingest_ms;
  const uint64_t segments = store->SegmentCount("events").ValueOrDie();
  std::printf("ingest: %lld rows in %.0f ms -> %.0f rows/s, %llu segments\n",
              static_cast<long long>(kRows), ingest_ms, ingest_rows_per_s,
              static_cast<unsigned long long>(segments));

  Database db("benchstore");
  if (auto st = db.AttachStorage(store.get()); !st.ok()) {
    std::fprintf(stderr, "attach failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // --- Full scan: every segment decoded (the beyond-buffer baseline).
  Stopwatch full_sw;
  auto full = db.ExecuteSql("SELECT count(*) AS n, sum(val) AS s FROM events");
  const double full_ms = full_sw.ElapsedMillis();
  if (!full.ok()) {
    std::fprintf(stderr, "full scan failed: %s\n",
                 full.status().ToString().c_str());
    return 1;
  }
  std::printf("full scan: %.1f ms (%lld rows)\n", full_ms,
              static_cast<long long>(full.ValueOrDie().At(0, 0).int_value()));

  // --- Selective scan: one ~64K-id slice out of 2M. Zone maps should skip
  // every segment whose id range misses the slice.
  const int64_t lo = kRows / 2;
  const int64_t hi = lo + static_cast<int64_t>(kSegmentRows);
  const std::string selective_sql =
      "SELECT count(*) AS n, sum(val) AS s FROM events WHERE id >= " +
      std::to_string(lo) + " AND id < " + std::to_string(hi);

  // Prune accounting for the exact pushed-down predicate.
  using mip::engine::Binary;
  using mip::engine::BinaryOp;
  using mip::engine::Col;
  using mip::engine::LitInt;
  auto prune_expr = mip::engine::And(
      Binary(BinaryOp::kGe, Col("id"), LitInt(lo)),
      Binary(BinaryOp::kLt, Col("id"), LitInt(hi)));
  const auto preview = store->PrunePreview("events", prune_expr.get());
  const int64_t pruned_segments = preview.ok() ? preview.ValueOrDie().pruned : 0;
  const int64_t total_segments = preview.ok() ? preview.ValueOrDie().total : 0;

  LatencyHistogram pruned_lat, unpruned_lat;
  std::string pruned_rows, unpruned_rows;
  for (int rep = 0; rep < kSelectiveReps; ++rep) {
    db.set_optimizer_enabled(true);
    Stopwatch sw1;
    auto r1 = db.ExecuteSql(selective_sql);
    pruned_lat.Record(sw1.ElapsedMillis());
    db.set_optimizer_enabled(false);  // no pushdown -> no prune hint
    Stopwatch sw2;
    auto r2 = db.ExecuteSql(selective_sql);
    unpruned_lat.Record(sw2.ElapsedMillis());
    if (!r1.ok() || !r2.ok()) {
      std::fprintf(stderr, "selective scan failed\n");
      return 1;
    }
    pruned_rows = r1.ValueOrDie().ToString(10);
    unpruned_rows = r2.ValueOrDie().ToString(10);
    if (pruned_rows != unpruned_rows) break;
  }

  const double p50_pruned = pruned_lat.Quantile(0.5);
  const double p50_unpruned = unpruned_lat.Quantile(0.5);
  const double speedup = p50_pruned > 0.0 ? p50_unpruned / p50_pruned : 0.0;
  const bool identical = pruned_rows == unpruned_rows;
  const bool pruned_enough =
      total_segments > 0 && pruned_segments * 4 >= total_segments * 3;
  const bool fast_enough = speedup >= 2.0;

  std::printf("selective (pruned):   %s\n", pruned_lat.Summary().c_str());
  std::printf("selective (unpruned): %s\n", unpruned_lat.Summary().c_str());
  std::printf("segments: pruned %lld / %lld\n",
              static_cast<long long>(pruned_segments),
              static_cast<long long>(total_segments));
  std::printf("\nresults identical:  %s\n", identical ? "PASS" : "FAIL");
  std::printf("pruning >= 75%%:     %s\n", pruned_enough ? "PASS" : "FAIL");
  std::printf("p50 speedup >= 2x:  %s (got %.1fx)\n",
              fast_enough ? "PASS" : "FAIL", speedup);

  // --- Projected + fused filter vs full materialization (storage layer).
  ScanSide projected, materialized;
  if (!MeasureProjected(*store, &projected, &materialized)) {
    std::fprintf(stderr, "projected scan failed\n");
    return 1;
  }
  const bool projected_identical = projected.bytes == materialized.bytes;
  std::printf("\n");
  PrintProjected("projected+fused", projected, materialized);
  std::printf("projected results identical: %s\n",
              projected_identical ? "PASS" : "FAIL");

  const bool e17_pass =
      identical && pruned_enough && fast_enough && projected_identical;

  // =========================================================================
  // E18: ordered secondary indexes vs zone-map-only scans on `key`.
  // =========================================================================
  std::printf("\n=== E18: ordered indexes on an unsorted high-card key ===\n");
  db.set_optimizer_enabled(true);
  db.set_index_scan(true);

  const int64_t point_key = KeyOf(1'234'567);
  const int64_t range_lo = 123'456'789;
  const int64_t range_hi = range_lo + 2'000;  // a handful of scattered rows
  const std::string point_sql =
      "SELECT count(*) AS n, sum(val) AS s FROM events WHERE key = " +
      std::to_string(point_key);
  const std::string range_sql =
      "SELECT count(*) AS n, sum(val) AS s FROM events WHERE key >= " +
      std::to_string(range_lo) + " AND key < " + std::to_string(range_hi);

  // The chosen access path must be visible in EXPLAIN, probe stats and all.
  const std::string explain = ExplainText(&db, point_sql);
  const bool explain_ok =
      explain.find("IndexScan") != std::string::npos &&
      explain.find("index: probes=") != std::string::npos;
  std::printf("%s", explain.c_str());

  // Byte parity: point + range, index path vs zone path, 1 vs 8 threads.
  mip::ThreadPool pool(8);
  const mip::engine::ExecContext parallel{
      &pool, mip::engine::ExecContext::kDefaultMorselSize};
  bool e18_identical = true;
  std::string point_ref, range_ref;
  for (const mip::engine::ExecContext* ctx :
       {&mip::engine::ExecContext::Serial(), &parallel}) {
    db.set_exec_context(ctx);
    for (bool use_index : {false, true}) {
      db.set_index_scan(use_index);
      auto p = db.ExecuteSql(point_sql);
      auto r = db.ExecuteSql(range_sql);
      if (!p.ok() || !r.ok()) {
        std::fprintf(stderr, "e18 query failed\n");
        return 1;
      }
      const std::string ps = p.ValueOrDie().ToString(10);
      const std::string rs = r.ValueOrDie().ToString(10);
      if (point_ref.empty()) {
        point_ref = ps;
        range_ref = rs;
      } else if (ps != point_ref || rs != range_ref) {
        e18_identical = false;
      }
    }
  }
  db.set_exec_context(nullptr);

  // p50 latencies: index path vs zone-map-only ablation.
  auto measure = [&db](const std::string& sql, bool use_index,
                       LatencyHistogram* lat) {
    db.set_index_scan(use_index);
    for (int rep = 0; rep < kIndexReps; ++rep) {
      Stopwatch sw;
      auto r = db.ExecuteSql(sql);
      lat->Record(sw.ElapsedMillis());
      if (!r.ok()) return false;
    }
    return true;
  };
  LatencyHistogram point_idx, point_zone, range_idx, range_zone;
  if (!measure(point_sql, true, &point_idx) ||
      !measure(point_sql, false, &point_zone) ||
      !measure(range_sql, true, &range_idx) ||
      !measure(range_sql, false, &range_zone)) {
    std::fprintf(stderr, "e18 latency sweep failed\n");
    return 1;
  }
  const double point_idx_p50 = point_idx.Quantile(0.5);
  const double point_zone_p50 = point_zone.Quantile(0.5);
  const double range_idx_p50 = range_idx.Quantile(0.5);
  const double range_zone_p50 = range_zone.Quantile(0.5);
  const double point_speedup =
      point_idx_p50 > 0.0 ? point_zone_p50 / point_idx_p50 : 0.0;
  const double range_speedup =
      range_idx_p50 > 0.0 ? range_zone_p50 / range_idx_p50 : 0.0;
  std::printf("point (index):  %s\n", point_idx.Summary().c_str());
  std::printf("point (zone):   %s\n", point_zone.Summary().c_str());
  std::printf("range (index):  %s\n", range_idx.Summary().c_str());
  std::printf("range (zone):   %s\n", range_zone.Summary().c_str());

  // Compaction: fold the flush segments into one run sorted by `key`,
  // then re-run the same queries — bytes must not move.
  Stopwatch compact_sw;
  if (auto st = store->Compact("events"); !st.ok()) {
    std::fprintf(stderr, "compact failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const double compact_ms = compact_sw.ElapsedMillis();
  const uint64_t segments_after =
      store->SegmentCount("events").ValueOrDie();
  LatencyHistogram point_post, range_post;
  db.set_exec_context(&mip::engine::ExecContext::Serial());
  for (bool use_index : {false, true}) {
    db.set_index_scan(use_index);
    auto p = db.ExecuteSql(point_sql);
    auto r = db.ExecuteSql(range_sql);
    if (!p.ok() || !r.ok()) {
      std::fprintf(stderr, "post-compaction query failed\n");
      return 1;
    }
    if (p.ValueOrDie().ToString(10) != point_ref ||
        r.ValueOrDie().ToString(10) != range_ref) {
      e18_identical = false;
    }
  }
  db.set_exec_context(nullptr);
  db.set_index_scan(true);
  if (!measure(point_sql, true, &point_post) ||
      !measure(range_sql, true, &range_post)) {
    std::fprintf(stderr, "post-compaction sweep failed\n");
    return 1;
  }
  ScanSide projected_post, materialized_post;
  if (!MeasureProjected(*store, &projected_post, &materialized_post)) {
    std::fprintf(stderr, "post-compaction projected scan failed\n");
    return 1;
  }
  if (projected_post.bytes != projected.bytes ||
      materialized_post.bytes != projected.bytes) {
    e18_identical = false;
  }
  const double point_post_p50 = point_post.Quantile(0.5);
  const double range_post_p50 = range_post.Quantile(0.5);
  std::printf("compaction: %.0f ms -> %llu segments (sorted by key)\n",
              compact_ms, static_cast<unsigned long long>(segments_after));
  std::printf("point (post-compact): %s\n", point_post.Summary().c_str());
  std::printf("range (post-compact): %s\n", range_post.Summary().c_str());
  PrintProjected("projected+fused (post-compact)", projected_post,
                 materialized_post);

  const bool e18_fast = point_speedup >= 10.0;
  std::printf("\ne18 results identical:      %s\n",
              e18_identical ? "PASS" : "FAIL");
  std::printf("e18 EXPLAIN shows IndexScan: %s\n",
              explain_ok ? "PASS" : "FAIL");
  std::printf("e18 point p50 >= 10x:        %s (got %.1fx; range %.1fx)\n",
              e18_fast ? "PASS" : "FAIL", point_speedup, range_speedup);
  const bool e18_pass = e18_identical && explain_ok && e18_fast;

  const bool pass = e17_pass && e18_pass;
  if (std::FILE* f = std::fopen("BENCH_storage.json", "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"experiment\": \"E17+E18\",\n"
        "  \"rows\": %lld, \"segments\": %llu,\n"
        "  \"ingest_rows_per_s\": %.0f,\n"
        "  \"full_scan_ms\": %.2f,\n"
        "  \"selective_pruned_p50_ms\": %.3f,\n"
        "  \"selective_unpruned_p50_ms\": %.3f,\n"
        "  \"speedup_p50\": %.2f,\n"
        "  \"segments_pruned\": %lld, \"segments_total\": %lld,\n"
        "  \"results_identical\": %s,\n"
        "  \"e17_projected_p50_ms\": %.3f,\n"
        "  \"e17_materialized_p50_ms\": %.3f,\n"
        "  \"e17_projected_speedup\": %.2f,\n"
        "  \"e17_projected_columns_decoded\": %lld,\n"
        "  \"e17_materialized_columns_decoded\": %lld,\n"
        "  \"e17_projected_rows_decoded\": %lld,\n"
        "  \"e17_materialized_rows_decoded\": %lld,\n"
        "  \"e17_projected_rows_out\": %zu,\n"
        "  \"e17_projected_identical\": %s,\n"
        "  \"e17_projected_post_compact_p50_ms\": %.3f,\n"
        "  \"e17_materialized_post_compact_p50_ms\": %.3f,\n"
        "  \"e18_point_index_p50_ms\": %.3f,\n"
        "  \"e18_point_zone_p50_ms\": %.3f,\n"
        "  \"e18_point_speedup\": %.2f,\n"
        "  \"e18_range_index_p50_ms\": %.3f,\n"
        "  \"e18_range_zone_p50_ms\": %.3f,\n"
        "  \"e18_range_speedup\": %.2f,\n"
        "  \"e18_compact_ms\": %.0f,\n"
        "  \"e18_segments_after_compact\": %llu,\n"
        "  \"e18_post_compact_point_p50_ms\": %.3f,\n"
        "  \"e18_post_compact_range_p50_ms\": %.3f,\n"
        "  \"e18_explain_shows_index_scan\": %s,\n"
        "  \"e18_results_identical\": %s,\n"
        "  \"e18_pass\": %s,\n"
        "  \"pass\": %s\n"
        "}\n",
        static_cast<long long>(kRows),
        static_cast<unsigned long long>(segments), ingest_rows_per_s, full_ms,
        p50_pruned, p50_unpruned, speedup,
        static_cast<long long>(pruned_segments),
        static_cast<long long>(total_segments), identical ? "true" : "false",
        projected.p50_ms, materialized.p50_ms,
        projected.p50_ms > 0.0 ? materialized.p50_ms / projected.p50_ms : 0.0,
        static_cast<long long>(projected.stats.columns_decoded),
        static_cast<long long>(materialized.stats.columns_decoded),
        static_cast<long long>(projected.stats.rows_decoded),
        static_cast<long long>(materialized.stats.rows_decoded),
        projected.rows_out, projected_identical ? "true" : "false",
        projected_post.p50_ms, materialized_post.p50_ms, point_idx_p50,
        point_zone_p50, point_speedup, range_idx_p50,
        range_zone_p50, range_speedup, compact_ms,
        static_cast<unsigned long long>(segments_after), point_post_p50,
        range_post_p50, explain_ok ? "true" : "false",
        e18_identical ? "true" : "false", e18_pass ? "true" : "false",
        pass ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_storage.json\n");
  }
  return pass ? 0 : 1;
}
