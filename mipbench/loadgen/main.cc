// mipbench_loadgen: runs one benchmark workload against the MIP stack and
// prints one JSON result line (see mipbench/README.md).
//
//   mipbench_loadgen --workload dashboard|explore|analysis --seed N
//       --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//       [--corrupt-reply]
//
// Exit status 0 when every answer matched its reference and every check
// held, 1 otherwise, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "procs.h"
#include "workloads.h"

namespace mipbench {
namespace {

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void PrintResult(const RunResult& r) {
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) std::printf(", ");
    PrintJsonString(m.name);
    // JSON has no infinity; an all-failed percentile prints as a huge value.
    const double v = std::isfinite(m.value) ? m.value : 1e300;
    std::printf(": {\"value\": %.17g, \"unit\": ", v);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"gateway.handle_ms", "ms"},
      {"gateway.self_ms", "ms"},
      {"gateway.cache_hit_ratio", "ratio"},
      {"gateway.cache_evictions", "count"},
      {"gateway.coalesced", "count"},
      {"gateway.shed", "count"},
      {"engine.parse_ms", "ms"},
      {"engine.plan_ms", "ms"},
      {"engine.encode_ms", "ms"},
      {"engine.decode_ms", "ms"},
      {"engine.join_build_rows", "count"},
      {"engine.join_probe_rows", "count"},
      {"engine.join_broadcast", "count"},
      {"engine.join_collect", "count"},
      {"net.client_rtt_ms", "ms"},
      {"net.rpc_ms.run_sql", "ms"},
      {"net.rpc_ms.run_sql_bound", "ms"},
      {"net.rpc_ms.get_schema", "ms"},
      {"net.rpc_ms.get_stats", "ms"},
      {"net.rpc_ms.fetch_table", "ms"},
      {"net.rpcs_per_op", "count"},
      {"net.wire_ms", "ms"},
      {"net.bytes_wire_per_op", "bytes"},
      {"net.wire_ratio", "ratio"},
      {"site.handle_ms.run_sql", "ms"},
      {"site.handle_ms.run_sql_bound", "ms"},
      {"site.handle_ms.get_schema", "ms"},
      {"site.handle_ms.get_stats", "ms"},
      {"site.handle_ms.fetch_table", "ms"},
      {"site.self_ms", "ms"},
      {"storage.self_ms", "ms"},
      {"storage.scan_ms", "ms"},
      {"storage.segments_scanned", "count"},
      {"storage.segments_pruned", "count"},
      {"storage.prune_ratio", "ratio"},
      {"storage.index_probes", "count"},
      {"storage.index_hit_ratio", "ratio"},
      {"storage.append_ms", "ms"},
      {"storage.flushes", "count"},
      {"storage.compactions", "count"},
      {"storage.segments_live", "count"},
      {"storage.memtable_rows", "count"},
      {"platform.submit_ms", "ms"},
      {"federation.local_run_ms", "ms"},
      {"federation.local_run_secure_ms", "ms"},
      {"federation.steps_per_experiment", "count"},
      {"smpc.share_ms", "ms"},
      {"smpc.triple_ms", "ms"},
      {"smpc.online_ms", "ms"},
      {"smpc.reconstruct_ms", "ms"},
      {"smpc.bytes_per_experiment", "bytes"},
      {"master.self_ms", "ms"},
      {"setup.write_s", "s"},
      {"setup.flush_s", "s"},
      {"setup.boot_s", "s"},
      {"setup.ddl_s", "s"},
      {"op.panel_p50_ms", "ms"},
      {"op.agg_p50_ms", "ms"},
      {"op.fetch_p50_ms", "ms"},
      {"op.join_p50_ms", "ms"},
      {"op.write_p50_ms", "ms"},
      {"op.plain_p50_ms", "ms"},
      {"op.secure_p50_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.ops", "count"},
      {"bench.fail_frac", "ratio"},
  };
  return metrics;
}

}  // namespace mipbench

int main(int argc, char** argv) {
  using mipbench::RunConfig;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--bin-dir") {
      config.bin_dir = value();
    } else if (arg == "--work-dir") {
      config.work_dir = value();
    } else if (arg == "--corrupt-reply") {
      config.corrupt_reply = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (config.workload != "dashboard" && config.workload != "explore" &&
      config.workload != "analysis") {
    std::fprintf(stderr, "--workload must be dashboard, explore or analysis\n");
    return 2;
  }
  if (config.work_dir.empty() || config.seconds <= 0) {
    std::fprintf(stderr, "--work-dir and a positive --seconds are required\n");
    return 2;
  }
  // Every node of the benchmark runs with the same engine pool size.
  setenv("MIP_THREADS", "2", 1);
  std::filesystem::create_directories(config.work_dir);

  mipbench::RunResult result = config.workload == "analysis"
                                   ? mipbench::RunAnalysis(config)
                                   : mipbench::RunServing(config);
  if (config.trace) {
    // Every per-layer metric, in the declared order; unexercised layers 0.
    std::map<std::string, mipbench::Metric> measured;
    for (const mipbench::Metric& m : result.metrics) measured[m.name] = m;
    result.metrics.clear();
    for (const auto& [name, unit] : mipbench::PerLayerMetrics()) {
      auto it = measured.find(name);
      result.metrics.push_back(
          {name, it == measured.end() ? 0.0 : it->second.value, unit});
    }
    for (mipbench::Metric& m : result.metrics) {
      if (m.name == "bench.fail_frac") {
        m.value = result.attempted > 0 ? static_cast<double>(result.failed) /
                                             static_cast<double>(result.attempted)
                                       : 0.0;
      }
    }
  } else if (result.attempted > 0) {
    char note[96];
    std::snprintf(note, sizeof(note), "fail_frac=%.6f",
                  static_cast<double>(result.failed) /
                      static_cast<double>(result.attempted));
    result.notes.push_back(note);
  }
  mipbench::RemoveTree(config.work_dir);
  mipbench::PrintResult(result);
  return result.correct && result.attempted > 0 ? 0 : 1;
}
