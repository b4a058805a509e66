#ifndef MIPBENCH_LOADGEN_WORKLOADS_H_
#define MIPBENCH_LOADGEN_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util.h"

namespace mipbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;   ///< holds mip_worker and mip_gateway
  std::string work_dir;  ///< scratch space for site data, removed at exit
  /// Self-test hook: flip one byte of one served reply before it is
  /// checked, which the reference checker must flag.
  bool corrupt_reply = false;
};

/// `dashboard` and `explore`: the gateway and three disk-backed sites.
RunResult RunServing(const RunConfig& config);

/// `analysis`: experiments over eight in-memory sites and the SMPC cluster.
RunResult RunAnalysis(const RunConfig& config);

/// Every per-layer metric the traced run reports, with its unit, in print
/// order. A traced run prints all of them; layers a workload does not
/// exercise read 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace mipbench

#endif  // MIPBENCH_LOADGEN_WORKLOADS_H_
