#ifndef MIPBENCH_LOADGEN_UTIL_H_
#define MIPBENCH_LOADGEN_UTIL_H_

// Shared helpers of the load generator: clocks, order statistics, the
// result record every workload fills, and the reference comparisons.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/table.h"

namespace mipbench {

/// Monotonic milliseconds since an arbitrary process-wide epoch.
inline double NowMs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the four keys of the result line plus free-form
/// notes printed above it.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed check: the run stays reportable but not correct.
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// One closed-loop operation as the load generator saw it.
struct OpSample {
  int kind = 0;           ///< workload-defined class (agg, fetch, ...)
  double latency_ms = 0;
  double end_ms = 0;      ///< completion time (NowMs)
  bool ok = true;
};

/// Adds the load metrics of a timed window [start_ms, end_ms]: p50_ms and
/// ops_per_s as the median over kLoadSubWindows equal sub-windows (by
/// completion time), which keeps a short burst of outside noise from
/// moving them; p90_ms over all operations, so stalls still count (the
/// highest percentile that stays steady on a shared host: beyond it, the
/// sub-millisecond dashboard requests show the host's scheduling delays
/// more than the program).
/// Failed operations count as infinitely slow and are not throughput.
inline constexpr int kLoadSubWindows = 15;
void AddLoadMetrics(const std::vector<OpSample>& samples, double start_ms,
                    double end_ms, RunResult* out);

/// Median latency of the operations of one class (failed ones count as
/// infinitely slow); 0 when the class has none.
double KindP50(const std::vector<OpSample>& samples, int kind);

/// Compares a served table with its single-node reference: same schema
/// types, exact integers/strings/bools/NULLs, doubles within a relative
/// 1e-9. `ordered` = false compares rows as multisets. On mismatch fills
/// `*why` with the first difference.
bool TablesMatch(const mip::engine::Table& got, const mip::engine::Table& want,
                 bool ordered, std::string* why);

/// Order-insensitive exact digest of a table's rows (every value's bytes),
/// for large row fetches whose reference only needs to be equal.
uint64_t RowMultisetDigest(const mip::engine::Table& table);

/// Compares two rendered experiment results token by token: words must be
/// equal, numbers may differ by `rel_tol` relative plus half a unit in the
/// last printed digit. On mismatch fills `*why`.
bool RenderedResultsMatch(const std::string& got, const std::string& want,
                          double rel_tol, std::string* why);

/// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
double PeakRssMb(int pid);

/// Serializes `sql` as a run_sql payload.
std::vector<uint8_t> SqlPayload(const std::string& sql);

/// Self-test: a well-formed reply whose first cell is changed (numbers by
/// +1, strings by an appended character), or undecodable bytes when the
/// reply has no cells.
std::vector<uint8_t> CorruptReply(const std::vector<uint8_t>& bytes);

/// Decodes a run_sql reply.
mip::Result<mip::engine::Table> DecodeTable(const std::vector<uint8_t>& bytes);

}  // namespace mipbench

#endif  // MIPBENCH_LOADGEN_UTIL_H_
