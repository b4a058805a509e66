#ifndef MIPBENCH_LOADGEN_PROCS_H_
#define MIPBENCH_LOADGEN_PROCS_H_

// Child daemons (mip_worker / mip_gateway) owned by the load generator: started with
// a stdin pipe that is their lifetime, a READY line read from stdout, and
// reaped on every exit path. Children die with the load generator (PDEATHSIG).

#include <string>
#include <vector>

#include "common/result.h"

namespace mipbench {

class Child {
 public:
  Child() = default;
  ~Child() { Stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts `argv[0]` with `argv`, extra `env` entries ("K=V") on top of
  /// the load generator's environment, and stderr appended to `log_path`.
  mip::Status Start(const std::vector<std::string>& argv,
                    const std::vector<std::string>& env,
                    const std::string& log_path);

  /// Reads stdout lines until one starts with `prefix`; returns it. Fails
  /// if the child exits or `timeout_ms` passes first.
  mip::Result<std::string> WaitForLine(const std::string& prefix,
                                       double timeout_ms);

  /// Peak resident set of the child so far, in MiB.
  double PeakRssMb() const;

  /// Closes stdin (the daemon's shutdown signal), waits up to 5 s, then
  /// SIGKILLs and reaps. Idempotent.
  void Stop();

 private:
  int pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::string buffered_;
};

/// Value of `key=<int>` inside a READY line, or -1.
int ReadyField(const std::string& line, const std::string& key);

/// Removes a directory tree (no-op when absent).
void RemoveTree(const std::string& path);

}  // namespace mipbench

#endif  // MIPBENCH_LOADGEN_PROCS_H_
