#include "procs.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "util.h"

extern char** environ;

namespace mipbench {

mip::Status Child::Start(const std::vector<std::string>& argv,
                         const std::vector<std::string>& env,
                         const std::string& log_path) {
  int in_pipe[2], out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) {
    return mip::Status::IOError("pipe: " + std::string(std::strerror(errno)));
  }
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    return mip::Status::IOError("pipe: " + std::string(std::strerror(errno)));
  }
  // Everything the child needs is prepared before fork.
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) env_strings.emplace_back(*e);
  for (const std::string& kv : env) env_strings.push_back(kv);
  std::vector<char*> envp, args;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> argv_copy = argv;
  for (std::string& s : argv_copy) args.push_back(s.data());
  args.push_back(nullptr);
  const pid_t parent = getpid();

  const pid_t pid = fork();
  if (pid < 0) {
    const std::string error = std::strerror(errno);
    for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) close(fd);
    return mip::Status::IOError("fork: " + error);
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    execve(args[0], args.data(), envp.data());
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  pid_ = pid;
  stdin_fd_ = in_pipe[1];
  stdout_fd_ = out_pipe[0];
  return mip::Status::OK();
}

mip::Result<std::string> Child::WaitForLine(const std::string& prefix,
                                            double timeout_ms) {
  const double deadline = NowMs() + timeout_ms;
  for (;;) {
    size_t nl;
    while ((nl = buffered_.find('\n')) != std::string::npos) {
      std::string line = buffered_.substr(0, nl);
      buffered_.erase(0, nl + 1);
      if (line.rfind(prefix, 0) == 0) return line;
    }
    const double left = deadline - NowMs();
    if (left <= 0) {
      return mip::Status::IOError("timed out waiting for '" + prefix + "'");
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int rc = poll(&pfd, 1, static_cast<int>(left) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    char buf[512];
    const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return mip::Status::IOError("child exited before printing '" + prefix +
                                  "'");
    }
    buffered_.append(buf, static_cast<size_t>(n));
  }
}

double Child::PeakRssMb() const {
  return pid_ > 0 ? mipbench::PeakRssMb(pid_) : 0.0;
}

void Child::Stop() {
  if (pid_ <= 0) return;
  if (stdin_fd_ >= 0) close(stdin_fd_);
  stdin_fd_ = -1;
  int status = 0;
  const double deadline = NowMs() + 5000;
  bool reaped = false;
  while (NowMs() < deadline) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
      reaped = true;
      break;
    }
    usleep(2000);
  }
  if (!reaped) {
    kill(pid_, SIGKILL);
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
  pid_ = -1;
}

int ReadyField(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoi(line.c_str() + at + needle.size());
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace mipbench
