#ifndef SVCBENCH_BOSD_PROCESS_H_
#define SVCBENCH_BOSD_PROCESS_H_

// Runs bosd as its own process on loopback: spawn, wait for the
// "listening on" banner, SIGTERM, wait for the clean-exit banner.

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace svcbench {

class BosdProcess {
 public:
  /// `args` are bosd's flags after the binary path; `log_path` receives
  /// bosd's stderr.
  BosdProcess(std::string binary, std::vector<std::string> args,
              std::string log_path);
  /// Kills a still-running child (SIGKILL) and reaps it.
  ~BosdProcess();
  BosdProcess(const BosdProcess&) = delete;
  BosdProcess& operator=(const BosdProcess&) = delete;

  /// Spawns bosd and waits (at most `timeout_s`) for its listening
  /// banner. Empty string on success, else what went wrong.
  std::string Start(double timeout_s = 30);

  /// SIGTERM, then waits for exit (SIGKILL after `timeout_s`). Empty
  /// string when bosd exited 0 after printing "shutdown complete".
  std::string Stop(double timeout_s = 60);

  uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM) of the running process, in KiB; 0 if
  /// unavailable.
  uint64_t PeakRssKb() const;

 private:
  std::string binary_;
  std::vector<std::string> args_;
  std::string log_path_;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string stdout_buf_;
  uint16_t port_ = 0;
};

}  // namespace svcbench

#endif  // SVCBENCH_BOSD_PROCESS_H_
