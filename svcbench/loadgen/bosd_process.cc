#include "bosd_process.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "spans.h"

namespace svcbench {

namespace {

// Reads whatever is available on `fd` within `timeout_ms` into `*buf`.
// Returns false on EOF.
bool ReadSome(int fd, int timeout_ms, std::string* buf) {
  pollfd p{fd, POLLIN, 0};
  const int r = ::poll(&p, 1, timeout_ms);
  if (r <= 0) return true;  // timeout (or EINTR): nothing yet
  char tmp[4096];
  const ssize_t n = ::read(fd, tmp, sizeof(tmp));
  if (n <= 0) return false;
  buf->append(tmp, static_cast<size_t>(n));
  return true;
}

}  // namespace

BosdProcess::BosdProcess(std::string binary, std::vector<std::string> args,
                         std::string log_path)
    : binary_(std::move(binary)),
      args_(std::move(args)),
      log_path_(std::move(log_path)) {}

BosdProcess::~BosdProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

std::string BosdProcess::Start(double timeout_s) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return std::string("pipe: ") + std::strerror(errno);
  const int log_fd =
      ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return "cannot open " + log_path_;
  }
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary_);
  argv_storage.insert(argv_storage.end(), args_.begin(), args_.end());
  std::vector<char*> argv;
  for (auto& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::close(log_fd);
    return std::string("fork: ") + std::strerror(errno);
  }
  if (pid == 0) {
    // Child: die with the benchmark, never outlive it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::close(log_fd);
    ::execv(binary_.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  ::close(log_fd);
  pid_ = pid;
  stdout_fd_ = out_pipe[0];

  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  const std::string banner = "listening on 127.0.0.1:";
  while (NowNs() < deadline) {
    const size_t at = stdout_buf_.find(banner);
    if (at != std::string::npos &&
        stdout_buf_.find('\n', at) != std::string::npos) {
      port_ = static_cast<uint16_t>(
          std::strtoul(stdout_buf_.c_str() + at + banner.size(), nullptr, 10));
      return port_ != 0 ? "" : "unparseable bosd banner: " + stdout_buf_;
    }
    if (!ReadSome(stdout_fd_, 50, &stdout_buf_)) break;
  }
  return "bosd did not report a listening port (see " + log_path_ + "): " +
         stdout_buf_;
}

std::string BosdProcess::Stop(double timeout_s) {
  if (pid_ <= 0) return "";
  ::kill(pid_, SIGTERM);
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  int status = 0;
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 && NowNs() < deadline) {
    ReadSome(stdout_fd_, 20, &stdout_buf_);
  }
  std::string err;
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    err = "bosd ignored SIGTERM for " + std::to_string(timeout_s) + " s";
  }
  while (ReadSome(stdout_fd_, 0, &stdout_buf_)) {
    if (stdout_buf_.find("shutdown complete") != std::string::npos) break;
  }
  pid_ = -1;
  ::close(stdout_fd_);
  stdout_fd_ = -1;
  if (!err.empty()) return err;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return "bosd exited abnormally (status " + std::to_string(status) + ")";
  }
  if (stdout_buf_.find("shutdown complete") == std::string::npos) {
    return "bosd exited without its shutdown banner";
  }
  return "";
}

uint64_t BosdProcess::PeakRssKb() const {
  if (pid_ <= 0) return 0;
  const std::string path = "/proc/" + std::to_string(pid_) + "/status";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace svcbench
