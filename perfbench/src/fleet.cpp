#include "fleet.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

using nexus::ErrorCode;
using nexus::Result;

Result<ProcSample> SampleProc(pid_t pid) {
  const std::string base =
      pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
  ProcSample out;
  {
    std::ifstream stat(base + "/stat");
    std::string line;
    if (!std::getline(stat, line)) {
      return nexus::Error(ErrorCode::kNotFound, "no " + base + "/stat");
    }
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const std::size_t close = line.rfind(')');
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    unsigned long long utime = 0;
    unsigned long long stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
      if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
    }
    const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    out.cpu_s = static_cast<double>(utime + stime) / tick;
  }
  std::ifstream status(base + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      out.hwm_mib = kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return out;
}

nexus::Status ResetPeakRss(pid_t pid) {
  const std::string path =
      (pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid)) + "/clear_refs";
  std::ofstream out(path);
  out << "5"; // 5: reset the peak RSS
  out.flush();
  if (!out) return nexus::Error(ErrorCode::kIOError, "cannot write " + path);
  return nexus::Status::Ok();
}

Result<std::unique_ptr<Daemon>> Daemon::Spawn(const std::string& binary,
                                              const std::vector<std::string>& args,
                                              int timeout_ms) {
  // Everything the child touches is prepared before fork: between fork
  // and exec only async-signal-safe calls are allowed.
  std::vector<std::string> owned;
  owned.push_back(binary);
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return nexus::Error(ErrorCode::kIOError, "pipe: " + std::string(std::strerror(errno)));
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return nexus::Error(ErrorCode::kIOError, "fork: " + std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO); // dup2 clears O_CLOEXEC on the copy
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  auto daemon = std::unique_ptr<Daemon>(new Daemon(pid, fds[0]));

  // Read the startup banner line by line until the listening line.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string buffer;
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      static constexpr char kBanner[] = "nexusd listening on ";
      const std::size_t at = line.find(kBanner);
      if (at == std::string::npos) continue;
      std::string endpoint = line.substr(at + sizeof(kBanner) - 1);
      endpoint = endpoint.substr(0, endpoint.find(' '));
      const std::size_t colon = endpoint.rfind(':');
      const long port = colon == std::string::npos
                            ? 0
                            : std::strtol(endpoint.c_str() + colon + 1, nullptr, 10);
      if (port <= 0 || port > 65535) {
        return nexus::Error(ErrorCode::kInternal, "bad nexusd banner: " + line);
      }
      daemon->port_ = static_cast<std::uint16_t>(port);
      return daemon;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return nexus::Error(ErrorCode::kIOError, "nexusd did not start in time");
    }
    pollfd p{daemon->out_fd_, POLLIN, 0};
    const int ready = poll(&p, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char chunk[512];
    const ssize_t n = read(daemon->out_fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      return nexus::Error(ErrorCode::kIOError,
                          "nexusd exited before listening (" + binary + ")");
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

Daemon::~Daemon() { Stop(); }

void Daemon::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 500 && !reaped; ++i) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno == ECHILD)) {
        reaped = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!reaped) {
      kill(pid_, SIGKILL);
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    pid_ = 0;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
}

Result<std::unique_ptr<ScratchDir>> ScratchDir::Create(const std::string& parent) {
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  std::string templ = parent + "/run-XXXXXX";
  if (mkdtemp(templ.data()) == nullptr) {
    return nexus::Error(ErrorCode::kIOError,
                        "mkdtemp under " + parent + ": " + std::strerror(errno));
  }
  return std::unique_ptr<ScratchDir>(new ScratchDir(templ));
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

} // namespace perfbench
