// nexusd daemons as child processes, plus /proc sampling.
//
// Each Daemon is a separate nexusd process spawned from the built binary.
// Its port is parsed from the "nexusd listening on ADDR:PORT" line it
// prints once serving. The child asks the kernel to SIGKILL it if the
// benchmark dies, and Stop() (also run by the destructor, so every exit
// path reaps) sends SIGTERM, waits, escalates to SIGKILL and reaps.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace perfbench {

/// CPU and memory of one process, read from /proc.
struct ProcSample {
  double cpu_s = 0;      // utime + stime
  double hwm_mib = 0;    // VmHWM (peak resident set)
};
/// `pid` 0 reads the calling process.
nexus::Result<ProcSample> SampleProc(pid_t pid);
/// Resets the peak resident set (VmHWM) of `pid` (0: the calling
/// process) to its current resident set, through /proc/<pid>/clear_refs.
nexus::Status ResetPeakRss(pid_t pid);

class Daemon {
 public:
  /// Spawns `binary args...` and waits (up to `timeout_ms`) for its
  /// listening line.
  static nexus::Result<std::unique_ptr<Daemon>> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      int timeout_ms = 10000);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// SIGTERM, wait up to 5 s, then SIGKILL; always reaps. Idempotent.
  void Stop();

 private:
  Daemon(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}

  pid_t pid_ = 0;      // 0 once reaped
  int out_fd_ = -1;    // read end of the child's stdout
  std::uint16_t port_ = 0;
};

/// A private scratch directory, removed with everything in it on
/// destruction.
class ScratchDir {
 public:
  /// Creates a fresh directory under `parent` (created if needed).
  static nexus::Result<std::unique_ptr<ScratchDir>> Create(
      const std::string& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {}
  std::string path_;
};

} // namespace perfbench
