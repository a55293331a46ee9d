// The three benchmark workloads and the deployments they run on.
//
//   bulk  — one nexusd (--root store), no client object cache. Rounds of
//           sequential whole-file writes of 32 MiB files, a remount that
//           drops every client cache, then cold whole-file reads.
//   churn — one nexusd plus a client CachedBackend in lease writeback
//           mode. A redis-shaped tree is checked out, then cycles of
//           create / stat / read / rename / remove run in one hot
//           directory of 1024 entries (8 dirnode buckets).
//   scan  — a 3-shard R=2 cluster of nexusd processes behind a TTL-mode
//           CachedBackend. The redis-shaped tree is checked out, then each
//           pass remounts, walks and byte-checks the whole tree and
//           overwrites about 10% of the files.
//
// The amount of measured work is fixed by (workload, seed, seconds), not
// by a clock, so two runs with the same arguments issue identical
// operation streams and their deterministic counts must match.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_out"; // scratch stores live under workdir/tmp
  std::string nexusd;                 // path of the nexusd binary
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  /// Test hook: corrupt the oracle after set-up so the run must fail.
  bool inject_mismatch = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Counts that depend only on (workload, seed, seconds): identical on
  /// the untraced and traced stacks, and across commits unless the
  /// program's behaviour changed.
  std::map<std::string, double> counts;
  /// Percentile actually used and sample count behind each latency.
  std::map<std::string, std::pair<double, std::uint64_t>> percentiles;
  /// Per-segment values of each end-to-end rate and latency median, kept
  /// only to show how much a run drifted; the metrics cover the whole run.
  std::map<std::string, std::vector<double>> segments;
  std::map<std::string, std::string> meta;
  std::vector<std::string> problems;
  std::vector<long> daemon_pids;
  std::vector<std::string> scratch_dirs;
  std::string span_dump; // traced runs: where the spans were written
};

[[nodiscard]] bool KnownWorkload(const std::string& name);
RunResult RunWorkload(const RunOptions& options);

} // namespace perfbench
