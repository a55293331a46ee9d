// perfbench: wall-clock end-to-end benchmark of the deployed NEXUS stack.
//
//   perfbench --workload bulk|churn|scan --seed N --seconds S --trace 0|1
//             --nexusd PATH [--workdir DIR]
//             [--git-sha SHA] [--source-digest HEX] [--inject-mismatch]
//   perfbench --selftest
//
// One closed-loop client thread drives POSIX-style operations through
// vfs::NexusFs -> core::NexusClient/enclave -> storage::AfsClient/AfsServer
// -> [cache::CachedBackend] -> net::RemoteBackend | cluster::ClusterBackend
// -> separate nexusd processes over loopback. With --trace 0 it prints
// the end-to-end metrics; with --trace 1 it runs the same seed on a bare
// and on a decorated stack and prints the per-layer ledger. The full
// result (metadata, deterministic counts, percentile sample counts) goes
// to DIR/results/<workload>-seed<N>-trace<T>.json; the last stdout line
// is the summary object {"correct","attempted","failed","metrics"}.
//
// Exit status: 0 when every operation succeeded and every oracle check
// passed, 1 otherwise, 2 on bad usage.
#include <sys/prctl.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "ledger.hpp"
#include "timed_backend.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15 && v > -1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const RunResult& r) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += (first ? "" : ", ") + Quote(name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
    first = false;
  }
  return out + "}";
}

std::string Summary(const RunResult& r) {
  return "{\"correct\": " + std::string(r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": " + MetricsJson(r) + "}";
}

std::string FullJson(const RunResult& r) {
  std::string out = "{\n  \"meta\": {";
  bool first = true;
  for (const auto& [k, v] : r.meta) {
    out += (first ? "" : ", ") + Quote(k) + ": " + Quote(v);
    first = false;
  }
  out += "},\n  \"correct\": " + std::string(r.correct ? "true" : "false");
  out += ",\n  \"attempted\": " + std::to_string(r.attempted);
  out += ",\n  \"failed\": " + std::to_string(r.failed);
  out += ",\n  \"metrics\": " + MetricsJson(r);
  out += ",\n  \"counts\": {";
  first = true;
  for (const auto& [k, v] : r.counts) {
    out += (first ? "" : ", ") + Quote(k) + ": " + Number(v);
    first = false;
  }
  out += "},\n  \"percentiles\": {";
  first = true;
  for (const auto& [k, v] : r.percentiles) {
    out += (first ? "" : ", ") + Quote(k) + ": {\"percentile\": " + Number(v.first) +
           ", \"samples\": " + std::to_string(v.second) + "}";
    first = false;
  }
  out += "},\n  \"segments\": {";
  first = true;
  for (const auto& [k, v] : r.segments) {
    out += (first ? "" : ", ") + Quote(k) + ": [";
    for (std::size_t i = 0; i < v.size(); ++i) out += (i == 0 ? "" : ", ") + Number(v[i]);
    out += "]";
    first = false;
  }
  out += "},\n  \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(r.problems[i]);
  }
  out += "],\n  \"daemon_pids\": [";
  for (std::size_t i = 0; i < r.daemon_pids.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::to_string(r.daemon_pids[i]);
  }
  out += "],\n  \"scratch_dirs\": [";
  for (std::size_t i = 0; i < r.scratch_dirs.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(r.scratch_dirs[i]);
  }
  out += "],\n  \"span_dump\": " + Quote(r.span_dump) + "\n}\n";
  return out;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload bulk|churn|scan --seed N --seconds S --trace 0|1 "
               "--nexusd PATH [--workdir DIR] [--git-sha SHA] "
               "[--source-digest HEX] [--inject-mismatch]\n"
               "       %s --selftest\n",
               argv0, argv0);
  return 2;
}

int SelfTest() {
  std::string why;
  if (!perfbench::LedgerSelfTest(&why) || !perfbench::DecoratorSelfTest(&why)) {
    std::fprintf(stderr, "selftest failed: %s\n", why.c_str());
    return 1;
  }
  std::printf("selftest ok\n");
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  // Die with the launching process (run.py killed on a timeout); the
  // daemons in turn die with this one.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  RunOptions opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (arg == "--inject-mismatch") {
      opts.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--nexusd") {
      opts.nexusd = value;
    } else if (arg == "--workdir") {
      opts.workdir = value;
    } else if (arg == "--git-sha") {
      opts.git_sha = value;
    } else if (arg == "--source-digest") {
      opts.source_digest = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!perfbench::KnownWorkload(opts.workload) || !have_seed || opts.seconds <= 0 ||
      opts.nexusd.empty()) {
    return Usage(argv[0]);
  }

  const RunResult result = perfbench::RunWorkload(opts);

  const std::string dir = opts.workdir + "/results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + opts.workload + "-seed" + std::to_string(opts.seed) +
                           "-trace" + (opts.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
    const std::string full = FullJson(result);
    std::fwrite(full.data(), 1, full.size(), f);
    std::fclose(f);
  }
  for (const std::string& p : result.problems) std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  std::printf("result file: %s\n", path.c_str());
  std::printf("%s\n", Summary(result).c_str());
  return result.correct ? 0 : 1;
}
