#include "workloads.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <cstring>
#include <memory>
#include <optional>
#include <unordered_set>

#include "cache/cached_backend.hpp"
#include "cluster/cluster_backend.hpp"
#include "core/fsck.hpp"
#include "core/nexus_client.hpp"
#include "core/user_key.hpp"
#include "crypto/rng.hpp"
#include "fleet.hpp"
#include "ledger.hpp"
#include "model.hpp"
#include "net/remote_backend.hpp"
#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"
#include "sgx/measurement.hpp"
#include "storage/afs.hpp"
#include "timed_backend.hpp"
#include "trace/trace.hpp"
#include "vfs/nexus_fs.hpp"
#include "workloads/treegen.hpp"

namespace perfbench {
namespace {

namespace cache = nexus::cache;
namespace cluster = nexus::cluster;
namespace core = nexus::core;
namespace net = nexus::net;
namespace sgx = nexus::sgx;
namespace storage = nexus::storage;
namespace vfs = nexus::vfs;
using nexus::Bytes;
using nexus::Result;
using nexus::Status;

constexpr std::size_t kMiB = std::size_t{1} << 20;

// ---- workload sizing ----------------------------------------------------------
// Measured work per requested second, sized on a 4-core x86 host so one
// run measures roughly --seconds of wall time.
constexpr std::size_t kBulkFileBytes = 32 * kMiB;
constexpr std::size_t kBulkFilesPerRound = 2;
constexpr double kBulkRoundsPerSecond = 1.0;
constexpr std::size_t kHotDirEntries = 1024;
constexpr std::size_t kChurnFileBytes = 4096;
constexpr double kChurnCyclesPerSecond = 500;
constexpr std::size_t kChurnListEvery = 128;
// Scan passes slow down as the run goes on: every journal record the
// overwrites commit and delete leaves a cluster tombstone, and the List a
// remount issues quorum-reads every tombstone under the prefix.
constexpr double kScanPassesPerSecond = 3;
constexpr std::uint64_t kScanOverwriteOneIn = 10;
// Deployments an untraced run sets up; setup_s is the median of their
// set-up times. The first one is measured, the others only set up.
constexpr std::size_t kSetups = 3;

// ---- deterministic inputs -----------------------------------------------------

// SplitMix64: fast seeded filler for bulk payloads (an HMAC-DRBG would
// spend seconds producing 64 MiB).
class FastRng {
 public:
  explicit FastRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }
  Content Bytes(std::size_t n) {
    nexus::Bytes out(n);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const std::uint64_t v = Next();
      std::memcpy(out.data() + i, &v, 8);
    }
    for (const std::uint64_t v = Next(); i < n; ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * (i % 8)));
    }
    return std::make_shared<const nexus::Bytes>(std::move(out));
  }

 private:
  std::uint64_t state_;
};

std::string SeedLabel(const RunOptions& o, const char* what) {
  return "perfbench-" + o.workload + "-" + std::to_string(o.seed) + "-" + what;
}

// ---- deployment ---------------------------------------------------------------

struct DeploymentConfig {
  std::size_t shards = 1;
  std::size_t replication = 1;
  // Handler threads per nexusd. 0 serves each request inline on the
  // reactor thread: one closed-loop client never has two requests in
  // flight on a connection that a pool could overlap, and every pool
  // handoff adds a wakeup whose latency swings with host load.
  std::size_t rpc_workers = 0;
  bool disk_store = false; // nexusd --root (else --mem)
  // Client and daemons share one CPU. A closed loop with one request in
  // flight loses little overlap, and on a shared host every cross-CPU
  // wakeup of a request/reply ping-pong waits for another vCPU to be
  // scheduled: unpinned, churn latency swung 2x between runs.
  bool one_cpu = false;
  bool cache = false;
  std::size_t cache_mem_bytes = 64 * kMiB;
  std::uint64_t cache_ttl_ms = 0; // 0 = library default
};

DeploymentConfig ConfigFor(const std::string& workload) {
  DeploymentConfig c;
  if (workload == "bulk") {
    c.disk_store = true;
  } else if (workload == "churn") {
    c.one_cpu = true;
    c.cache = true; // lease writeback: nexusd grants leases
  } else if (workload == "scan") {
    c.one_cpu = true;
    // The cluster grants no leases: the cache runs in TTL mode with a TTL
    // that outlasts any run, so hits never depend on timing.
    c.shards = 3;
    c.replication = 2;
    c.cache = true;
    c.cache_ttl_ms = 3'600'000;
  }
  return c;
}

// Gauges keep their later value in a delta; everything else subtracts.
// The peak queue depth and the server's per-op percentiles cannot be
// reset, so they cover the deployment's whole life (set-up and warm-up
// included) and their names say so.
bool IsGauge(const std::string& key) {
  return key == "parallel.lifetime_peak_queue_depth" ||
         key == "net.server.resident_threads" ||
         key.find("_p50_ms") != std::string::npos ||
         key.find("_p99_ms") != std::string::npos;
}

using Counters = std::map<std::string, double>;

Counters Delta(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    out[k] = IsGauge(k) || it == before.end() ? v : v - it->second;
  }
  return out;
}

class Deployment {
 public:
  static Result<std::unique_ptr<Deployment>> Start(const DeploymentConfig& cfg,
                                                   const RunOptions& opts,
                                                   Recorder& recorder,
                                                   bool decorate);
  ~Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] vfs::FileSystem& fs() { return *fs_; }
  [[nodiscard]] core::NexusClient& client() { return *client_; }
  [[nodiscard]] const DeploymentConfig& config() const { return cfg_; }
  [[nodiscard]] const std::string& scratch_path() const { return scratch_->path(); }

  /// Unmount, drop every client-side cache above the object cache
  /// (enclave metadata and AFS whole-file caches), mount again.
  Status Remount() {
    NEXUS_RETURN_IF_ERROR(client_->Unmount());
    client_->DropAllCaches();
    return client_->Mount(user_, handle_.volume_uuid, handle_.sealed_rootkey);
  }
  /// Write barrier through the whole store chain (drains writeback).
  Status Flush() { return top_->Flush(); }

  [[nodiscard]] Counters ReadCounters();
  [[nodiscard]] std::vector<long> pids() const {
    std::vector<long> out;
    for (const auto& d : daemons_) out.push_back(d->pid());
    return out;
  }
  /// CPU and peak RSS of every daemon, read from /proc.
  [[nodiscard]] std::vector<ProcSample> SampleDaemons() const {
    std::vector<ProcSample> out;
    for (const auto& d : daemons_) {
      auto s = SampleProc(d->pid());
      out.push_back(s.ok() ? s.value() : ProcSample{});
    }
    return out;
  }
  [[nodiscard]] LayerMask layers() const {
    return {true, decorate_, decorate_ && cluster_ != nullptr, decorate_};
  }
  [[nodiscard]] CallCounts storage_counts() const {
    return storage_timed_ != nullptr ? storage_timed_->counts() : CallCounts{};
  }
  [[nodiscard]] std::size_t crypto_workers() const {
    return client_->enclave().crypto_workers();
  }
  [[nodiscard]] bool lease_mode() const {
    return cached_ != nullptr && cached_->lease_mode();
  }

 private:
  Deployment(const DeploymentConfig& cfg, Recorder& recorder, bool decorate)
      : cfg_(cfg), recorder_(recorder), decorate_(decorate) {}

  Result<std::unique_ptr<storage::StorageBackend>> ConnectRemote(std::uint16_t port);

  DeploymentConfig cfg_;
  Recorder& recorder_;
  bool decorate_;
  // Destroyed in reverse order: the client stack first (the object cache
  // drains its writeback into the still-running daemons), then the Stats
  // probes, then the daemons are stopped and reaped, then the scratch
  // stores are deleted.
  std::unique_ptr<ScratchDir> scratch_;
  std::vector<std::unique_ptr<Daemon>> daemons_;
  std::vector<std::unique_ptr<net::RemoteBackend>> probes_;
  storage::SimClock clock_; // required by AfsServer; never read here
  std::unique_ptr<storage::AfsServer> server_;
  std::unique_ptr<storage::AfsClient> afs_;
  std::unique_ptr<sgx::IntelAttestationService> intel_;
  std::unique_ptr<sgx::SgxCpu> cpu_;
  std::unique_ptr<sgx::EnclaveRuntime> runtime_;
  std::unique_ptr<core::NexusClient> client_;
  std::unique_ptr<vfs::NexusFs> fs_;
  core::UserKey user_;
  core::NexusClient::VolumeHandle handle_;

  // Views into the backend chain owned by server_.
  storage::StorageBackend* top_ = nullptr;
  std::vector<net::RemoteBackend*> remotes_;
  cache::CachedBackend* cached_ = nullptr;
  cluster::ClusterBackend* cluster_ = nullptr;
  TimedBackend* storage_timed_ = nullptr;
};

Result<std::unique_ptr<storage::StorageBackend>> Deployment::ConnectRemote(
    std::uint16_t port) {
  NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<net::RemoteBackend> remote,
                         net::RemoteBackend::Connect("127.0.0.1", port));
  remotes_.push_back(remote.get());
  if (!decorate_) return std::unique_ptr<storage::StorageBackend>(std::move(remote));
  return std::unique_ptr<storage::StorageBackend>(
      std::make_unique<TimedBackend>(std::move(remote), Layer::kNetClient, recorder_));
}

Result<std::unique_ptr<Deployment>> Deployment::Start(const DeploymentConfig& cfg,
                                                      const RunOptions& opts,
                                                      Recorder& recorder,
                                                      bool decorate) {
  auto d = std::unique_ptr<Deployment>(new Deployment(cfg, recorder, decorate));
  NEXUS_ASSIGN_OR_RETURN(d->scratch_, ScratchDir::Create(opts.workdir + "/tmp"));

  for (std::size_t i = 0; i < cfg.shards; ++i) {
    std::vector<std::string> args = {"--bind", "127.0.0.1", "--port", "0", "--rpc-workers",
                                     std::to_string(cfg.rpc_workers)};
    if (cfg.disk_store) {
      args.insert(args.end(), {"--root", d->scratch_->path() + "/store" + std::to_string(i)});
    } else {
      args.emplace_back("--mem");
    }
    NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<Daemon> daemon, Daemon::Spawn(opts.nexusd, args));
    net::RemoteBackendOptions probe_options;
    probe_options.max_pooled_connections = 1;
    NEXUS_ASSIGN_OR_RETURN(
        std::unique_ptr<net::RemoteBackend> probe,
        net::RemoteBackend::Connect("127.0.0.1", daemon->port(), probe_options));
    d->probes_.push_back(std::move(probe));
    d->daemons_.push_back(std::move(daemon));
  }

  std::unique_ptr<storage::StorageBackend> chain;
  if (cfg.shards == 1) {
    NEXUS_ASSIGN_OR_RETURN(chain, d->ConnectRemote(d->daemons_[0]->port()));
  } else {
    std::vector<cluster::ShardSpec> specs;
    Deployment* self = d.get();
    for (const auto& daemon : d->daemons_) {
      const std::uint16_t port = daemon->port();
      specs.push_back(cluster::ShardSpec{
          "127.0.0.1:" + std::to_string(port),
          [self, port] { return self->ConnectRemote(port); },
          [](storage::StorageBackend& b) {
            auto* timed = dynamic_cast<TimedBackend*>(&b);
            storage::StorageBackend& target = timed != nullptr ? timed->inner() : b;
            return static_cast<net::RemoteBackend&>(target).Ping();
          }});
    }
    cluster::ClusterOptions options;
    options.replication = cfg.replication;
    NEXUS_ASSIGN_OR_RETURN(std::unique_ptr<cluster::ClusterBackend> fleet,
                           cluster::ClusterBackend::Create(std::move(specs), options));
    d->cluster_ = fleet.get();
    chain = std::move(fleet);
    if (decorate) {
      chain = std::make_unique<TimedBackend>(std::move(chain), Layer::kCluster, recorder);
    }
  }
  if (cfg.cache) {
    cache::CacheOptions options;
    options.mem_budget_bytes = cfg.cache_mem_bytes;
    options.ttl_ms = cfg.cache_ttl_ms;
    auto cached = std::make_unique<cache::CachedBackend>(std::move(chain), options);
    d->cached_ = cached.get();
    chain = std::move(cached);
  }
  if (decorate) {
    auto timed = std::make_unique<TimedBackend>(std::move(chain), Layer::kStorage, recorder);
    d->storage_timed_ = timed.get();
    chain = std::move(timed);
  }
  d->top_ = chain.get();
  d->server_ = std::make_unique<storage::AfsServer>(std::move(chain), d->clock_);
  d->afs_ = std::make_unique<storage::AfsClient>(*d->server_, "perfbench-client");

  d->intel_ = std::make_unique<sgx::IntelAttestationService>(
      nexus::AsBytes(SeedLabel(opts, "intel")));
  d->cpu_ = d->intel_->ProvisionCpu(nexus::AsBytes(SeedLabel(opts, "cpu")));
  const std::string runtime_seed = SeedLabel(opts, "enclave");
  d->runtime_ = std::make_unique<sgx::EnclaveRuntime>(
      *d->cpu_, sgx::NexusEnclaveImage(), nexus::AsBytes(runtime_seed));
  d->client_ = std::make_unique<core::NexusClient>(*d->runtime_, *d->afs_,
                                                   d->intel_->root_public_key());
  nexus::crypto::HmacDrbg user_rng(nexus::AsBytes(SeedLabel(opts, "user")));
  d->user_ = core::UserKey::Generate("perfbench-user", user_rng);
  NEXUS_ASSIGN_OR_RETURN(d->handle_, d->client_->CreateVolume(d->user_));
  d->fs_ = std::make_unique<vfs::NexusFs>(*d->client_);
  return d;
}

Counters Deployment::ReadCounters() {
  Counters c;
  c["afs.rpcs"] = static_cast<double>(server_->rpc_count());
  c["enclave.ecalls"] =
      static_cast<double>(nexus::trace::GlobalHistogram("ecall").Count());
  const auto& ps = client_->enclave().parallel_stats();
  c["parallel.chunks_encrypted"] = static_cast<double>(ps.chunks_encrypted);
  c["parallel.chunks_decrypted"] = static_cast<double>(ps.chunks_decrypted);
  c["parallel.worker_busy_s"] = ps.worker_busy_seconds; // thread-CPU time
  c["parallel.lifetime_peak_queue_depth"] = static_cast<double>(ps.peak_queue_depth);
  const auto& js = client_->enclave().journal_stats();
  c["journal.records"] = static_cast<double>(js.records_committed);
  c["journal.ops"] = static_cast<double>(js.ops_committed);

  net::NetCounters nc;
  for (const net::RemoteBackend* r : remotes_) {
    const net::NetCounters one = r->counters();
    nc.rpcs += one.rpcs;
    nc.retries += one.retries;
    nc.bytes_sent += one.bytes_sent;
    nc.bytes_received += one.bytes_received;
  }
  c["net.client.rpcs"] = static_cast<double>(nc.rpcs);
  c["net.client.retries"] = static_cast<double>(nc.retries);
  c["net.client.bytes_sent"] = static_cast<double>(nc.bytes_sent);
  c["net.client.bytes_received"] = static_cast<double>(nc.bytes_received);

  const cache::CacheCounters cc = cached_ != nullptr ? cached_->counters() : cache::CacheCounters{};
  c["cache.hits"] = static_cast<double>(cc.mem_hits + cc.disk_hits);
  c["cache.misses"] = static_cast<double>(cc.misses);
  c["cache.evictions"] = static_cast<double>(cc.evictions_mem + cc.evictions_disk);
  c["cache.writeback_objects"] = static_cast<double>(cc.writeback_objects);
  c["cache.writeback_batches"] = static_cast<double>(cc.writeback_batches);
  c["cache.prefetch_issued"] = static_cast<double>(cc.prefetch_issued);
  c["cache.prefetch_hits"] = static_cast<double>(cc.prefetch_hits);

  const cluster::ClusterCounters kc =
      cluster_ != nullptr ? cluster_->counters() : cluster::ClusterCounters{};
  c["cluster.quorum_reads"] = static_cast<double>(kc.quorum_reads);
  c["cluster.quorum_writes"] = static_cast<double>(kc.quorum_writes);
  c["cluster.shard_rpcs"] = static_cast<double>(kc.shard_rpcs);
  c["cluster.read_repairs"] = static_cast<double>(kc.read_repairs);
  c["cluster.failovers"] = static_cast<double>(kc.failovers);

  // Server side, over each daemon's Stats RPC (a separate probe
  // connection, so the data path's connections are untouched).
  double served = 0, bytes_in = 0, bytes_out = 0, leases = 0, accepted = 0,
         threads = 0;
  std::map<std::string, double> op_p;
  for (const auto& probe : probes_) {
    auto stats = probe->Stats();
    if (!stats.ok()) continue;
    const net::ServerStats& s = stats.value();
    served += static_cast<double>(s.rpcs_served);
    bytes_in += static_cast<double>(s.bytes_received);
    bytes_out += static_cast<double>(s.bytes_sent);
    leases += static_cast<double>(s.leases_granted);
    accepted += static_cast<double>(s.connections_accepted);
    threads = std::max(threads, static_cast<double>(s.resident_threads));
    for (const net::RpcOpStats& op : s.per_op) {
      const std::string name = net::RpcName(static_cast<net::Rpc>(op.rpc));
      if (name != "get" && name != "put" && name != "stream_append") continue;
      double& p50 = op_p["net.server.lifetime_" + name + "_p50_ms"];
      double& p99 = op_p["net.server.lifetime_" + name + "_p99_ms"];
      p50 = std::max(p50, op.p50_ms);
      p99 = std::max(p99, op.p99_ms);
    }
  }
  c["net.server.rpcs_served"] = served;
  c["net.server.bytes_in"] = bytes_in;
  c["net.server.bytes_out"] = bytes_out;
  c["net.server.leases_granted"] = leases;
  c["net.server.connections_accepted"] = accepted;
  c["net.server.resident_threads"] = threads;
  for (const char* op : {"get", "put", "stream_append"}) {
    for (const char* p : {"_p50_ms", "_p99_ms"}) {
      const std::string key = std::string("net.server.lifetime_") + op + p;
      c[key] = op_p.count(key) != 0 ? op_p[key] : 0.0;
    }
  }
  return c;
}

// ---- operation runner ---------------------------------------------------------

enum class OpClass : std::uint8_t {
  kMutate,  // create / overwrite / rename / remove
  kRead,    // whole-file read
  kOther,   // stat, readdir
  kControl, // remount, flush: not VFS operations
};

// One completed operation of the measured phase, in issue order.
struct OpSample {
  OpClass cls = OpClass::kOther;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0; // written (write ops) or read (read ops)
  bool write = false;

  [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

struct PhaseStats {
  std::vector<OpSample> ops;

  [[nodiscard]] std::uint64_t Count(bool (*pred)(const OpSample&)) const {
    return static_cast<std::uint64_t>(std::count_if(ops.begin(), ops.end(), pred));
  }
  [[nodiscard]] std::uint64_t vfs_ops() const {
    return Count([](const OpSample& o) { return o.cls != OpClass::kControl; });
  }
  [[nodiscard]] std::uint64_t mutations() const {
    return Count([](const OpSample& o) { return o.cls == OpClass::kMutate; });
  }
  [[nodiscard]] std::uint64_t bytes(bool written) const {
    std::uint64_t total = 0;
    for (const OpSample& o : ops) {
      if (o.write == written && (o.write || o.cls == OpClass::kRead)) total += o.bytes;
    }
    return total;
  }
};

class OpRunner {
 public:
  OpRunner(Deployment& d, Model& model, Recorder& recorder, RunResult& result)
      : d_(d), model_(model), recorder_(recorder), result_(result) {}

  PhaseStats stats;

  void Problem(const std::string& what) {
    ++result_.failed;
    result_.correct = false;
    if (result_.problems.size() < 20) result_.problems.push_back(what);
  }

  bool WriteFile(const std::string& path, const Content& content) {
    const Status st = Op(OpClass::kMutate, "write", [&] {
      return d_.fs().WriteWholeFile(path, *content);
    });
    if (!Check(st, "write " + path)) return false;
    model_.PutFile(path, content);
    stats.ops.back().bytes = content->size();
    stats.ops.back().write = true;
    return true;
  }

  void ReadFile(const std::string& path) {
    Result<Bytes> got = Bytes{};
    const Status st = Op(OpClass::kRead, "read", [&] {
      got = d_.fs().ReadWholeFile(path);
      return got.status();
    });
    if (!Check(st, "read " + path)) return;
    stats.ops.back().bytes = got.value().size();
    if (!model_.MatchesFile(path, got.value())) Problem("content mismatch: " + path);
  }

  void Stat(const std::string& path) {
    Result<vfs::FileStat> got = vfs::FileStat{};
    const Status st = Op(OpClass::kOther, "stat", [&] {
      got = d_.fs().Stat(path);
      return got.status();
    });
    if (!Check(st, "stat " + path)) return;
    const Content* want = model_.File(path);
    if (want == nullptr || got.value().size != (*want)->size()) {
      Problem("stat mismatch: " + path);
    }
  }

  bool Rename(const std::string& from, const std::string& to) {
    const Status st = Op(OpClass::kMutate, "rename",
                         [&] { return d_.fs().Rename(from, to); });
    if (!Check(st, "rename " + from)) return false;
    model_.Rename(from, to);
    return true;
  }

  bool Remove(const std::string& path) {
    const Status st = Op(OpClass::kMutate, "remove", [&] { return d_.fs().Remove(path); });
    if (!Check(st, "remove " + path)) return false;
    model_.Remove(path);
    return true;
  }

  std::vector<vfs::Dirent> ReadDir(const std::string& path) {
    Result<std::vector<vfs::Dirent>> got = std::vector<vfs::Dirent>{};
    const Status st = Op(OpClass::kOther, "readdir", [&] {
      got = d_.fs().ReadDir(path);
      return got.status();
    });
    if (!Check(st, "readdir " + path)) return {};
    if (!model_.MatchesDir(path, got.value())) Problem("listing mismatch: " + path);
    return std::move(got).value();
  }

  void Remount() {
    (void)Check(Op(OpClass::kControl, "remount", [&] { return d_.Remount(); }), "remount");
  }
  void Flush() {
    (void)Check(Op(OpClass::kControl, "flush", [&] { return d_.Flush(); }), "flush");
  }

 private:
  template <typename F>
  Status Op(OpClass cls, const char* name, F&& f) {
    ++result_.attempted;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    Status st;
    {
      const Recorder::Scope root(recorder_, Layer::kOp, name);
      t0 = NowNs();
      st = f();
      t1 = NowNs();
    }
    if (st.ok()) stats.ops.push_back(OpSample{cls, t0, t1, 0, false});
    return st;
  }

  bool Check(const Status& st, const std::string& what) {
    if (st.ok()) return true;
    Problem(what + ": " + st.ToString());
    return false;
  }

  Deployment& d_;
  Model& model_;
  Recorder& recorder_;
  RunResult& result_;
};

// ---- the workloads ------------------------------------------------------------

struct Inputs {
  std::vector<Content> bulk_pool; // bulk: distinct 32 MiB payloads
};

Inputs MakeInputs(const RunOptions& opts) {
  Inputs in;
  if (opts.workload == "bulk") {
    FastRng rng(opts.seed * 0x5851f42d4c957f2dull + 1);
    for (std::size_t i = 0; i < kBulkFilesPerRound; ++i) {
      in.bulk_pool.push_back(rng.Bytes(kBulkFileBytes));
    }
  }
  return in;
}

std::size_t Units(const RunOptions& opts, double per_second) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(opts.seconds * per_second)));
}

// Workload state carried from set-up through warm-up to measurement.
struct Session {
  Session(const RunOptions& o, Deployment& dep, Recorder& rec, RunResult& res,
          const Inputs& in)
      : opts(o), d(dep), recorder(rec), result(res), inputs(in),
        rng(o.seed * 0x9e3779b97f4a7c15ull + 7) {}

  const RunOptions& opts;
  Deployment& d;
  Recorder& recorder;
  RunResult& result;
  const Inputs& inputs;
  Model model;
  FastRng rng;
  std::vector<std::string> hot;   // churn: current hot-directory files
  std::uint64_t next_cycle = 0;   // churn
  std::uint64_t next_round = 0;   // bulk
};

Status Populate(Session& s) {
  RecordingFs fs(s.d.fs(), s.model);
  if (s.opts.workload == "bulk") {
    // The files every round overwrites.
    NEXUS_RETURN_IF_ERROR(fs.Mkdir("bulk"));
    for (std::size_t k = 0; k < kBulkFilesPerRound; ++k) {
      const std::string path = "bulk/f" + std::to_string(k);
      NEXUS_RETURN_IF_ERROR(s.d.fs().WriteWholeFile(path, *s.inputs.bulk_pool[k]));
      s.model.PutFile(path, s.inputs.bulk_pool[k]); // shared, not copied
    }
    return Status::Ok();
  }
  // A checkout is one transaction: the whole tree rides one group commit.
  NEXUS_RETURN_IF_ERROR(fs.Mkdir("redis"));
  NEXUS_RETURN_IF_ERROR(fs.BeginBatch());
  nexus::crypto::HmacDrbg tree_rng(nexus::AsBytes(SeedLabel(s.opts, "tree")));
  NEXUS_RETURN_IF_ERROR(
      nexus::workloads::GenerateTree(fs, "redis", nexus::workloads::RedisSpec(), tree_rng)
          .status());
  if (s.opts.workload == "churn") {
    NEXUS_RETURN_IF_ERROR(fs.Mkdir("hot"));
    for (std::size_t i = 0; i < kHotDirEntries; ++i) {
      const std::string path = "hot/f" + std::to_string(i);
      Content content = s.rng.Bytes(kChurnFileBytes);
      NEXUS_RETURN_IF_ERROR(fs.WriteWholeFile(path, *content));
      s.hot.push_back(path);
    }
  }
  NEXUS_RETURN_IF_ERROR(fs.CommitBatch());
  return s.d.Flush();
}

void BulkRound(Session& s, OpRunner& drv) {
  const std::uint64_t r = s.next_round++;
  const auto& pool = s.inputs.bulk_pool;
  for (std::size_t k = 0; k < kBulkFilesPerRound; ++k) {
    drv.WriteFile("bulk/f" + std::to_string(k), pool[(r + k) % pool.size()]);
  }
  drv.Remount();
  (void)drv.ReadDir("bulk");
  for (std::size_t k = 0; k < kBulkFilesPerRound; ++k) {
    drv.ReadFile("bulk/f" + std::to_string(k));
  }
}

void ChurnCycle(Session& s, OpRunner& drv) {
  const std::uint64_t c = s.next_cycle++;
  const std::string fresh = "hot/n" + std::to_string(c);
  if (drv.WriteFile(fresh, s.rng.Bytes(kChurnFileBytes))) {
    drv.Stat(fresh);
    drv.ReadFile(fresh);
    const std::string kept = "hot/g" + std::to_string(c);
    if (drv.Rename(fresh, kept)) s.hot.push_back(kept);
  }
  if (!s.hot.empty()) {
    const std::size_t victim = s.rng.Below(s.hot.size());
    if (drv.Remove(s.hot[victim])) {
      s.hot[victim] = s.hot.back();
      s.hot.pop_back();
    }
  }
  if ((c + 1) % kChurnListEvery == 0) (void)drv.ReadDir("hot");
}

void ScanPass(Session& s, OpRunner& drv) {
  drv.Remount();
  std::vector<std::string> files;
  std::vector<std::string> dirs = {"redis"};
  while (!dirs.empty()) {
    const std::string dir = dirs.back();
    dirs.pop_back();
    for (const vfs::Dirent& e : drv.ReadDir(dir)) {
      const std::string path = dir + "/" + e.name;
      if (e.type == vfs::FileType::kDirectory) {
        dirs.push_back(path);
      } else {
        files.push_back(path);
      }
    }
  }
  for (const std::string& f : files) drv.ReadFile(f);
  for (const std::string& f : files) {
    if (s.rng.Below(kScanOverwriteOneIn) != 0) continue;
    const Content* old = s.model.File(f);
    if (old == nullptr) continue;
    drv.WriteFile(f, s.rng.Bytes((*old)->size()));
  }
}

std::size_t MeasuredUnits(const RunOptions& opts) {
  if (opts.workload == "bulk") return Units(opts, kBulkRoundsPerSecond);
  if (opts.workload == "churn") return Units(opts, kChurnCyclesPerSecond);
  return Units(opts, kScanPassesPerSecond);
}

void RunUnits(Session& s, OpRunner& drv, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (s.opts.workload == "bulk") {
      BulkRound(s, drv);
    } else if (s.opts.workload == "churn") {
      ChurnCycle(s, drv);
    } else {
      ScanPass(s, drv);
    }
  }
}

/// Warm-up before timing: lets the client, the daemons and the cache
/// settle (first-touch allocation, connection windows, CPU frequency).
std::size_t WarmupUnits(const RunOptions& opts) {
  if (opts.workload == "churn") {
    return std::clamp<std::size_t>(MeasuredUnits(opts) / 5, 50, 1000);
  }
  return 1;
}

void FinalChecks(Session& s, OpRunner& drv) {
  auto report = core::RunFsck(s.d.client());
  if (!report.ok()) {
    drv.Problem("fsck: " + report.status().ToString());
    return;
  }
  const auto& audit = report.value().audit;
  if (!report.value().orphaned_objects.empty()) {
    drv.Problem("fsck: " + std::to_string(report.value().orphaned_objects.size()) +
                " orphaned objects");
  }
  if (audit.files != s.model.file_count() ||
      audit.directories != s.model.dir_count() + 1) {
    drv.Problem("fsck: volume holds " + std::to_string(audit.files) + " files / " +
                std::to_string(audit.directories) + " dirs, model " +
                std::to_string(s.model.file_count()) + " / " +
                std::to_string(s.model.dir_count() + 1));
  }
}

struct PhaseOutcome {
  PhaseStats stats;
  double wall_s = 0;
  double process_cpu_s = 0;
  Counters delta;
  double daemon_cpu_s = 0;
  double daemon_hwm_mib = 0; // largest daemon peak RSS in the measured phase
  double client_rss_mib = 0; // client peak RSS in the measured phase, harness excluded
};

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Bytes the harness itself holds in the client process while it
/// measures: the input payloads, the oracle's copy of every file and the
/// per-operation samples.
std::size_t HarnessBytes(const Session& s, const PhaseStats& stats) {
  std::unordered_set<const Bytes*> seen;
  std::size_t total = stats.ops.capacity() * sizeof(OpSample);
  auto add = [&](const Content& c) {
    if (c != nullptr && seen.insert(c.get()).second) total += c->capacity();
  };
  for (const Content& c : s.inputs.bulk_pool) add(c);
  for (const Content& c : s.model.contents()) add(c);
  return total;
}

/// Starts the peak-RSS window of the measured phase: returns the heap that
/// set-up freed to the kernel, then resets the client's and the daemons'
/// VmHWM to their current resident sets.
void ResetPeaks(Session& s, OpRunner& drv) {
  malloc_trim(0);
  std::vector<long> pids = s.d.pids();
  pids.push_back(0);
  for (const long pid : pids) {
    const Status st = ResetPeakRss(static_cast<pid_t>(pid));
    if (!st.ok()) drv.Problem("peak RSS reset: " + st.ToString());
  }
}

/// Warm-up, then the measured phase (spans recorded when `traced`), then
/// the end-of-workload oracle checks.
PhaseOutcome Measure(Session& s, bool traced) {
  PhaseOutcome out;
  {
    OpRunner warm(s.d, s.model, s.recorder, s.result);
    RunUnits(s, warm, WarmupUnits(s.opts));
    warm.Flush();
  }
  OpRunner drv(s.d, s.model, s.recorder, s.result);
  ResetPeaks(s, drv);
  const Counters before = s.d.ReadCounters();
  const std::vector<ProcSample> daemons_before = s.d.SampleDaemons();
  const double cpu_before = ProcessCpuSeconds();
  s.recorder.SetEnabled(traced);
  const std::int64_t t0 = NowNs();
  RunUnits(s, drv, MeasuredUnits(s.opts));
  drv.Flush();
  const std::int64_t t1 = NowNs();
  s.recorder.SetEnabled(false);
  out.process_cpu_s = ProcessCpuSeconds() - cpu_before;
  out.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  const auto self = SampleProc(0);
  if (self.ok()) {
    out.client_rss_mib = self.value().hwm_mib -
                         static_cast<double>(HarnessBytes(s, drv.stats)) / static_cast<double>(kMiB);
  } else {
    drv.Problem("client RSS: " + self.status().ToString());
  }
  out.delta = Delta(s.d.ReadCounters(), before);
  const std::vector<ProcSample> daemons_after = s.d.SampleDaemons();
  for (std::size_t i = 0; i < daemons_after.size(); ++i) {
    out.daemon_cpu_s += daemons_after[i].cpu_s - daemons_before[i].cpu_s;
    out.daemon_hwm_mib = std::max(out.daemon_hwm_mib, daemons_after[i].hwm_mib);
  }
  out.stats = drv.stats;
  FinalChecks(s, drv);
  if (s.opts.inject_mismatch) drv.Problem("injected oracle mismatch (test hook)");
  return out;
}

// ---- reporting ----------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The requested percentile when at least ten samples lie beyond it;
/// otherwise the highest percentile that has ten samples beyond it (or
/// the median for tiny sets). Returns (value, percentile used).
std::pair<double, double> Tail(std::vector<double> v, double q) {
  if (v.empty()) return {0, q};
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double usable = std::max(0.5, std::min(q, 1.0 - 10.0 / n));
  const auto rank = static_cast<std::size_t>(std::ceil(usable * n));
  return {v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1], usable};
}

// Rates and latency percentiles are taken over the whole measured phase.
// Per-segment rates and latency medians go to the result file only, to
// show how much a run drifted: scan slows several-fold within one run, so
// a median over segments would report a single segment's rate.
constexpr std::size_t kRateSegments = 11;
constexpr std::size_t kLatencySegments = 41;
constexpr std::size_t kMinSegmentSamples = 20;

/// [begin, end) bounds of `k` contiguous near-equal slices of [0, n).
std::vector<std::pair<std::size_t, std::size_t>> Slices(std::size_t n, std::size_t k) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < k; ++i) out.emplace_back(n * i / k, n * (i + 1) / k);
  return out;
}

/// Latency percentile q of `ms` (in issue order); see above.
void AddLatency(RunResult& r, const std::string& name, const std::vector<double>& ms,
                double q) {
  const std::size_t k =
      std::clamp<std::size_t>(ms.size() / kMinSegmentSamples, 1, kLatencySegments);
  std::vector<double> medians;
  for (const auto& [b, e] : Slices(ms.size(), k)) {
    medians.push_back(Median({ms.begin() + static_cast<std::ptrdiff_t>(b),
                              ms.begin() + static_cast<std::ptrdiff_t>(e)}));
  }
  r.segments[name] = medians;
  const auto [value, used] = Tail(ms, q);
  r.metrics[name] = Metric{value, "ms"};
  r.percentiles[name] = {used, ms.size()};
}

// Counts that depend only on the operation stream.
const char* const kDeterministicCounts[] = {
    "afs.rpcs",
    "enclave.ecalls",
    "parallel.chunks_encrypted",
    "parallel.chunks_decrypted",
    "journal.records",
    "journal.ops",
    "net.client.rpcs",
    "net.server.rpcs_served",
    "net.server.leases_granted",
    "cache.hits",
    "cache.misses",
    "cache.writeback_objects",
    "cache.writeback_batches",
    "cluster.quorum_reads",
    "cluster.quorum_writes",
    "cluster.shard_rpcs",
};

Counters DeterministicCounts(const PhaseOutcome& p) {
  Counters c;
  for (const char* key : kDeterministicCounts) {
    const auto it = p.delta.find(key);
    c[key] = it == p.delta.end() ? 0 : it->second;
  }
  c["ops.vfs"] = static_cast<double>(p.stats.vfs_ops());
  c["ops.mutations"] = static_cast<double>(p.stats.mutations());
  c["ops.bytes_written"] = static_cast<double>(p.stats.bytes(true));
  c["ops.bytes_read"] = static_cast<double>(p.stats.bytes(false));
  return c;
}

/// Operations per second and user MB/s of writes and reads over ops[b, e).
struct Rates {
  double ops_per_s = 0;
  double write_MBps = 0;
  double read_MBps = 0;
};

Rates RatesOf(const std::vector<OpSample>& ops, std::size_t b, std::size_t e) {
  Rates out;
  if (b == e) return out;
  double vfs = 0, written = 0, write_s = 0, read = 0, read_s = 0;
  for (std::size_t i = b; i < e; ++i) {
    const OpSample& o = ops[i];
    if (o.cls != OpClass::kControl) ++vfs;
    if (o.write) {
      written += static_cast<double>(o.bytes);
      write_s += o.seconds();
    } else if (o.cls == OpClass::kRead) {
      read += static_cast<double>(o.bytes);
      read_s += o.seconds();
    }
  }
  const double span_s = static_cast<double>(ops[e - 1].end_ns - ops[b].start_ns) * 1e-9;
  if (span_s > 0) out.ops_per_s = vfs / span_s;
  if (write_s > 0) out.write_MBps = written / write_s / 1e6;
  if (read_s > 0) out.read_MBps = read / read_s / 1e6;
  return out;
}

void EndToEndMetrics(RunResult& r, const PhaseOutcome& p, double setup_s) {
  const std::vector<OpSample>& ops = p.stats.ops;
  std::vector<double> ops_rate, write_rate, read_rate;
  for (const auto& [b, e] : Slices(ops.size(), std::min(kRateSegments, ops.size()))) {
    const Rates seg = RatesOf(ops, b, e);
    if (seg.ops_per_s > 0) ops_rate.push_back(seg.ops_per_s);
    if (seg.write_MBps > 0) write_rate.push_back(seg.write_MBps);
    if (seg.read_MBps > 0) read_rate.push_back(seg.read_MBps);
  }
  const Rates whole = RatesOf(ops, 0, ops.size());
  std::vector<double> mutate_ms, read_ms;
  for (const OpSample& o : ops) {
    if (o.cls == OpClass::kMutate) mutate_ms.push_back(o.seconds() * 1e3);
    if (o.cls == OpClass::kRead) read_ms.push_back(o.seconds() * 1e3);
  }
  r.metrics["setup_s"] = Metric{setup_s, "s"};
  r.segments["write_MBps"] = write_rate;
  r.segments["read_MBps"] = read_rate;
  r.segments["ops_per_s"] = ops_rate;
  r.metrics["write_MBps"] = Metric{whole.write_MBps, "MB/s"};
  r.metrics["read_MBps"] = Metric{whole.read_MBps, "MB/s"};
  r.metrics["ops_per_s"] = Metric{whole.ops_per_s, "1/s"};
  AddLatency(r, "mutate_p50_ms", mutate_ms, 0.50);
  AddLatency(r, "mutate_p99_ms", mutate_ms, 0.99);
  AddLatency(r, "read_p50_ms", read_ms, 0.50);
  AddLatency(r, "read_p99_ms", read_ms, 0.99);
  r.metrics["client_rss_MiB"] = Metric{p.client_rss_mib, "MiB"};
  r.metrics["server_rss_MiB"] = Metric{p.daemon_hwm_mib, "MiB"};
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

void PerLayerMetrics(RunResult& r, const PhaseOutcome& traced, const PhaseOutcome& bare,
                     const Deployment& d, const std::vector<SpanRecord>& spans) {
  const Counters& c = traced.delta;
  auto get = [&c](const std::string& k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  auto put = [&r](const std::string& name, double v, const char* unit) {
    r.metrics[name] = Metric{v, unit};
  };
  const LedgerTotals ledger = ComputeLedger(spans, d.layers());
  const auto layer = [](Layer l) { return static_cast<std::size_t>(l); };
  const bool cached = d.config().cache;
  const bool clustered = d.config().shards > 1;

  put("core.self_s", ledger.self_s[layer(Layer::kOp)], "s");
  put("core.process_cpu_s", traced.process_cpu_s, "s");

  put("parallel.chunks_encrypted", get("parallel.chunks_encrypted"), "count");
  put("parallel.chunks_decrypted", get("parallel.chunks_decrypted"), "count");
  put("parallel.worker_busy_s", get("parallel.worker_busy_s"), "s");
  put("parallel.lifetime_peak_queue_depth", get("parallel.lifetime_peak_queue_depth"), "count");

  put("enclave.ecalls", get("enclave.ecalls"), "count");

  const CallCounts sc = d.storage_counts();
  const auto calls = [&sc](CallKind k) {
    return static_cast<double>(sc.calls[static_cast<std::size_t>(k)]);
  };
  const auto put_bytes = [&sc](NameClass k) {
    return static_cast<double>(sc.put_bytes[static_cast<std::size_t>(k)]);
  };
  const double mutations = static_cast<double>(traced.stats.mutations());
  put("journal.records", get("journal.records"), "count");
  put("journal.ops_per_record", Ratio(get("journal.ops"), get("journal.records")), "ratio");
  put("journal.put_bytes", put_bytes(NameClass::kJournal), "bytes");
  put("journal.bytes_per_mutation", Ratio(put_bytes(NameClass::kJournal), mutations),
      "bytes");

  put("storage.busy_s", ledger.covered_s[layer(Layer::kStorage)], "s");
  put("storage.self_s", cached ? 0.0 : ledger.self_s[layer(Layer::kStorage)], "s");
  for (CallKind k : {CallKind::kGet, CallKind::kMultiGet, CallKind::kPut, CallKind::kDelete,
                     CallKind::kExists, CallKind::kList, CallKind::kPrefetch,
                     CallKind::kOpenPutStream, CallKind::kStreamAppend,
                     CallKind::kStreamCommit}) {
    put(std::string("storage.calls.") + CallKindName(k), calls(k), "count");
  }
  put("storage.get_bytes", static_cast<double>(sc.get_bytes), "bytes");
  put("storage.put_bytes.meta", put_bytes(NameClass::kMeta), "bytes");
  put("storage.put_bytes.data", put_bytes(NameClass::kData), "bytes");
  double store_bytes = static_cast<double>(sc.get_bytes);
  for (std::size_t i = 0; i < kNameClasses; ++i) store_bytes += static_cast<double>(sc.put_bytes[i]);
  put("storage.bytes_per_user_byte",
      Ratio(store_bytes, static_cast<double>(traced.stats.bytes(true) + traced.stats.bytes(false))),
      "ratio");
  put("afs.rpcs", get("afs.rpcs"), "count");

  const double hits = get("cache.hits");
  put("cache.self_s", cached ? ledger.self_s[layer(Layer::kStorage)] : 0.0, "s");
  put("cache.hit_ratio", Ratio(hits, hits + get("cache.misses")), "ratio");
  put("cache.misses", get("cache.misses"), "count");
  put("cache.evictions", get("cache.evictions"), "count");
  put("cache.writeback_objects", get("cache.writeback_objects"), "count");
  put("cache.writeback_batches", get("cache.writeback_batches"), "count");

  // net.client: per-call durations of the decorator around each
  // RemoteBackend. A Prefetch returns before its RPC completes, so it is
  // not a round trip.
  std::vector<double> rpc_ms;
  for (const SpanRecord& sp : spans) {
    if (sp.layer == Layer::kNetClient && std::strcmp(sp.name, "prefetch") != 0) {
      rpc_ms.push_back(static_cast<double>(sp.end_ns - sp.start_ns) * 1e-6);
    }
  }
  put("net.client.busy_s", ledger.covered_s[layer(Layer::kNetClient)], "s");
  put("net.client.rpcs", get("net.client.rpcs"), "count");
  put("net.client.bytes_sent", get("net.client.bytes_sent"), "bytes");
  put("net.client.bytes_received", get("net.client.bytes_received"), "bytes");
  put("net.client.retries", get("net.client.retries"), "count");
  AddLatency(r, "net.client.rpc_p50_ms", rpc_ms, 0.50);
  AddLatency(r, "net.client.rpc_p99_ms", rpc_ms, 0.99);
  put("net.client.prefetch_useful_ratio",
      Ratio(get("cache.prefetch_hits"), get("cache.prefetch_issued")), "ratio");

  put("net.server.rpcs_served", get("net.server.rpcs_served"), "count");
  put("net.server.bytes_in", get("net.server.bytes_in"), "bytes");
  put("net.server.bytes_out", get("net.server.bytes_out"), "bytes");
  for (const char* op : {"get", "put", "stream_append"}) {
    for (const char* p : {"_p50_ms", "_p99_ms"}) {
      const std::string key = std::string("net.server.lifetime_") + op + p;
      put(key, get(key), "ms");
    }
  }
  put("net.server.cpu_s", traced.daemon_cpu_s, "s");
  put("net.server.rss_MiB", traced.daemon_hwm_mib, "MiB");
  put("net.server.resident_threads", get("net.server.resident_threads"), "count");
  put("net.server.connections_accepted", get("net.server.connections_accepted"), "count");
  put("net.server.leases_granted", get("net.server.leases_granted"), "count");

  const double quorum_ops = get("cluster.quorum_reads") + get("cluster.quorum_writes");
  put("cluster.self_s", clustered ? ledger.self_s[layer(Layer::kCluster)] : 0.0, "s");
  put("cluster.quorum_reads", get("cluster.quorum_reads"), "count");
  put("cluster.quorum_writes", get("cluster.quorum_writes"), "count");
  put("cluster.shard_rpcs_per_op", Ratio(get("cluster.shard_rpcs"), quorum_ops), "ratio");
  put("cluster.read_repairs", get("cluster.read_repairs"), "count");
  put("cluster.failovers", get("cluster.failovers"), "count");

  // Ledger closure: layer self times sum to the root spans by
  // construction; the harness (oracle checks, input generation between
  // operations) is the rest of the measured wall time.
  put("ledger.wall_s", traced.wall_s, "s");
  put("ledger.attributed_ratio", Ratio(ledger.root_s, traced.wall_s), "ratio");
  put("bench.self_s", traced.wall_s - ledger.root_s, "s");
  put("trace.overhead_ratio", Ratio(traced.wall_s - bare.wall_s, bare.wall_s), "ratio");
  double span_count = 0;
  for (std::uint64_t n : ledger.spans) span_count += static_cast<double>(n);
  put("trace.spans", span_count, "count");
}

} // namespace

bool KnownWorkload(const std::string& name) {
  return name == "bulk" || name == "churn" || name == "scan";
}

RunResult RunWorkload(const RunOptions& opts) {
  RunResult result;
  const DeploymentConfig cfg = ConfigFor(opts.workload);
  result.meta["cpu_affinity"] = "inherited";
  if (cfg.one_cpu) {
    // Before any thread or daemon exists, so all of them inherit it.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof(one), &one) == 0) {
          result.meta["cpu_affinity"] = "cpu " + std::to_string(cpu);
        }
        break;
      }
    }
  }
  result.meta["schema_version"] = "1";
  result.meta["workload"] = opts.workload;
  result.meta["seed"] = std::to_string(opts.seed);
  result.meta["seconds"] = std::to_string(opts.seconds);
  result.meta["trace"] = opts.trace ? "1" : "0";
  result.meta["git_sha"] = opts.git_sha;
  result.meta["source_digest"] = opts.source_digest;
  result.meta["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  result.meta["build_type"] = PERFBENCH_BUILD_TYPE;
  result.meta["shards"] = std::to_string(cfg.shards);
  result.meta["replication"] = std::to_string(cfg.replication);
  result.meta["daemon_store"] = cfg.disk_store ? "disk" : "mem";
  result.meta["daemon_rpc_workers"] = std::to_string(cfg.rpc_workers);
  result.meta["client_threads"] = "1";
  result.meta["cache_mem_bytes"] = cfg.cache ? std::to_string(cfg.cache_mem_bytes) : "0";
  result.meta["cache_ttl_ms"] =
      cfg.cache ? (cfg.cache_ttl_ms == 0 ? "library-default" : std::to_string(cfg.cache_ttl_ms))
                : "none";
  result.meta["measured_units"] = std::to_string(MeasuredUnits(opts));
  result.meta["warmup_units"] = std::to_string(WarmupUnits(opts));

  const Inputs inputs = MakeInputs(opts);
  Recorder recorder;

  // One deployment: start, populate (timed as set-up), then `measure`.
  auto with_deployment = [&](bool decorate, auto&& measure) -> std::optional<double> {
    const std::int64_t t0 = NowNs();
    auto dep = Deployment::Start(cfg, opts, recorder, decorate);
    if (!dep.ok()) {
      ++result.failed;
      result.correct = false;
      result.problems.push_back("set-up: " + dep.status().ToString());
      return std::nullopt;
    }
    Deployment& d = *dep.value();
    for (long pid : d.pids()) result.daemon_pids.push_back(pid);
    result.scratch_dirs.push_back(d.scratch_path());
    result.meta["crypto_workers"] = std::to_string(d.crypto_workers());
    Session session(opts, d, recorder, result, inputs);
    const Status populated = Populate(session);
    const double setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
    if (!populated.ok()) {
      ++result.failed;
      result.correct = false;
      result.problems.push_back("populate: " + populated.ToString());
      return std::nullopt;
    }
    result.meta["cache_mode"] = !cfg.cache ? "none" : d.lease_mode() ? "lease-writeback" : "ttl";
    measure(session);
    return setup_s;
  };

  if (!opts.trace) {
    std::vector<double> setups;
    PhaseOutcome outcome;
    for (std::size_t i = 0; i < kSetups; ++i) {
      auto s = with_deployment(false, [&](Session& session) {
        if (i == 0) outcome = Measure(session, false);
      });
      if (!s) return result;
      setups.push_back(*s);
    }
    EndToEndMetrics(result, outcome, Median(setups));
    result.meta["measured_wall_s"] = std::to_string(outcome.wall_s);
    result.counts = DeterministicCounts(outcome);
    return result;
  }

  // Traced run: the same seed on a bare stack (overhead baseline) and on
  // the decorated stack with spans recorded. Both must issue identical
  // deterministic counts, or a decorator changed what it wraps.
  PhaseOutcome bare;
  PhaseOutcome traced;
  std::vector<SpanRecord> spans;
  if (!with_deployment(false, [&](Session& s) { bare = Measure(s, false); })) return result;
  const bool traced_ok = with_deployment(true, [&](Session& s) {
    traced = Measure(s, true);
    spans = recorder.Spans();
    PerLayerMetrics(result, traced, bare, s.d, spans);
  }).has_value();
  if (!traced_ok) return result;
  result.counts = DeterministicCounts(traced);
  const Counters bare_counts = DeterministicCounts(bare);
  double mismatches = 0;
  for (const auto& [k, v] : result.counts) {
    if (bare_counts.at(k) != v) {
      ++mismatches;
      result.problems.push_back("count " + k + " differs: bare " +
                                std::to_string(bare_counts.at(k)) + " vs traced " +
                                std::to_string(v));
    }
  }
  result.metrics["trace.count_mismatches"] = Metric{mismatches, "count"};
  result.metrics["oracle.failed_ratio"] =
      Metric{Ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted)),
             "ratio"};
  const std::string dir = opts.workdir + "/spans";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  result.span_dump = dir + "/" + opts.workload + "-seed" + std::to_string(opts.seed) + ".tsv";
  recorder.Dump(result.span_dump);
  return result;
}

} // namespace perfbench
