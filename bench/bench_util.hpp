// Shared benchmark scaffolding: paired OpenAFS-baseline / NEXUS setups on
// identical cost models, a timer combining real compute and virtual I/O
// time, and paper-style table printing.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "common/clock.hpp"
#include "core/nexus_client.hpp"
#include "core/user_key.hpp"
#include "crypto/rng.hpp"
#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"
#include "storage/afs.hpp"
#include "storage/backend.hpp"
#include "trace/trace.hpp"
#include "vfs/afs_passthrough_fs.hpp"
#include "vfs/nexus_fs.hpp"

namespace nexus::bench {

/// One measured deployment: its own virtual clock, AFS server and client,
/// plus (for NEXUS setups) the SGX machine and mounted volume.
class Setup {
 public:
  /// Bare AFS (the paper's unmodified-OpenAFS baseline).
  static std::unique_ptr<Setup> Baseline(storage::CostModel cost = {}) {
    auto s = std::unique_ptr<Setup>(new Setup(cost));
    s->fs_ = std::make_unique<vfs::AfsPassthroughFs>(*s->afs_);
    return s;
  }

  /// NEXUS stacked on the same AFS deployment, volume created and mounted.
  /// `backend` overrides the AFS server's object store (default: in-memory)
  /// — e.g. a DiskBackend, or a net::RemoteBackend dialing a live nexusd.
  static std::unique_ptr<Setup> Nexus(
      storage::CostModel cost = {}, enclave::VolumeConfig config = {},
      std::unique_ptr<storage::StorageBackend> backend = nullptr) {
    auto s = std::unique_ptr<Setup>(new Setup(cost, std::move(backend)));
    s->cpu_ = s->intel_->ProvisionCpu(AsBytes("bench-cpu"));
    s->runtime_ = std::make_unique<sgx::EnclaveRuntime>(
        *s->cpu_, sgx::NexusEnclaveImage(), AsBytes("bench-rng"));
    s->nexus_ = std::make_unique<core::NexusClient>(*s->runtime_, *s->afs_,
                                                    s->intel_->root_public_key());
    s->user_ = core::UserKey::Generate("bench-user", s->rng_);
    auto handle = s->nexus_->CreateVolume(s->user_, config);
    if (!handle.ok()) {
      std::fprintf(stderr, "bench setup failed: %s\n",
                   handle.status().ToString().c_str());
      std::abort();
    }
    s->handle_ = std::move(handle).value();
    s->fs_ = std::make_unique<vfs::NexusFs>(*s->nexus_);
    return s;
  }

  [[nodiscard]] vfs::FileSystem& fs() { return *fs_; }
  [[nodiscard]] const core::NexusClient::VolumeHandle& handle() const {
    return handle_;
  }
  [[nodiscard]] const core::UserKey& user() const { return user_; }
  [[nodiscard]] storage::SimClock& clock() { return clock_; }
  [[nodiscard]] storage::AfsServer& server() { return server_; }
  [[nodiscard]] storage::AfsClient& afs() { return *afs_; }
  [[nodiscard]] core::NexusClient* nexus() { return nexus_.get(); }
  [[nodiscard]] sgx::EnclaveRuntime& runtime() { return *runtime_; }
  [[nodiscard]] const sgx::IntelAttestationService& intel() const {
    return *intel_;
  }
  [[nodiscard]] crypto::Rng& rng() { return rng_; }

  /// Cold caches, as the evaluation does before each run.
  void FlushCaches() {
    afs_->FlushCache();
    if (nexus_) nexus_->enclave().EcallDropCaches();
  }

  [[nodiscard]] double EnclaveSeconds() const {
    return nexus_ ? nexus_->Profile().enclave_seconds : 0.0;
  }
  [[nodiscard]] double MetaIoSeconds() const {
    return nexus_ ? nexus_->Profile().metadata_io_seconds : 0.0;
  }

 private:
  explicit Setup(storage::CostModel cost,
                 std::unique_ptr<storage::StorageBackend> backend = nullptr)
      : rng_(AsBytes("bench-seed")),
        intel_(std::make_unique<sgx::IntelAttestationService>(AsBytes("intel"))),
        server_(backend != nullptr
                    ? std::move(backend)
                    : std::make_unique<storage::MemBackend>(),
                clock_, cost) {
    afs_ = std::make_unique<storage::AfsClient>(server_, "bench-client");
  }

  crypto::HmacDrbg rng_;
  std::unique_ptr<sgx::IntelAttestationService> intel_;
  storage::SimClock clock_;
  storage::AfsServer server_;
  std::unique_ptr<storage::AfsClient> afs_;
  std::unique_ptr<sgx::SgxCpu> cpu_;
  std::unique_ptr<sgx::EnclaveRuntime> runtime_;
  std::unique_ptr<core::NexusClient> nexus_;
  core::UserKey user_;
  core::NexusClient::VolumeHandle handle_;
  std::unique_ptr<vfs::FileSystem> fs_;
};

/// Measures one workload phase: end-to-end latency = real wall time of the
/// phase + virtual I/O time it generated (enclave compute is part of wall
/// time; the virtual clock holds only simulated network/server cost).
class PhaseTimer {
 public:
  explicit PhaseTimer(Setup& setup, const char* label = "bench:phase")
      : span_(label, "bench"),
        setup_(setup),
        wall_start_(MonotonicNanos()),
        io_start_(setup.clock().Now()),
        meta_start_(setup.MetaIoSeconds()),
        enclave_start_(setup.EnclaveSeconds()) {}

  struct Sample {
    double total = 0;
    double metadata_io = 0;
    double enclave = 0;
  };

  [[nodiscard]] Sample Stop() const {
    Sample s;
    const double wall =
        static_cast<double>(MonotonicNanos() - wall_start_) * 1e-9;
    s.total = wall + (setup_.clock().Now() - io_start_);
    s.metadata_io = setup_.MetaIoSeconds() - meta_start_;
    s.enclave = setup_.EnclaveSeconds() - enclave_start_;
    return s;
  }

 private:
  trace::Span span_; // declared first: covers the whole phase lifetime
  Setup& setup_;
  std::uint64_t wall_start_;
  double io_start_;
  double meta_start_;
  double enclave_start_;
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void Abort(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench failed (%s): %s\n", what,
                 status.ToString().c_str());
    std::fflush(stdout); // keep the tables printed so far when redirected
    std::abort();
  }
}

} // namespace nexus::bench
