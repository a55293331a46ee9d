// Latency accounting for the evaluation's overhead breakdown (§VII-A):
//
//   Enclave runtime  — real compute time spent inside ecalls, measured with
//                      a monotonic clock (accumulated by NexusClient)
//   Metadata I/O     — virtual time of metadata fetch/store/lock RPCs
//   Data I/O         — virtual time of bulk data RPCs
//   Journal I/O      — virtual time of commit-journal record/anchor RPCs
//
// A workload's end-to-end latency is (virtual I/O time) + (real compute
// time); benchmarks combine the two explicitly so nothing double-counts.
// The journal counters come from the enclave's own statistics and let
// benchmarks report the group-commit batching factor (ops per record).
#pragma once

#include <cstdint>

#include "cache/cache_counters.hpp"
#include "cluster/cluster_counters.hpp"
#include "net/net_counters.hpp"
#include "storage/sim_clock.hpp"

namespace nexus::core {

/// Count + percentiles of one latency distribution (from a
/// trace::Histogram). The count is a counter; percentiles are gauges, so a
/// delta keeps the later snapshot's values.
struct LatencySummary {
  std::uint64_t count = 0;
  double p50_ms = 0;
  double p99_ms = 0;

  friend LatencySummary operator-(const LatencySummary& a,
                                  const LatencySummary& b) {
    return LatencySummary{a.count - b.count, a.p50_ms, a.p99_ms};
  }
};

struct JournalCounters {
  std::uint64_t records_committed = 0;
  std::uint64_t ops_committed = 0;
  std::uint64_t ops_deduped = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t ops_checkpointed = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t ops_replayed = 0;
  std::uint64_t torn_records_discarded = 0;

  friend JournalCounters operator-(const JournalCounters& a,
                                   const JournalCounters& b) {
    return JournalCounters{
        a.records_committed - b.records_committed,
        a.ops_committed - b.ops_committed,
        a.ops_deduped - b.ops_deduped,
        a.checkpoints - b.checkpoints,
        a.ops_checkpointed - b.ops_checkpointed,
        a.records_replayed - b.records_replayed,
        a.ops_replayed - b.ops_replayed,
        a.torn_records_discarded - b.torn_records_discarded,
    };
  }
};

/// Counters from the enclave's parallel chunk-crypto engine. The timing
/// fields are thread-CPU seconds: `worker_busy_seconds` sums every crypto
/// task, `critical_path_seconds` sums each batch's slowest worker — the
/// batch wall time an unloaded machine with as many cores as workers would
/// observe. `saved_seconds` is the surplus (measured wall − critical path)
/// already subtracted from `enclave_seconds`, i.e. how much the worker
/// pool shortened the modeled enclave runtime.
struct ParallelCounters {
  std::uint64_t chunks_encrypted = 0;
  std::uint64_t chunks_decrypted = 0;
  std::uint64_t parallel_batches = 0;
  std::uint64_t segments_streamed = 0;
  std::uint64_t peak_queue_depth = 0;
  double worker_busy_seconds = 0;
  double critical_path_seconds = 0;
  double saved_seconds = 0;

  friend ParallelCounters operator-(const ParallelCounters& a,
                                    const ParallelCounters& b) {
    return ParallelCounters{
        a.chunks_encrypted - b.chunks_encrypted,
        a.chunks_decrypted - b.chunks_decrypted,
        a.parallel_batches - b.parallel_batches,
        a.segments_streamed - b.segments_streamed,
        // Gauge, not a counter: deltas keep the later sample's peak.
        a.peak_queue_depth,
        a.worker_busy_seconds - b.worker_busy_seconds,
        a.critical_path_seconds - b.critical_path_seconds,
        a.saved_seconds - b.saved_seconds,
    };
  }
};

struct ProfileSnapshot {
  double io_seconds = 0; // total virtual (simulated network/server) time
  double enclave_seconds = 0;
  double metadata_io_seconds = 0;
  double data_io_seconds = 0;
  double journal_io_seconds = 0;
  JournalCounters journal;
  ParallelCounters parallel;
  /// Real-network RPC counters (process-global, nonzero only when the run
  /// talks to nexusd through a RemoteBackend). Percentiles are gauges.
  net::NetCounters net;
  /// Object-cache counters (process-global, nonzero only when a
  /// cache::CachedBackend fronts the storage). `dirty_bytes_high_water`
  /// is a gauge.
  cache::CacheCounters cache;
  /// Cluster-client quorum/replication counters (process-global, nonzero
  /// only when a cluster::ClusterBackend fans writes across shards). The
  /// latency fields are gauges.
  cluster::ClusterCounters cluster;
  /// Wall-time distribution of every timed ecall (process-global
  /// trace::GlobalHistogram("ecall")).
  LatencySummary ecall_latency;
  /// Wall-time distribution of durable journal record commits
  /// (trace::GlobalHistogram("journal.commit")).
  LatencySummary journal_commit_latency;
  /// Spans completed by the tracer (0 unless tracing is enabled).
  std::uint64_t trace_spans = 0;

  friend ProfileSnapshot operator-(const ProfileSnapshot& a,
                                   const ProfileSnapshot& b) {
    return ProfileSnapshot{
        a.io_seconds - b.io_seconds,
        a.enclave_seconds - b.enclave_seconds,
        a.metadata_io_seconds - b.metadata_io_seconds,
        a.data_io_seconds - b.data_io_seconds,
        a.journal_io_seconds - b.journal_io_seconds,
        a.journal - b.journal,
        a.parallel - b.parallel,
        a.net - b.net,
        a.cache - b.cache,
        a.cluster - b.cluster,
        a.ecall_latency - b.ecall_latency,
        a.journal_commit_latency - b.journal_commit_latency,
        a.trace_spans - b.trace_spans,
    };
  }
};

} // namespace nexus::core
