// Span recorder and per-layer time ledger for the end-to-end benchmark.
//
// Spans are recorded only from the benchmark's own code: one root span
// around every operation the workload issues, and one span per call that
// crosses a TimedBackend decorator. Each span carries its layer, a name,
// start/end (steady_clock ns), the span that caused it and the id of the
// root operation it belongs to. Spans are kept in memory and dumped when
// the run ends.
//
// The ledger splits each root operation's wall time by layer. Layers are
// ordered outermost first (op, storage, cluster, net.client) and a
// deployment uses a subset of them. A layer's covered time is the union of
// its spans intersected with the covered time of the next layer out, and
// its self time is that minus the next layer in's covered time.
// The self times of all layers therefore sum to the root spans exactly,
// and a child that leaks outside its parent's interval is clipped, never
// double counted.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
std::int64_t NowNs();

enum class Layer : std::uint8_t { kOp = 0, kStorage, kCluster, kNetClient };
inline constexpr std::size_t kLayerCount = 4;
const char* LayerName(Layer layer);

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0; // 0 = none
  std::uint64_t op = 0;     // root operation id
  Layer layer = Layer::kOp;
  const char* name = "";    // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Recorder {
 public:
  /// Spans are recorded only while enabled.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// RAII span. A disabled recorder makes this a no-op.
  class Scope {
   public:
    Scope(Recorder& recorder, Layer layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder* recorder_ = nullptr; // null when disabled
    std::uint64_t saved_parent_ = 0;
    SpanRecord record_;
  };

  [[nodiscard]] std::vector<SpanRecord> Spans() const;
  void Clear();

  /// Writes the spans as tab-separated lines (id parent op layer name
  /// start_ns end_ns). Returns false on I/O failure.
  bool Dump(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  // Root operation currently open on the client thread; spans opened on
  // other threads (pipelined stream segments, shard fan-out) attach to it.
  std::atomic<std::uint64_t> current_op_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_; // guarded by mu_
};

/// A set of half-open [start, end) intervals.
using Intervals = std::vector<std::pair<std::int64_t, std::int64_t>>;
/// Sorted, disjoint union.
Intervals Union(Intervals in);
/// Intersection of two unions (both sorted and disjoint).
Intervals Intersect(const Intervals& a, const Intervals& b);
std::int64_t Length(const Intervals& in);

struct LedgerTotals {
  std::array<double, kLayerCount> covered_s{}; // per layer
  std::array<double, kLayerCount> self_s{};    // per layer
  std::array<std::uint64_t, kLayerCount> spans{};
  double root_s = 0; // sum of root operation durations
};

/// Which layers a deployment has; absent layers are skipped when nesting
/// (a net.client span under storage is storage's child when there is no
/// cluster layer).
using LayerMask = std::array<bool, kLayerCount>;

/// Folds every root operation's spans into per-layer covered/self time.
LedgerTotals ComputeLedger(const std::vector<SpanRecord>& spans,
                           const LayerMask& active);

/// Self-checks of the interval math (used by --selftest).
bool LedgerSelfTest(std::string* why);

} // namespace perfbench
