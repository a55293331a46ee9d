#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

// Innermost open span on this thread (0 = none).
thread_local std::uint64_t tls_parent = 0;

} // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kStorage: return "storage";
    case Layer::kCluster: return "cluster";
    case Layer::kNetClient: return "net.client";
  }
  return "?";
}

Recorder::Scope::Scope(Recorder& recorder, Layer layer, const char* name) {
  if (!recorder.enabled()) return;
  recorder_ = &recorder;
  record_.id = recorder.next_id_.fetch_add(1, std::memory_order_relaxed);
  record_.layer = layer;
  record_.name = name;
  if (layer == Layer::kOp) {
    record_.op = record_.id;
    recorder.current_op_.store(record_.id, std::memory_order_relaxed);
  } else {
    record_.op = recorder.current_op_.load(std::memory_order_relaxed);
  }
  saved_parent_ = tls_parent;
  if (layer != Layer::kOp) {
    record_.parent = tls_parent != 0 ? tls_parent : record_.op;
  }
  tls_parent = record_.id;
  record_.start_ns = NowNs();
}

Recorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  record_.end_ns = NowNs();
  tls_parent = saved_parent_;
  if (record_.layer == Layer::kOp) {
    recorder_->current_op_.store(0, std::memory_order_relaxed);
  }
  const std::lock_guard<std::mutex> lock(recorder_->mu_);
  recorder_->spans_.push_back(record_);
}

std::vector<SpanRecord> Recorder::Spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Recorder::Clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

bool Recorder::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# id\tparent\top\tlayer\tname\tstart_ns\tend_ns\n");
  for (const SpanRecord& s : Spans()) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), LayerName(s.layer),
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

Intervals Union(Intervals in) {
  std::sort(in.begin(), in.end());
  Intervals out;
  for (const auto& iv : in) {
    if (iv.second <= iv.first) continue;
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

Intervals Intersect(const Intervals& a, const Intervals& b) {
  Intervals out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const std::int64_t lo = std::max(a[i].first, b[j].first);
    const std::int64_t hi = std::min(a[i].second, b[j].second);
    if (lo < hi) out.emplace_back(lo, hi);
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

std::int64_t Length(const Intervals& in) {
  std::int64_t total = 0;
  for (const auto& iv : in) total += iv.second - iv.first;
  return total;
}

LedgerTotals ComputeLedger(const std::vector<SpanRecord>& spans,
                           const LayerMask& active) {
  LedgerTotals totals;
  // op id -> per-layer raw intervals
  std::unordered_map<std::uint64_t, std::array<Intervals, kLayerCount>> ops;
  for (const SpanRecord& s : spans) {
    const auto layer = static_cast<std::size_t>(s.layer);
    ++totals.spans[layer];
    if (s.op == 0) continue; // outside any operation (e.g. teardown)
    ops[s.op][layer].emplace_back(s.start_ns, s.end_ns);
  }
  for (auto& [op, layers] : ops) {
    (void)op;
    if (layers[0].empty()) continue; // root not recorded
    std::vector<std::size_t> chain = {0};
    for (std::size_t l = 1; l < kLayerCount; ++l) {
      if (active[l]) chain.push_back(l);
    }
    std::array<Intervals, kLayerCount> covered;
    covered[0] = Union(layers[0]);
    for (std::size_t k = 1; k < chain.size(); ++k) {
      covered[chain[k]] =
          Intersect(Union(layers[chain[k]]), covered[chain[k - 1]]);
    }
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const std::int64_t mine = Length(covered[chain[k]]);
      const std::int64_t below =
          k + 1 < chain.size() ? Length(covered[chain[k + 1]]) : 0;
      totals.covered_s[chain[k]] += static_cast<double>(mine) * 1e-9;
      totals.self_s[chain[k]] += static_cast<double>(mine - below) * 1e-9;
    }
    totals.root_s += static_cast<double>(Length(covered[0])) * 1e-9;
  }
  return totals;
}

bool LedgerSelfTest(std::string* why) {
  auto fail = [why](const char* msg) {
    *why = msg;
    return false;
  };
  if (Length(Union({{0, 10}, {5, 15}, {20, 30}})) != 25) {
    return fail("union of overlapping intervals");
  }
  if (Length(Intersect(Union({{0, 10}, {20, 30}}), Union({{5, 25}}))) != 10) {
    return fail("intersection");
  }
  // Root [0,100); storage [10,60) and [70,90); net [20,50) plus a leak
  // [85,120) that must be clipped to its parent's interval.
  std::vector<SpanRecord> spans = {
      {1, 0, 1, Layer::kOp, "op", 0, 100},
      {2, 1, 1, Layer::kStorage, "get", 10, 60},
      {3, 1, 1, Layer::kStorage, "put", 70, 90},
      {4, 2, 1, Layer::kNetClient, "get", 20, 50},
      {5, 3, 1, Layer::kNetClient, "put", 85, 120},
  };
  const LedgerTotals t = ComputeLedger(spans, {true, true, false, true});
  const auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9 + 0.5); };
  if (ns(t.self_s[0]) != 30 || ns(t.self_s[1]) != 35 || ns(t.self_s[2]) != 0 ||
      ns(t.self_s[3]) != 35) {
    return fail("layer self times");
  }
  double sum = 0;
  for (double s : t.self_s) sum += s;
  if (ns(sum) != ns(t.root_s) || ns(t.root_s) != 100) {
    return fail("self times must sum to the root span");
  }
  return true;
}

} // namespace perfbench
