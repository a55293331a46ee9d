// TimedBackend: a StorageBackend decorator that records one span per call
// (when the recorder is enabled) and counts calls and bytes by kind.
//
// It forwards EVERY StorageBackend virtual to the wrapped backend. A
// missing override would silently fall back to the base-class default and
// change the behaviour being measured: leases dropped (GetLeased /
// PutLeased / SubscribeInvalidations), streamed puts buffered
// (OpenUnbufferedPutStream), readahead disabled (Prefetch /
// SetPrefetchSink) or batches split (MultiGet*). --selftest checks the
// forwarding call by call.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "ledger.hpp"
#include "storage/backend.hpp"

namespace perfbench {

enum class CallKind : std::uint8_t {
  kGet,
  kGetLeased,
  kPut,
  kPutLeased,
  kDelete,
  kExists,
  kList,
  kListSome,
  kMultiGet,
  kMultiGetLeased,
  kMultiExists,
  kPrefetch,
  kSetPrefetchSink,
  kSubscribe,
  kFlush,
  kOpenPutStream,
  kOpenUnbufferedPutStream,
  kStreamAppend,
  kStreamCommit,
  kStreamAbort,
  kCount
};
inline constexpr std::size_t kCallKinds = static_cast<std::size_t>(CallKind::kCount);
const char* CallKindName(CallKind kind);

/// Object-name namespaces of a NEXUS volume on the store.
enum class NameClass : std::uint8_t { kMeta, kData, kJournal, kOther, kCount };
inline constexpr std::size_t kNameClasses = static_cast<std::size_t>(NameClass::kCount);
NameClass Classify(const std::string& name);
const char* NameClassName(NameClass c);

struct CallCounts {
  std::array<std::uint64_t, kCallKinds> calls{};
  std::array<std::uint64_t, kNameClasses> put_bytes{}; // Put*, stream appends
  std::uint64_t get_bytes = 0;                         // Get*, MultiGet*
};

class TimedBackend final : public nexus::storage::StorageBackend {
 public:
  TimedBackend(std::unique_ptr<nexus::storage::StorageBackend> inner,
               Layer layer, Recorder& recorder);

  [[nodiscard]] nexus::storage::StorageBackend& inner() { return *inner_; }
  [[nodiscard]] CallCounts counts() const;

  nexus::Result<nexus::Bytes> Get(const std::string& name) override;
  nexus::Status Put(const std::string& name, nexus::ByteSpan data) override;
  nexus::Status Delete(const std::string& name) override;
  bool Exists(const std::string& name) override;
  std::vector<std::string> List(const std::string& prefix) override;
  nexus::Result<std::unique_ptr<PutStream>> OpenPutStream(
      const std::string& name) override;
  nexus::Result<std::unique_ptr<PutStream>> OpenUnbufferedPutStream(
      const std::string& name) override;
  ListPage ListSome(const std::string& prefix, const std::string& start_after,
                    std::size_t limit) override;
  std::vector<nexus::Result<nexus::Bytes>> MultiGet(
      const std::vector<std::string>& names) override;
  std::vector<nexus::Result<nexus::Bytes>> MultiGetLeased(
      const std::vector<std::string>& names, std::vector<bool>* leased) override;
  std::vector<bool> MultiExists(const std::vector<std::string>& names) override;
  void Prefetch(const std::string& name) override;
  void SetPrefetchSink(PrefetchSink sink) override;
  nexus::Result<nexus::Bytes> GetLeased(const std::string& name,
                                        bool* lease_granted) override;
  nexus::Status PutLeased(const std::string& name, nexus::ByteSpan data,
                          bool* lease_granted) override;
  nexus::Status Flush() override;
  bool SubscribeInvalidations(InvalidationListener on_invalidate,
                              ChannelDownHandler on_channel_down) override;

 private:
  friend class TimedPutStream;

  void Count(CallKind kind) {
    calls_[static_cast<std::size_t>(kind)].fetch_add(1, std::memory_order_relaxed);
  }
  void CountPut(const std::string& name, std::size_t bytes) {
    put_bytes_[static_cast<std::size_t>(Classify(name))].fetch_add(
        bytes, std::memory_order_relaxed);
  }
  void CountGet(std::size_t bytes) {
    get_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  nexus::Result<std::unique_ptr<PutStream>> WrapStream(
      const std::string& name,
      nexus::Result<std::unique_ptr<PutStream>> opened);

  std::unique_ptr<nexus::storage::StorageBackend> inner_;
  Layer layer_;
  Recorder& recorder_;
  std::array<std::atomic<std::uint64_t>, kCallKinds> calls_{};
  std::array<std::atomic<std::uint64_t>, kNameClasses> put_bytes_{};
  std::atomic<std::uint64_t> get_bytes_{0};
};

/// Calls every StorageBackend virtual on a TimedBackend and checks that
/// the wrapped backend received exactly that call (used by --selftest).
bool DecoratorSelfTest(std::string* why);

} // namespace perfbench
