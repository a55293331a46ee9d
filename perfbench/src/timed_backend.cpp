#include "timed_backend.hpp"

#include <vector>

namespace perfbench {

using nexus::ByteSpan;
using nexus::Bytes;
using nexus::Result;
using nexus::Status;

const char* CallKindName(CallKind kind) {
  static constexpr const char* kNames[kCallKinds] = {
      "get",          "get_leased",       "put",
      "put_leased",   "delete",           "exists",
      "list",         "list_some",        "multi_get",
      "multi_get_leased", "multi_exists", "prefetch",
      "set_prefetch_sink", "subscribe",   "flush",
      "open_put_stream", "open_unbuffered_put_stream", "stream_append",
      "stream_commit", "stream_abort",
  };
  return kNames[static_cast<std::size_t>(kind)];
}

NameClass Classify(const std::string& name) {
  if (name.rfind("nxj/", 0) == 0) return NameClass::kJournal;
  if (name.rfind("nxd/", 0) == 0) return NameClass::kData;
  if (name.rfind("nx/", 0) == 0) return NameClass::kMeta;
  return NameClass::kOther;
}

const char* NameClassName(NameClass c) {
  switch (c) {
    case NameClass::kMeta: return "meta";
    case NameClass::kData: return "data";
    case NameClass::kJournal: return "journal";
    default: return "other";
  }
}

TimedBackend::TimedBackend(std::unique_ptr<nexus::storage::StorageBackend> inner,
                           Layer layer, Recorder& recorder)
    : inner_(std::move(inner)), layer_(layer), recorder_(recorder) {}

CallCounts TimedBackend::counts() const {
  CallCounts out;
  for (std::size_t i = 0; i < kCallKinds; ++i) {
    out.calls[i] = calls_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kNameClasses; ++i) {
    out.put_bytes[i] = put_bytes_[i].load(std::memory_order_relaxed);
  }
  out.get_bytes = get_bytes_.load(std::memory_order_relaxed);
  return out;
}

// One PutStream segment sequence: every Append/Commit/Abort is a call of
// its own at this layer.
class TimedPutStream final : public nexus::storage::StorageBackend::PutStream {
 public:
  TimedPutStream(TimedBackend& owner, std::string name,
                 std::unique_ptr<PutStream> inner)
      : owner_(owner), name_(std::move(name)), inner_(std::move(inner)) {}

  Status Append(ByteSpan data) override {
    const Recorder::Scope span(owner_.recorder_, owner_.layer_, "stream_append");
    owner_.Count(CallKind::kStreamAppend);
    owner_.CountPut(name_, data.size());
    return inner_->Append(data);
  }
  Status Commit() override {
    const Recorder::Scope span(owner_.recorder_, owner_.layer_, "stream_commit");
    owner_.Count(CallKind::kStreamCommit);
    return inner_->Commit();
  }
  void Abort() override {
    const Recorder::Scope span(owner_.recorder_, owner_.layer_, "stream_abort");
    owner_.Count(CallKind::kStreamAbort);
    inner_->Abort();
  }

 private:
  TimedBackend& owner_;
  std::string name_;
  std::unique_ptr<PutStream> inner_;
};

Result<std::unique_ptr<TimedBackend::PutStream>> TimedBackend::WrapStream(
    const std::string& name, Result<std::unique_ptr<PutStream>> opened) {
  if (!opened.ok()) return opened.status();
  return std::unique_ptr<PutStream>(
      std::make_unique<TimedPutStream>(*this, name, std::move(opened).value()));
}

Result<Bytes> TimedBackend::Get(const std::string& name) {
  const Recorder::Scope span(recorder_, layer_, "get");
  Count(CallKind::kGet);
  Result<Bytes> out = inner_->Get(name);
  if (out.ok()) CountGet(out.value().size());
  return out;
}

Status TimedBackend::Put(const std::string& name, ByteSpan data) {
  const Recorder::Scope span(recorder_, layer_, "put");
  Count(CallKind::kPut);
  CountPut(name, data.size());
  return inner_->Put(name, data);
}

Status TimedBackend::Delete(const std::string& name) {
  const Recorder::Scope span(recorder_, layer_, "delete");
  Count(CallKind::kDelete);
  return inner_->Delete(name);
}

bool TimedBackend::Exists(const std::string& name) {
  const Recorder::Scope span(recorder_, layer_, "exists");
  Count(CallKind::kExists);
  return inner_->Exists(name);
}

std::vector<std::string> TimedBackend::List(const std::string& prefix) {
  const Recorder::Scope span(recorder_, layer_, "list");
  Count(CallKind::kList);
  return inner_->List(prefix);
}

Result<std::unique_ptr<TimedBackend::PutStream>> TimedBackend::OpenPutStream(
    const std::string& name) {
  const Recorder::Scope span(recorder_, layer_, "open_put_stream");
  Count(CallKind::kOpenPutStream);
  return WrapStream(name, inner_->OpenPutStream(name));
}

Result<std::unique_ptr<TimedBackend::PutStream>>
TimedBackend::OpenUnbufferedPutStream(const std::string& name) {
  const Recorder::Scope span(recorder_, layer_, "open_unbuffered_put_stream");
  Count(CallKind::kOpenUnbufferedPutStream);
  return WrapStream(name, inner_->OpenUnbufferedPutStream(name));
}

TimedBackend::ListPage TimedBackend::ListSome(const std::string& prefix,
                                              const std::string& start_after,
                                              std::size_t limit) {
  const Recorder::Scope span(recorder_, layer_, "list_some");
  Count(CallKind::kListSome);
  return inner_->ListSome(prefix, start_after, limit);
}

std::vector<Result<Bytes>> TimedBackend::MultiGet(
    const std::vector<std::string>& names) {
  const Recorder::Scope span(recorder_, layer_, "multi_get");
  Count(CallKind::kMultiGet);
  std::vector<Result<Bytes>> out = inner_->MultiGet(names);
  for (const auto& r : out) {
    if (r.ok()) CountGet(r.value().size());
  }
  return out;
}

std::vector<Result<Bytes>> TimedBackend::MultiGetLeased(
    const std::vector<std::string>& names, std::vector<bool>* leased) {
  const Recorder::Scope span(recorder_, layer_, "multi_get_leased");
  Count(CallKind::kMultiGetLeased);
  std::vector<Result<Bytes>> out = inner_->MultiGetLeased(names, leased);
  for (const auto& r : out) {
    if (r.ok()) CountGet(r.value().size());
  }
  return out;
}

std::vector<bool> TimedBackend::MultiExists(const std::vector<std::string>& names) {
  const Recorder::Scope span(recorder_, layer_, "multi_exists");
  Count(CallKind::kMultiExists);
  return inner_->MultiExists(names);
}

void TimedBackend::Prefetch(const std::string& name) {
  const Recorder::Scope span(recorder_, layer_, "prefetch");
  Count(CallKind::kPrefetch);
  inner_->Prefetch(name);
}

void TimedBackend::SetPrefetchSink(PrefetchSink sink) {
  Count(CallKind::kSetPrefetchSink);
  inner_->SetPrefetchSink(std::move(sink));
}

Result<Bytes> TimedBackend::GetLeased(const std::string& name,
                                      bool* lease_granted) {
  const Recorder::Scope span(recorder_, layer_, "get_leased");
  Count(CallKind::kGetLeased);
  Result<Bytes> out = inner_->GetLeased(name, lease_granted);
  if (out.ok()) CountGet(out.value().size());
  return out;
}

Status TimedBackend::PutLeased(const std::string& name, ByteSpan data,
                               bool* lease_granted) {
  const Recorder::Scope span(recorder_, layer_, "put_leased");
  Count(CallKind::kPutLeased);
  CountPut(name, data.size());
  return inner_->PutLeased(name, data, lease_granted);
}

Status TimedBackend::Flush() {
  const Recorder::Scope span(recorder_, layer_, "flush");
  Count(CallKind::kFlush);
  return inner_->Flush();
}

bool TimedBackend::SubscribeInvalidations(InvalidationListener on_invalidate,
                                          ChannelDownHandler on_channel_down) {
  Count(CallKind::kSubscribe);
  return inner_->SubscribeInvalidations(std::move(on_invalidate),
                                        std::move(on_channel_down));
}

// ---- forwarding self-test ---------------------------------------------------

namespace {

// Records the last virtual it received and answers every lease/page query
// with the non-default value, so a base-class fallback in the decorator
// shows up as a mismatch.
class ProbeBackend final : public nexus::storage::StorageBackend {
 public:
  std::vector<CallKind> seen;

  Result<Bytes> Get(const std::string&) override {
    seen.push_back(CallKind::kGet);
    return Bytes{1, 2, 3};
  }
  Status Put(const std::string&, ByteSpan) override {
    seen.push_back(CallKind::kPut);
    return Status::Ok();
  }
  Status Delete(const std::string&) override {
    seen.push_back(CallKind::kDelete);
    return Status::Ok();
  }
  bool Exists(const std::string&) override {
    seen.push_back(CallKind::kExists);
    return true;
  }
  std::vector<std::string> List(const std::string&) override {
    seen.push_back(CallKind::kList);
    return {"a"};
  }
  Result<std::unique_ptr<PutStream>> OpenPutStream(const std::string&) override {
    seen.push_back(CallKind::kOpenPutStream);
    return std::unique_ptr<PutStream>(std::make_unique<ProbeStream>(*this));
  }
  Result<std::unique_ptr<PutStream>> OpenUnbufferedPutStream(
      const std::string&) override {
    seen.push_back(CallKind::kOpenUnbufferedPutStream);
    return std::unique_ptr<PutStream>(std::make_unique<ProbeStream>(*this));
  }
  ListPage ListSome(const std::string&, const std::string&, std::size_t) override {
    seen.push_back(CallKind::kListSome);
    return ListPage{{"p"}, true};
  }
  std::vector<Result<Bytes>> MultiGet(const std::vector<std::string>& n) override {
    seen.push_back(CallKind::kMultiGet);
    return std::vector<Result<Bytes>>(n.size(), Result<Bytes>(Bytes{7}));
  }
  std::vector<Result<Bytes>> MultiGetLeased(const std::vector<std::string>& n,
                                            std::vector<bool>* leased) override {
    seen.push_back(CallKind::kMultiGetLeased);
    if (leased != nullptr) leased->assign(n.size(), true);
    return std::vector<Result<Bytes>>(n.size(), Result<Bytes>(Bytes{7}));
  }
  std::vector<bool> MultiExists(const std::vector<std::string>& n) override {
    seen.push_back(CallKind::kMultiExists);
    return std::vector<bool>(n.size(), true);
  }
  void Prefetch(const std::string&) override { seen.push_back(CallKind::kPrefetch); }
  void SetPrefetchSink(PrefetchSink) override {
    seen.push_back(CallKind::kSetPrefetchSink);
  }
  Result<Bytes> GetLeased(const std::string&, bool* granted) override {
    seen.push_back(CallKind::kGetLeased);
    if (granted != nullptr) *granted = true;
    return Bytes{4};
  }
  Status PutLeased(const std::string&, ByteSpan, bool* granted) override {
    seen.push_back(CallKind::kPutLeased);
    if (granted != nullptr) *granted = true;
    return Status::Ok();
  }
  Status Flush() override {
    seen.push_back(CallKind::kFlush);
    return Status::Ok();
  }
  bool SubscribeInvalidations(InvalidationListener, ChannelDownHandler) override {
    seen.push_back(CallKind::kSubscribe);
    return true;
  }

 private:
  class ProbeStream final : public PutStream {
   public:
    explicit ProbeStream(ProbeBackend& owner) : owner_(owner) {}
    Status Append(ByteSpan) override {
      owner_.seen.push_back(CallKind::kStreamAppend);
      return Status::Ok();
    }
    Status Commit() override {
      owner_.seen.push_back(CallKind::kStreamCommit);
      return Status::Ok();
    }
    void Abort() override { owner_.seen.push_back(CallKind::kStreamAbort); }

   private:
    ProbeBackend& owner_;
  };
};

} // namespace

bool DecoratorSelfTest(std::string* why) {
  Recorder recorder;
  recorder.SetEnabled(true);
  auto probe_owner = std::make_unique<ProbeBackend>();
  ProbeBackend& probe = *probe_owner;
  TimedBackend timed(std::move(probe_owner), Layer::kStorage, recorder);
  const Bytes payload = {9, 9};
  bool ok = true;
  auto expect = [&](CallKind kind, bool cond) {
    if (!ok) return;
    if (probe.seen.empty() || probe.seen.back() != kind || !cond ||
        timed.counts().calls[static_cast<std::size_t>(kind)] != 1) {
      *why = std::string("decorator did not forward ") + CallKindName(kind);
      ok = false;
    }
  };
  expect(CallKind::kGet, timed.Get("nx/a").ok());
  expect(CallKind::kPut, timed.Put("nx/a", payload).ok());
  expect(CallKind::kDelete, timed.Delete("nx/a").ok());
  expect(CallKind::kExists, timed.Exists("nx/a"));
  expect(CallKind::kList, timed.List("nx/").size() == 1);
  const auto page = timed.ListSome("nx/", "", 10);
  expect(CallKind::kListSome, page.more && page.names.size() == 1);
  expect(CallKind::kMultiGet, timed.MultiGet({"a", "b"}).size() == 2);
  std::vector<bool> leased;
  timed.MultiGetLeased({"a", "b"}, &leased);
  expect(CallKind::kMultiGetLeased, leased == std::vector<bool>{true, true});
  expect(CallKind::kMultiExists, timed.MultiExists({"a"}) == std::vector<bool>{true});
  timed.Prefetch("nxd/x");
  expect(CallKind::kPrefetch, true);
  timed.SetPrefetchSink([](const std::string&, Result<Bytes>, bool) {});
  expect(CallKind::kSetPrefetchSink, true);
  bool granted = false;
  expect(CallKind::kGetLeased, timed.GetLeased("nx/a", &granted).ok() && granted);
  granted = false;
  expect(CallKind::kPutLeased, timed.PutLeased("nx/a", payload, &granted).ok() && granted);
  expect(CallKind::kFlush, timed.Flush().ok());
  expect(CallKind::kSubscribe, timed.SubscribeInvalidations(
                                   [](const std::vector<std::string>&) {}, [] {}));
  {
    auto stream = timed.OpenPutStream("nxd/s");
    expect(CallKind::kOpenPutStream, stream.ok());
    if (ok) {
      expect(CallKind::kStreamAppend, stream.value()->Append(payload).ok());
      expect(CallKind::kStreamCommit, stream.value()->Commit().ok());
    }
  }
  {
    auto stream = timed.OpenUnbufferedPutStream("nxd/u");
    expect(CallKind::kOpenUnbufferedPutStream, stream.ok());
    if (ok) {
      stream.value()->Abort();
      expect(CallKind::kStreamAbort, true);
    }
  }
  if (ok && timed.counts().put_bytes[static_cast<std::size_t>(NameClass::kMeta)] != 4) {
    *why = "meta put bytes miscounted";
    ok = false;
  }
  if (ok && recorder.Spans().empty()) {
    *why = "decorator recorded no spans";
    ok = false;
  }
  return ok;
}

} // namespace perfbench
