#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

using namespace ginja;

namespace {

// The calling thread's open span and transaction, for parent links.
thread_local std::uint64_t t_span = 0;
thread_local std::uint64_t t_txn = 0;
// TimedListener's per-thread accumulators.
thread_local std::uint64_t t_fs_ns = 0;
thread_local std::uint64_t t_last_wal = 0;

// Stable "cloud.<op>.<class>" span names.
const char* CloudSpanName(StoreOp op, ObjClass cls) {
  static const auto* names = [] {
    auto* table = new std::vector<std::string>;
    for (int o = 0; o < static_cast<int>(StoreOp::kCount); ++o) {
      for (int c = 0; c < static_cast<int>(ObjClass::kCount); ++c) {
        table->push_back(std::string("cloud.") +
                         StoreOpName(static_cast<StoreOp>(o)) + "." +
                         ObjClassName(static_cast<ObjClass>(c)));
      }
    }
    return table;
  }();
  return (*names)[static_cast<int>(op) * static_cast<int>(ObjClass::kCount) +
                  static_cast<int>(cls)]
      .c_str();
}

}  // namespace

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// -- Samples -----------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

double Samples::TailPercentile() const {
  const double n = static_cast<double>(values_.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 0;
}

// -- Tracer ------------------------------------------------------------------

void Tracer::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::map<std::string, SelfTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children run on their parent's thread, nested inside it, so the part of
  // a parent they cover is the sum of their durations.
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans_) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::uint64_t covered = it == child_ns.end() ? 0 : std::min(it->second, dur);
    SelfTime& t = out[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - covered) / 1e6;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"id\":%llu,\"parent\":%llu,\"txn\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.txn));
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(Tracer& tracer, const char* name, std::uint64_t txn)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.name = name;
  span_.id = tracer_.NextId();
  span_.parent = t_span;
  saved_txn_ = t_txn;
  if (txn != 0) t_txn = txn;
  span_.txn = t_txn;
  t_span = span_.id;
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (!tracer_.enabled()) return;
  span_.end_ns = NowNs();
  t_span = span_.parent;
  t_txn = saved_txn_;
  tracer_.Add(span_);
}

// -- TimedListener -------------------------------------------------------------

const char* FsClassName(FsClass c) {
  switch (c) {
    case FsClass::kWal: return "wal";
    case FsClass::kData: return "data";
    case FsClass::kControl: return "control";
    default: return "other";
  }
}

TimedListener::TimedListener(FileEventListener* inner, DbLayout layout,
                             Tracer* tracer)
    : inner_(inner), layout_(layout), tracer_(tracer) {}

void TimedListener::OnFileEvent(const FileEvent& event) {
  FsClass cls = FsClass::kOther;
  if (event.kind == FileEvent::Kind::kWrite) {
    switch (layout_.Classify(event.path, event.offset)) {
      case FileKind::kWalSegment: cls = FsClass::kWal; break;
      case FileKind::kTableData:
      case FileKind::kClog:
      case FileKind::kCatalog: cls = FsClass::kData; break;
      case FileKind::kControl: cls = FsClass::kControl; break;
      case FileKind::kOther: break;
    }
  }
  static constexpr const char* kSpanNames[] = {"fs.wal", "fs.data", "fs.control",
                                               "fs.other"};
  const std::uint64_t start = NowNs();
  {
    SpanScope span(*tracer_, kSpanNames[static_cast<int>(cls)]);
    inner_->OnFileEvent(event);
  }
  const std::uint64_t end = NowNs();
  // Counted only after Ginja has the write, so passed − PendingWrites()
  // never overstates what the cloud has confirmed.
  if (cls == FsClass::kWal) {
    t_last_wal = wal_passed_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  bytes_written_.fetch_add(event.data.size(), std::memory_order_relaxed);
  t_fs_ns += end - start;
  std::lock_guard<std::mutex> lock(mu_);
  call_us_[static_cast<int>(cls)].Add(static_cast<double>(end - start) / 1e3);
}

std::array<Samples, static_cast<int>(FsClass::kCount)> TimedListener::TakeCallUs() {
  std::lock_guard<std::mutex> lock(mu_);
  auto out = std::move(call_us_);
  call_us_ = {};
  return out;
}

std::uint64_t TimedListener::ThreadFsNs() { return t_fs_ns; }
std::uint64_t TimedListener::ThreadLastWal() { return t_last_wal; }

// -- TimingStore ---------------------------------------------------------------

const char* StoreOpName(StoreOp op) {
  switch (op) {
    case StoreOp::kPut: return "put";
    case StoreOp::kPart: return "part";
    case StoreOp::kGet: return "get";
    case StoreOp::kList: return "list";
    default: return "delete";
  }
}

const char* ObjClassName(ObjClass c) {
  switch (c) {
    case ObjClass::kWal: return "wal";
    case ObjClass::kTail: return "tail";
    case ObjClass::kDb: return "db";
    case ObjClass::kChunk: return "chunk";
    default: return "meta";
  }
}

ObjClass ClassifyObject(std::string_view name) {
  if (name.starts_with("WAL/")) return ObjClass::kWal;
  if (name.starts_with("WALTAIL/")) return ObjClass::kTail;
  if (name.starts_with("DB/")) return ObjClass::kDb;
  if (name.starts_with("CHUNK/")) return ObjClass::kChunk;
  return ObjClass::kMeta;
}

TimingStore::TimingStore(ObjectStorePtr inner, Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

void TimingStore::Record(StoreOp op, ObjClass cls, std::uint64_t bytes,
                         std::uint64_t start_ns, std::uint64_t end_ns) {
  if (tracer_->enabled()) {
    Span span;
    span.name = CloudSpanName(op, cls);
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.id = tracer_->NextId();
    span.parent = t_span;
    span.txn = t_txn;
    tracer_->Add(span);
  }
  std::lock_guard<std::mutex> lock(mu_);
  OpStats& s = stats_[static_cast<int>(op)][static_cast<int>(cls)];
  ++s.count;
  s.bytes += bytes;
  s.busy_ns += end_ns - start_ns;
  s.us.Add(static_cast<double>(end_ns - start_ns) / 1e3);
}

TimingStore::StatsTable TimingStore::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  StatsTable out = std::move(stats_);
  stats_ = {};
  return out;
}

Status TimingStore::Put(std::string_view name, ByteView data) {
  const std::uint64_t start = NowNs();
  Status st = inner_->Put(name, data);
  Record(StoreOp::kPut, ClassifyObject(name), data.size(), start, NowNs());
  return st;
}

Result<Bytes> TimingStore::Get(std::string_view name) {
  const std::uint64_t start = NowNs();
  Result<Bytes> r = inner_->Get(name);
  Record(StoreOp::kGet, ClassifyObject(name), r.ok() ? r->size() : 0, start,
         NowNs());
  return r;
}

Result<std::vector<ObjectMeta>> TimingStore::List(std::string_view prefix) {
  const std::uint64_t start = NowNs();
  auto r = inner_->List(prefix);
  Record(StoreOp::kList, ClassifyObject(prefix), 0, start, NowNs());
  return r;
}

Result<std::vector<ObjectMeta>> TimingStore::List(std::string_view prefix,
                                                  std::string_view start_after) {
  const std::uint64_t start = NowNs();
  auto r = inner_->List(prefix, start_after);
  Record(StoreOp::kList, ClassifyObject(prefix), 0, start, NowNs());
  return r;
}

Status TimingStore::Delete(std::string_view name) {
  const std::uint64_t start = NowNs();
  Status st = inner_->Delete(name);
  Record(StoreOp::kDelete, ClassifyObject(name), 0, start, NowNs());
  return st;
}

namespace {

// Times each part and the publishing Finish of a streamed PUT. The object
// class is only known from the name given to Finish, so part timings are
// held until then (an abandoned stream is booked under its staging hint).
class TimingWriter : public ObjectWriter {
 public:
  TimingWriter(TimingStore* store, ObjectWriterPtr inner, std::string hint)
      : store_(store), inner_(std::move(inner)), hint_(std::move(hint)) {}
  ~TimingWriter() override { Flush(ClassifyObject(hint_)); }

  Status AppendPart(std::uint32_t index, ByteView part) override {
    const std::uint64_t start = NowNs();
    Status st = inner_->AppendPart(index, part);
    parts_.push_back({part.size(), start, NowNs()});
    if (st.ok()) total_bytes_ += part.size();
    return st;
  }

  Status Finish(std::string_view name) override {
    if (finished_) return inner_->Finish(name);  // idempotent repeat
    const std::uint64_t start = NowNs();
    Status st = inner_->Finish(name);
    const ObjClass cls = ClassifyObject(name);
    Flush(cls);
    store_->Record(StoreOp::kPut, cls, st.ok() ? total_bytes_ : 0, start, NowNs());
    finished_ = st.ok();
    return st;
  }

  void Abort() override { inner_->Abort(); }

 private:
  struct PartTiming {
    std::uint64_t bytes, start_ns, end_ns;
  };
  void Flush(ObjClass cls) {
    for (const PartTiming& p : parts_) {
      store_->Record(StoreOp::kPart, cls, p.bytes, p.start_ns, p.end_ns);
    }
    parts_.clear();
  }

  TimingStore* store_;
  ObjectWriterPtr inner_;
  std::string hint_;
  std::vector<PartTiming> parts_;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace

Result<ObjectWriterPtr> TimingStore::BeginStreaming(std::string_view staging_hint) {
  auto inner = inner_->BeginStreaming(staging_hint);
  if (!inner.ok()) return inner.status();
  return ObjectWriterPtr(
      new TimingWriter(this, std::move(*inner), std::string(staging_hint)));
}

}  // namespace perfbench
