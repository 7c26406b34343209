// Bench-side measurement probes. Everything here times calls into Ginja's
// public interfaces from outside; nothing inside the library is touched.
//
//   Samples        raw per-operation samples; quantiles interpolate between
//                  order statistics (never histogram bucket bounds).
//   Tracer         optional in-memory spans (name, start, end, parent, txn)
//                  written at exit; gives each layer's self time.
//   TimedListener  FileEventListener in front of Ginja::OnFileEvent: per-call
//                  time by file class, WAL writes passed, bytes written.
//   TimingStore    ObjectStore decorator: count, bytes, busy time and raw
//                  latencies per (operation, object class). It forwards the
//                  streamed-PUT and cursor-LIST entry points so the store
//                  below sees the same calls it would without the probe.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/object_store.h"
#include "db/layout.h"
#include "fs/intercept_fs.h"

namespace perfbench {

// Monotonic wall-clock nanoseconds.
std::uint64_t NowNs();

class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // q in [0, 1], linear interpolation between neighbouring order
  // statistics; 0 for an empty set.
  double Quantile(double q) const;
  double Mean() const;
  double Sum() const;
  // The highest of 99.9/99/95/90/75/50 that has at least 10 samples above
  // it (0 when there are fewer than 20 samples).
  double TailPercentile() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

struct Span {
  const char* name = "";  // static storage
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root
  std::uint64_t txn = 0;     // 0: not part of a transaction
};

struct SelfTime {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;  // total minus the time its child spans cover
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }

  void Add(const Span& span);
  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  std::map<std::string, SelfTime> SelfTimes() const;
  // One JSON object per line.
  bool Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span on the calling thread. Spans opened on the same thread while
// it is open become its children; `txn` != 0 starts a transaction id that
// those children inherit. A no-op when the tracer is disabled.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t txn = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  Span span_;
  std::uint64_t saved_txn_ = 0;
};

enum class FsClass { kWal, kData, kControl, kOther, kCount };
const char* FsClassName(FsClass c);

class TimedListener : public ginja::FileEventListener {
 public:
  TimedListener(ginja::FileEventListener* inner, ginja::DbLayout layout,
                Tracer* tracer);

  void OnFileEvent(const ginja::FileEvent& event) override;

  // WAL writes handed to the inner listener, counted after it returned.
  std::uint64_t wal_passed() const {
    return wal_passed_.load(std::memory_order_acquire);
  }
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  // Per-call microseconds by class since the last call, then cleared.
  std::array<Samples, static_cast<int>(FsClass::kCount)> TakeCallUs();

  // Calling thread: total ns spent in OnFileEvent, and the 1-based
  // wal_passed() index of its most recent WAL write.
  static std::uint64_t ThreadFsNs();
  static std::uint64_t ThreadLastWal();

 private:
  ginja::FileEventListener* inner_;
  ginja::DbLayout layout_;
  Tracer* tracer_;
  std::atomic<std::uint64_t> wal_passed_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::mutex mu_;
  std::array<Samples, static_cast<int>(FsClass::kCount)> call_us_;
};

enum class StoreOp { kPut, kPart, kGet, kList, kDelete, kCount };
enum class ObjClass { kWal, kTail, kDb, kChunk, kMeta, kCount };
const char* StoreOpName(StoreOp op);
const char* ObjClassName(ObjClass c);
ObjClass ClassifyObject(std::string_view name);

struct OpStats {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  std::uint64_t busy_ns = 0;
  Samples us;
};

class TimingStore : public ginja::ObjectStore {
 public:
  using StatsTable = std::array<std::array<OpStats, static_cast<int>(ObjClass::kCount)>,
                                static_cast<int>(StoreOp::kCount)>;

  TimingStore(ginja::ObjectStorePtr inner, Tracer* tracer);

  ginja::Status Put(std::string_view name, ginja::ByteView data) override;
  ginja::Result<ginja::Bytes> Get(std::string_view name) override;
  ginja::Result<std::vector<ginja::ObjectMeta>> List(std::string_view prefix) override;
  ginja::Result<std::vector<ginja::ObjectMeta>> List(
      std::string_view prefix, std::string_view start_after) override;
  ginja::Status Delete(std::string_view name) override;
  ginja::Result<ginja::ObjectWriterPtr> BeginStreaming(
      std::string_view staging_hint) override;

  // Stats since the last call, then cleared.
  StatsTable Take();
  void Record(StoreOp op, ObjClass cls, std::uint64_t bytes,
              std::uint64_t start_ns, std::uint64_t end_ns);

 private:
  ginja::ObjectStorePtr inner_;
  Tracer* tracer_;
  std::mutex mu_;
  StatsTable stats_;
};

}  // namespace perfbench
