// Streaming commit path (store-side streamed PUTs, optional early acks):
// semantic equivalence with the buffered path, the S bound under outages
// and crashes, and recovery over torn streams and unfolded tail objects.
// Suite names carry "Pipeline"/"Recovery" so the TSAN CI job picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/faulty_store.h"
#include "cloud/memory_store.h"
#include "fs/mem_fs.h"
#include "ginja/commit_pipeline.h"
#include "ginja/ginja.h"
#include "ginja/object_id.h"
#include "ginja/payload.h"

namespace ginja {
namespace {

WalWrite W(const std::string& file, std::uint64_t offset, std::size_t bytes,
           std::uint8_t fill, std::uint64_t max_lsn) {
  WalWrite w;
  w.file = file;
  w.offset = offset;
  w.data = Bytes(bytes, fill);
  w.max_lsn = max_lsn;
  return w;
}

// Delays every PUT so a Kill() reliably catches unacknowledged writes.
// BeginStreaming falls back to the buffered default, whose Finish routes
// through this Put — streamed objects become visible slowly and atomically,
// like a real backend.
class SlowStore : public ObjectStore {
 public:
  explicit SlowStore(ObjectStorePtr inner) : inner_(std::move(inner)) {}
  Status Put(std::string_view name, ByteView data) override {
    std::this_thread::sleep_for(std::chrono::microseconds(400));
    return inner_->Put(name, data);
  }
  Result<Bytes> Get(std::string_view name) override { return inner_->Get(name); }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }
  Status Delete(std::string_view name) override { return inner_->Delete(name); }

 private:
  ObjectStorePtr inner_;
};

// The logical state a recovery would rebuild: every decoded WAL entry
// applied in (ts, in-object) order, later writes winning.
using ContentMap = std::map<std::pair<std::string, std::uint64_t>, Bytes>;

struct TraceRun {
  ContentMap content;
  std::map<std::uint64_t, std::uint64_t> object_lsn;  // ts -> max_lsn
  std::set<std::string> wal_names;
  std::vector<Lsn> frontier_trace;
  std::size_t tails_left = 0;
};

// Runs the same single-threaded 300-write trace (repeated offsets —
// exercises coalescing within and across segments) through a pipeline
// with the given config and decodes what reached the cloud. With
// `files` > 1 the buffered path splits each batch into per-file objects
// while a stream stays one object per batch, so only end-state
// comparisons are meaningful; with one file both paths emit one object
// per batch and traces compare exactly. transfer_concurrency is pinned
// to 1 so stream part/finish/tail operations execute in submission
// order and the ack-frontier trace is deterministic.
TraceRun RunTrace(GinjaConfig config, int files = 1) {
  auto store = std::make_shared<MemoryStore>();
  auto view = std::make_shared<CloudView>();
  auto clock = std::make_shared<RealClock>();
  auto envelope = std::make_shared<Envelope>(EnvelopeOptions{});
  config.batch = 10;
  config.batch_timeout_us = 10'000'000;  // never fires: full batches only
  config.safety = 10'000;
  config.uploader_threads = 1;
  config.transfer_concurrency = 1;
  auto pipeline = std::make_unique<CommitPipeline>(store, view, clock, config,
                                                   envelope);
  TraceRun out;
  pipeline->SetFrontierListener([&] {
    out.frontier_trace.push_back(pipeline->UploadedWalFrontier());
  });
  pipeline->Start();
  for (int i = 0; i < 300; ++i) {
    pipeline->Submit(W("pg_xlog/seg" + std::to_string(i % files),
                       static_cast<std::uint64_t>(i % 7) * 8192, 96,
                       static_cast<std::uint8_t>(i), (i + 1) * 10ull));
  }
  pipeline->Stop();
  pipeline.reset();  // drains the stream transfer pool (tail deletes land)

  std::vector<WalObjectId> ids;
  auto objects = store->List("");
  EXPECT_TRUE(objects.ok());
  for (const auto& meta : *objects) {
    if (auto wal = WalObjectId::Decode(meta.name)) {
      ids.push_back(*wal);
      out.wal_names.insert(meta.name);
    } else if (TailObjectId::Decode(meta.name)) {
      ++out.tails_left;
    }
  }
  std::sort(ids.begin(), ids.end(),
            [](const WalObjectId& a, const WalObjectId& b) { return a.ts < b.ts; });
  for (const auto& id : ids) {
    out.object_lsn[id.ts] = id.max_lsn;
    auto blob = store->Get(id.Encode());
    EXPECT_TRUE(blob.ok());
    auto payload = envelope->Decode(View(*blob));
    EXPECT_TRUE(payload.ok());
    auto entries = DecodeEntries(View(*payload));
    EXPECT_TRUE(entries.ok());
    for (const auto& e : *entries) {
      out.content[{std::string(e.path), e.offset}] =
          Bytes(e.data.begin(), e.data.end());
    }
  }
  return out;
}

bool IsSubsequence(const std::vector<Lsn>& needle,
                   const std::vector<Lsn>& haystack) {
  std::size_t i = 0;
  for (const Lsn v : haystack) {
    if (i < needle.size() && needle[i] == v) ++i;
  }
  return i == needle.size();
}

// With segments at least as large as the batch, a streamed WAL object
// coalesces exactly like a buffered one: the same names, the same logical
// content, and the same per-batch frontier trace — only the container
// format differs.
TEST(StreamingPipelineEquivalence, SingleSegmentStreamMatchesBufferedExactly) {
  GinjaConfig buffered;
  const TraceRun base = RunTrace(buffered);
  ASSERT_FALSE(base.wal_names.empty());
  ASSERT_EQ(base.frontier_trace.size(), 30u);  // 300 writes / B=10

  GinjaConfig streaming;
  streaming.streaming_commit = true;
  streaming.stream_segment_writes = 16;  // >= B: one segment per object
  const TraceRun run = RunTrace(streaming);
  EXPECT_EQ(run.wal_names, base.wal_names);
  EXPECT_EQ(run.content, base.content);
  EXPECT_EQ(run.object_lsn, base.object_lsn);
  EXPECT_EQ(run.frontier_trace, base.frontier_trace);
  EXPECT_EQ(run.tails_left, 0u);
}

// Multi-segment streams coalesce per segment instead of per batch, so the
// object bytes differ — but the recovery-relevant state cannot: the same
// (ts -> max_lsn) objects, the same applied logical content, the same
// object-level ack-frontier trace.
TEST(StreamingPipelineEquivalence, MultiSegmentStreamPreservesSemantics) {
  const TraceRun base = RunTrace(GinjaConfig{});

  GinjaConfig streaming;
  streaming.streaming_commit = true;
  streaming.stream_segment_writes = 4;  // 3 segments per 10-write batch
  const TraceRun run = RunTrace(streaming);
  EXPECT_EQ(run.content, base.content);
  EXPECT_EQ(run.object_lsn, base.object_lsn);
  EXPECT_EQ(run.frontier_trace, base.frontier_trace);
  EXPECT_EQ(run.tails_left, 0u);
}

// Early acks advance the frontier at segment granularity: the trace is a
// strict refinement of the buffered per-batch trace (every batch boundary
// still appears, in order), the end state is identical, and every tail
// object has been folded into its WAL object and deleted.
TEST(StreamingPipelineEquivalence, EarlyAckRefinesFrontierSameEndState) {
  const TraceRun base = RunTrace(GinjaConfig{});

  GinjaConfig streaming;
  streaming.streaming_commit = true;
  streaming.early_ack = true;
  streaming.stream_segment_writes = 4;
  const TraceRun run = RunTrace(streaming);
  EXPECT_EQ(run.content, base.content);
  EXPECT_EQ(run.object_lsn, base.object_lsn);
  EXPECT_TRUE(std::is_sorted(run.frontier_trace.begin(),
                             run.frontier_trace.end()));
  EXPECT_GE(run.frontier_trace.size(), base.frontier_trace.size());
  EXPECT_TRUE(IsSubsequence(base.frontier_trace, run.frontier_trace));
  EXPECT_EQ(run.frontier_trace.back(), base.frontier_trace.back());
  EXPECT_EQ(run.tails_left, 0u);  // folded tails were garbage-collected
}

// Mixed-file batches: buffered splits each batch into per-file objects,
// a stream keeps one (multi-segment) object per batch. Object grouping
// legitimately differs; the recovery end state cannot. This is the case
// that requires DecodeEntries to parse every concatenated segment list —
// dropping any segment after the first loses that segment's rewrites.
TEST(StreamingPipelineEquivalence, MixedFileBatchesSameEndState) {
  const TraceRun base = RunTrace(GinjaConfig{}, /*files=*/3);
  ASSERT_GT(base.wal_names.size(), 30u);  // per-file split really happened

  for (const bool early_ack : {false, true}) {
    GinjaConfig streaming;
    streaming.streaming_commit = true;
    streaming.early_ack = early_ack;
    streaming.stream_segment_writes = 4;
    const TraceRun run = RunTrace(streaming, /*files=*/3);
    EXPECT_EQ(run.wal_names.size(), 30u) << "early_ack=" << early_ack;
    EXPECT_EQ(run.content, base.content) << "early_ack=" << early_ack;
    EXPECT_EQ(run.frontier_trace.back(), base.frontier_trace.back());
    EXPECT_EQ(run.tails_left, 0u);
  }
}

class StreamingPipelineStress : public ::testing::TestWithParam<bool> {};

// Alg. 2's S bound survives streaming: during a cloud outage at most S
// Submit calls may return (with or without early acks — a tail that never
// lands never acknowledges), and after the outage everything drains.
TEST_P(StreamingPipelineStress, OutageRespectsSBound) {
  auto memory = std::make_shared<MemoryStore>();
  auto faulty = std::make_shared<FaultyStore>(memory);
  faulty->SetAvailable(false);
  auto view = std::make_shared<CloudView>();
  auto clock = std::make_shared<RealClock>();
  auto envelope = std::make_shared<Envelope>(EnvelopeOptions{});
  GinjaConfig config;
  config.streaming_commit = true;
  config.early_ack = GetParam();
  config.batch = 4;
  config.batch_timeout_us = 20'000;
  config.safety = 16;
  config.retry_backoff_us = 2'000;
  config.retry_backoff_max_us = 10'000;
  config.max_retries = 1'000'000;
  auto pipeline = std::make_unique<CommitPipeline>(faulty, view, clock, config,
                                                   envelope);
  pipeline->Start();

  constexpr int kThreads = 8;
  constexpr int kWritesPerThread = 50;
  std::atomic<std::uint64_t> returned{0};
  std::atomic<std::uint64_t> lsn{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::string file = "pg_xlog/t" + std::to_string(t);
      for (int i = 0; i < kWritesPerThread; ++i) {
        pipeline->Submit(W(file, static_cast<std::uint64_t>(i) * 8192, 128,
                           static_cast<std::uint8_t>(i),
                           lsn.fetch_add(1) + 1));
        returned.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_LE(returned.load(), config.safety);
  EXPECT_GT(pipeline->stats().blocked_waits.Get(), 0u);

  faulty->SetAvailable(true);
  for (auto& c : clients) c.join();
  pipeline->Stop();
  EXPECT_EQ(pipeline->stats().writes_submitted.Get(),
            static_cast<std::uint64_t>(kThreads) * kWritesPerThread);
  EXPECT_GT(pipeline->stats().streams_opened.Get(), 0u);
  if (config.early_ack) {
    EXPECT_GT(pipeline->stats().tail_objects_uploaded.Get(), 0u);
  }
  pipeline.reset();
  EXPECT_GT(memory->ObjectCount(), 0u);
}

// Kill() mid-stream loses at most S returned writes: everything durable —
// finished GNJ3 WAL objects plus any landed early-ack tail objects — is
// decoded and counted; partially staged streams are invisible, as a real
// multipart upload would be.
TEST_P(StreamingPipelineStress, KillLosesAtMostSWrites) {
  auto memory = std::make_shared<MemoryStore>();
  auto slow = std::make_shared<SlowStore>(memory);
  auto view = std::make_shared<CloudView>();
  auto clock = std::make_shared<RealClock>();
  auto envelope = std::make_shared<Envelope>(EnvelopeOptions{});
  GinjaConfig config;
  config.streaming_commit = true;
  config.early_ack = GetParam();
  config.stream_segment_writes = 2;
  config.batch = 4;
  config.batch_timeout_us = 5'000;
  config.safety = 16;
  auto pipeline = std::make_unique<CommitPipeline>(slow, view, clock, config,
                                                   envelope);
  pipeline->Start();

  constexpr int kThreads = 8;
  std::atomic<bool> killing{false};
  std::mutex returned_mu;
  std::set<std::pair<std::string, std::uint64_t>> returned;
  std::atomic<std::uint64_t> lsn{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::string file = "pg_xlog/t" + std::to_string(t);
      for (std::uint64_t i = 0; !killing.load(std::memory_order_acquire);
           ++i) {
        pipeline->Submit(W(file, i * 8192, 64, static_cast<std::uint8_t>(i),
                           lsn.fetch_add(1) + 1));
        if (!killing.load(std::memory_order_acquire)) {
          std::lock_guard<std::mutex> lock(returned_mu);
          returned.insert({file, i * 8192});
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  killing.store(true, std::memory_order_release);
  pipeline->Kill();
  for (auto& c : clients) c.join();

  std::set<std::pair<std::string, std::uint64_t>> recovered;
  auto objects = memory->List("");
  ASSERT_TRUE(objects.ok());
  for (const auto& meta : *objects) {
    auto blob = memory->Get(meta.name);
    ASSERT_TRUE(blob.ok());
    auto payload = envelope->Decode(View(*blob));
    ASSERT_TRUE(payload.ok());
    auto entries = DecodeEntries(View(*payload));
    ASSERT_TRUE(entries.ok());
    for (const auto& entry : *entries) {
      recovered.emplace(std::string(entry.path), entry.offset);
    }
  }

  std::size_t lost = 0;
  for (const auto& id : returned) {
    if (recovered.find(id) == recovered.end()) ++lost;
  }
  EXPECT_GT(returned.size(), config.safety);  // the run actually raced
  EXPECT_LE(lost, config.safety);
}

INSTANTIATE_TEST_SUITE_P(EarlyAck, StreamingPipelineStress,
                         ::testing::Bool());

// -- recovery over hand-crafted cloud states --------------------------------

Bytes EncodeWalObject(const Envelope& envelope,
                      const std::vector<FileEntry>& entries,
                      std::uint64_t nonce) {
  const Bytes payload = EncodeEntries(entries);
  return envelope.Encode(View(payload), nonce);
}

// A stream died before Finish: its WAL object never appeared, but the
// acked segment prefix survives as tail objects. Recovery applies the
// dense run from the lowest surviving segment, falls back to replica
// tails when the primary is damaged, stops at the first hole, and reports
// the truncation.
TEST(StreamingPipelineRecovery, TornStreamRecoversAckedTailPrefix) {
  auto store = std::make_shared<MemoryStore>();
  GinjaConfig config;
  Envelope envelope(config.envelope);

  // ts=1 finished normally.
  ASSERT_TRUE(store
                  ->Put(WalObjectId{1, "pg_xlog/w1", 0, 100}.Encode(),
                        View(EncodeWalObject(
                            envelope, {{"pg_xlog/w1", 0, ToBytes("batch-one")}},
                            /*nonce=*/1)))
                  .ok());
  // ts=2 tore mid-stream. Segments 0 and 1 acked (their tails landed);
  // seg 1's primary replica is damaged but replica 1 is intact; seg 3's
  // tail landed but seg 2's never did — the hole ends the usable prefix.
  ASSERT_TRUE(store
                  ->Put(TailObjectId{2, 0, 0, 150}.Encode(),
                        View(EncodeWalObject(
                            envelope, {{"pg_xlog/w2", 0, ToBytes("seg-zero")}},
                            /*nonce=*/2001)))
                  .ok());
  const Bytes seg1 = EncodeWalObject(
      envelope, {{"pg_xlog/w2", 8, ToBytes("seg-one!")}}, /*nonce=*/2002);
  ASSERT_TRUE(
      store->Put(TailObjectId{2, 1, 0, 200}.Encode(), View(ToBytes("garbage")))
          .ok());
  ASSERT_TRUE(store->Put(TailObjectId{2, 1, 1, 200}.Encode(), View(seg1)).ok());
  ASSERT_TRUE(store
                  ->Put(TailObjectId{2, 3, 0, 300}.Encode(),
                        View(EncodeWalObject(
                            envelope, {{"pg_xlog/w2", 99, ToBytes("orphan")}},
                            /*nonce=*/2003)))
                  .ok());

  auto target = std::make_shared<MemFs>();
  RecoveryReport report;
  ASSERT_TRUE(Ginja::Recover(store, config, DbLayout::Postgres(), target,
                             &report)
                  .ok());
  EXPECT_FALSE(report.found_dump);
  EXPECT_EQ(report.wal_objects_applied, 1u);
  EXPECT_EQ(report.tail_segments_applied, 2u);
  EXPECT_EQ(report.recovered_to_ts, 2u);
  EXPECT_TRUE(report.gap_detected);  // the torn stream truncates the tail

  auto w1 = target->ReadAll("pg_xlog/w1");
  ASSERT_TRUE(w1.ok());
  EXPECT_EQ(*w1, ToBytes("batch-one"));
  auto w2 = target->ReadAll("pg_xlog/w2");
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(*w2, ToBytes("seg-zeroseg-one!"));  // seg 3's orphan not applied
}

// Tails that were already folded into a finished WAL object but not yet
// garbage-collected are ignored: the full object is authoritative, no
// entry applies twice (the stale tail's older bytes never overwrite).
TEST(StreamingPipelineRecovery, FoldedTailsAreNotDoubleApplied) {
  auto store = std::make_shared<MemoryStore>();
  GinjaConfig config;
  Envelope envelope(config.envelope);

  ASSERT_TRUE(store
                  ->Put(WalObjectId{1, "pg_xlog/w", 0, 100}.Encode(),
                        View(EncodeWalObject(
                            envelope, {{"pg_xlog/w", 0, ToBytes("full-one")}},
                            /*nonce=*/1)))
                  .ok());
  ASSERT_TRUE(store
                  ->Put(WalObjectId{2, "pg_xlog/w", 0, 200}.Encode(),
                        View(EncodeWalObject(
                            envelope, {{"pg_xlog/w", 0, ToBytes("full-two")}},
                            /*nonce=*/2)))
                  .ok());
  // A stale tail of ts=2 (fold happened, GC hasn't): would write different
  // bytes at the same offset if it were (wrongly) applied after the object.
  ASSERT_TRUE(store
                  ->Put(TailObjectId{2, 0, 0, 150}.Encode(),
                        View(EncodeWalObject(
                            envelope, {{"pg_xlog/w", 0, ToBytes("stale!!!")}},
                            /*nonce=*/2001)))
                  .ok());

  auto target = std::make_shared<MemFs>();
  RecoveryReport report;
  ASSERT_TRUE(Ginja::Recover(store, config, DbLayout::Postgres(), target,
                             &report)
                  .ok());
  EXPECT_EQ(report.wal_objects_applied, 2u);
  EXPECT_EQ(report.tail_segments_applied, 0u);
  EXPECT_EQ(report.recovered_to_ts, 2u);
  EXPECT_FALSE(report.gap_detected);

  auto w = target->ReadAll("pg_xlog/w");
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*w, ToBytes("full-two"));
}

// GC's view of tails: a redo LSN covers a seg-prefix (cumulative max_lsn
// is monotone in seg), and a folded ts's tails are garbage at any LSN.
TEST(StreamingPipelineRecovery, TailGarbageIsSegPrefixPlusFoldedTs) {
  CloudView view;
  view.AddTail(TailObjectId{3, 0, 0, 100});
  view.AddTail(TailObjectId{3, 1, 0, 200});
  view.AddTail(TailObjectId{3, 2, 0, 300});
  view.AddTail(TailObjectId{4, 0, 0, 400});
  view.AddWal(WalObjectId{4, "pg_xlog/w", 0, 400});  // ts=4 folded

  std::set<std::string> garbage;
  for (const auto& t : view.TailGarbage(/*redo_lsn=*/200)) {
    garbage.insert(t.Encode());
  }
  EXPECT_EQ(garbage, (std::set<std::string>{
                         TailObjectId{3, 0, 0, 100}.Encode(),
                         TailObjectId{3, 1, 0, 200}.Encode(),
                         TailObjectId{4, 0, 0, 400}.Encode(),
                     }));
  EXPECT_EQ(view.TailCount(), 4u);
}

// A segment's nonce is tag | ts << 16 | seg, so a stream must close at
// 2^16 segments: segment 65536 would otherwise encrypt under the nonce of
// the next ts's segment 0. Tens of thousands of one-write segments sealed
// by concurrent uploaders also stage parts out of order, which a part
// window counted in staged parts could deadlock on.
TEST(StreamingPipelineLimits, StreamClosesAt65536Segments) {
  auto store = std::make_shared<MemoryStore>();
  auto view = std::make_shared<CloudView>();
  GinjaConfig config;
  config.streaming_commit = true;
  config.stream_segment_writes = 1;
  config.batch = 70'000;                 // B never closes the stream
  config.safety = 100'000;
  config.batch_timeout_us = 60'000'000;  // nor does TB
  CommitPipeline pipeline(store, view, std::make_shared<RealClock>(), config,
                          std::make_shared<Envelope>(EnvelopeOptions{}));
  pipeline.Start();
  constexpr std::uint64_t kWrites = 65'537;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    pipeline.Submit(W("pg_xlog/0001", i * 16, 16, 1, i + 1));
  }
  pipeline.Stop();
  EXPECT_EQ(pipeline.stats().streams_opened.Get(), 2u);
  EXPECT_EQ(pipeline.stats().batches_closed_full.Get(), 1u);
  EXPECT_EQ(view->WalCount(), 2u);
  EXPECT_EQ(pipeline.UploadedWalFrontier(), kWrites);
}

}  // namespace
}  // namespace ginja
