// Windowed (K>1) recovery must be observably identical to serial (K=1)
// recovery: byte-identical target filesystem and field-identical
// RecoveryReport — including under mid-stream corruption, deleted WAL
// objects (ts gaps), and corrupt DB parts. The prefetch window may change
// *when* bytes arrive, never *what* is applied or reported.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "cloud/memory_store.h"
#include "cloud/transfer.h"
#include "common/codec/codec_pool.h"
#include "common/codec/sha1.h"
#include "common/rng.h"
#include "db/database.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"
#include "ginja/ginja.h"
#include "ginja/object_id.h"
#include "ginja/tail_apply.h"

namespace ginja {
namespace {

struct Backup {
  std::shared_ptr<MemoryStore> store;
  DbLayout layout = DbLayout::Postgres();
  GinjaConfig config;
};

// A healthy backup with a dump, several checkpoints, and a WAL tail.
// `value_bytes` pads every row. `codec` compresses and encrypts, and
// lowers the chunking threshold so the DB parts become chunked (v2)
// objects.
Backup BuildBackup(std::size_t value_bytes = 0, bool codec = false) {
  Backup backup;
  backup.store = std::make_shared<MemoryStore>();
  backup.config.batch = 4;
  backup.config.safety = 64;
  backup.config.batch_timeout_us = 10'000;
  backup.config.envelope.compress = codec;
  backup.config.envelope.encrypt = codec;
  if (codec) {
    backup.config.envelope.parallel_encode_threshold = 16 * 1024;
    backup.config.envelope.encode_chunk_bytes = 16 * 1024;
  }

  auto clock = std::make_shared<RealClock>();
  auto local = std::make_shared<MemFs>();
  auto intercept = std::make_shared<InterceptFs>(local, clock);
  Database db(intercept, backup.layout);
  EXPECT_TRUE(db.Create().ok());
  EXPECT_TRUE(db.CreateTable("t").ok());
  Ginja ginja(local, backup.store, clock, backup.layout, backup.config);
  EXPECT_TRUE(ginja.Boot().ok());
  intercept->SetListener(&ginja);
  for (int i = 0; i < 60; ++i) {
    auto txn = db.Begin();
    EXPECT_TRUE(db.Put(txn, "t", "k" + std::to_string(i),
                       ToBytes("v" + std::to_string(i) +
                               std::string(value_bytes, 'a' + i % 26)))
                    .ok());
    EXPECT_TRUE(db.Commit(txn).ok());
    // Checkpoints only mid-stream: txns 40–59 stay WAL-only, so the store
    // keeps a WAL tail for the gap/corruption scenarios to bite into.
    if (i == 19 || i == 39) {
      EXPECT_TRUE(db.Checkpoint().ok());
    }
  }
  ginja.Stop();
  return backup;
}

struct Outcome {
  Status status = Status::Ok();
  RecoveryReport report;
  std::map<std::string, Bytes> files;
};

Outcome RecoverWithK(const Backup& backup, int k) {
  Outcome outcome;
  GinjaConfig config = backup.config;
  config.recovery_prefetch = k;
  auto target = std::make_shared<MemFs>();
  outcome.status = Ginja::Recover(backup.store, config, backup.layout, target,
                                  &outcome.report);
  auto files = target->ListFiles("");
  if (files.ok()) {
    for (const auto& path : *files) {
      auto content = target->ReadAll(path);
      if (content.ok()) outcome.files[path] = std::move(*content);
    }
  }
  return outcome;
}

void ExpectIdentical(const Outcome& serial, const Outcome& parallel) {
  EXPECT_EQ(serial.status.code(), parallel.status.code())
      << serial.status.ToString() << " vs " << parallel.status.ToString();
  EXPECT_EQ(serial.report.objects_downloaded, parallel.report.objects_downloaded);
  EXPECT_EQ(serial.report.bytes_downloaded, parallel.report.bytes_downloaded);
  EXPECT_EQ(serial.report.wal_objects_applied, parallel.report.wal_objects_applied);
  EXPECT_EQ(serial.report.db_objects_applied, parallel.report.db_objects_applied);
  EXPECT_EQ(serial.report.files_written, parallel.report.files_written);
  EXPECT_EQ(serial.report.recovered_to_ts, parallel.report.recovered_to_ts);
  EXPECT_EQ(serial.report.found_dump, parallel.report.found_dump);
  EXPECT_EQ(serial.report.gap_detected, parallel.report.gap_detected);
  // Byte-identical target filesystem.
  ASSERT_EQ(serial.files.size(), parallel.files.size());
  for (const auto& [path, content] : serial.files) {
    auto it = parallel.files.find(path);
    ASSERT_NE(it, parallel.files.end()) << path;
    EXPECT_EQ(content, it->second) << path;
  }
}

// Sorted (by ts) names of the WAL objects in the store.
std::vector<std::string> WalNames(MemoryStore& store) {
  std::vector<WalObjectId> ids;
  auto objects = store.List("");
  EXPECT_TRUE(objects.ok());
  for (const auto& meta : *objects) {
    if (auto wal = WalObjectId::Decode(meta.name)) ids.push_back(*wal);
  }
  std::sort(ids.begin(), ids.end(),
            [](const WalObjectId& a, const WalObjectId& b) { return a.ts < b.ts; });
  std::vector<std::string> names;
  for (const auto& id : ids) names.push_back(id.Encode());
  return names;
}

TEST(RecoveryParallelTest, IntactBackupIsKInvariant) {
  const Backup backup = BuildBackup();
  const Outcome serial = RecoverWithK(backup, 1);
  const Outcome parallel = RecoverWithK(backup, 16);
  ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
  EXPECT_FALSE(serial.report.gap_detected);
  EXPECT_GT(serial.report.objects_downloaded, 0u);
  ExpectIdentical(serial, parallel);

  // And the recovered database opens with all committed keys, at every K.
  for (const Outcome* outcome : {&serial, &parallel}) {
    auto fs = std::make_shared<MemFs>();
    for (const auto& [path, content] : outcome->files) {
      ASSERT_TRUE(fs->Write(path, 0, View(content), false).ok());
    }
    Database recovered(fs, backup.layout);
    ASSERT_TRUE(recovered.Open().ok());
    for (int i = 0; i < 60; ++i) {
      EXPECT_TRUE(recovered.Get("t", "k" + std::to_string(i)).has_value()) << i;
    }
  }
}

TEST(RecoveryParallelTest, CorruptWalMidStreamIsKInvariant) {
  const Backup backup = BuildBackup();
  const auto names = WalNames(*backup.store);
  ASSERT_GT(names.size(), 2u);
  // Corrupt a mid-stream WAL object's MAC'd body.
  const std::string& victim = names[names.size() / 2];
  auto blob = backup.store->Get(victim);
  ASSERT_TRUE(blob.ok());
  (*blob)[blob->size() / 2] ^= 0x40;
  ASSERT_TRUE(backup.store->Put(victim, View(*blob)).ok());

  const Outcome serial = RecoverWithK(backup, 1);
  const Outcome parallel = RecoverWithK(backup, 16);
  ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
  ExpectIdentical(serial, parallel);
}

TEST(RecoveryParallelTest, DeletedWalGapIsKInvariant) {
  const Backup backup = BuildBackup();
  const auto names = WalNames(*backup.store);
  ASSERT_GT(names.size(), 2u);
  ASSERT_TRUE(backup.store->Delete(names[names.size() / 2]).ok());

  const Outcome serial = RecoverWithK(backup, 1);
  const Outcome parallel = RecoverWithK(backup, 16);
  ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
  ExpectIdentical(serial, parallel);
}

TEST(RecoveryParallelTest, CorruptDbPartIsKInvariant) {
  const Backup backup = BuildBackup();
  auto objects = backup.store->List("");
  ASSERT_TRUE(objects.ok());
  std::string victim;
  for (const auto& meta : *objects) {
    if (DbObjectId::Decode(meta.name)) {
      victim = meta.name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  auto blob = backup.store->Get(victim);
  ASSERT_TRUE(blob.ok());
  (*blob)[blob->size() / 2] ^= 0x40;
  ASSERT_TRUE(backup.store->Put(victim, View(*blob)).ok());

  const Outcome serial = RecoverWithK(backup, 1);
  const Outcome parallel = RecoverWithK(backup, 16);
  // A corrupt dump/checkpoint part fails the whole recovery, at every K.
  EXPECT_FALSE(serial.status.ok());
  ExpectIdentical(serial, parallel);
}

TEST(RecoveryParallelTest, SweepManyWindowSizes) {
  const Backup backup = BuildBackup();
  const Outcome serial = RecoverWithK(backup, 1);
  ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
  for (int k : {2, 3, 5, 8, 32}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ExpectIdentical(serial, RecoverWithK(backup, k));
  }
}

TEST(RecoveryParallelTest, ImageBytesAreKInvariant) {
  // Compressed, encrypted, and with chunked DB parts: every decode path
  // runs on the transfer workers.
  const Backup backup = BuildBackup(/*value_bytes=*/1024, /*codec=*/true);
  std::map<std::string, Sha1::Digest> serial_digests;
  for (int k : {1, 2, 8, 32}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    const Outcome outcome = RecoverWithK(backup, k);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    std::map<std::string, Sha1::Digest> digests;
    for (const auto& [path, content] : outcome.files) {
      digests[path] = Sha1::Hash(View(content));
    }
    if (k == 1) {
      ASSERT_FALSE(digests.empty());
      serial_digests = digests;
    } else {
      EXPECT_EQ(digests, serial_digests);
    }
  }
}

// A MemFs whose first write stalls, so the apply sits on the plan's first
// item while every later item lands and the decodes run ahead of it.
class SlowFirstWriteFs : public MemFs {
 public:
  Status Write(std::string_view path, std::uint64_t offset, ByteView data,
               bool sync) override {
    if (!stalled_.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return MemFs::Write(path, offset, data, sync);
  }

 private:
  std::atomic<bool> stalled_{false};
};

// A target whose every write takes 2 ms, like a slow disk: each item's
// apply leaves the workers time to decode the items after it, however fast
// the caller would otherwise be.
class SlowWritesFs : public MemFs {
 public:
  Status Write(std::string_view path, std::uint64_t offset, ByteView data,
               bool sync) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return MemFs::Write(path, offset, data, sync);
  }
};

// Holds the GET of one object until `later` GETs of other objects have
// been served, the way a slow first dump part holds a colocated restore.
// Times out (and says so) rather than hanging a window that cannot get
// past its head.
class HoldOneGetStore : public ObjectStore {
 public:
  HoldOneGetStore(ObjectStorePtr inner, std::string held, std::size_t later)
      : inner_(std::move(inner)), held_(std::move(held)), later_(later) {}

  Result<Bytes> Get(std::string_view name) override {
    if (name == held_) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        timed_out_ = !cv_.wait_for(lock, std::chrono::seconds(10),
                                   [&] { return served_ >= later_; });
      }
      return inner_->Get(name);
    }
    auto blob = inner_->Get(name);
    std::lock_guard<std::mutex> lock(mu_);
    ++served_;
    cv_.notify_all();
    return blob;
  }
  Status Put(std::string_view name, ByteView data) override {
    return inner_->Put(name, data);
  }
  Status Delete(std::string_view name) override { return inner_->Delete(name); }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }

  bool timed_out() {
    std::lock_guard<std::mutex> lock(mu_);
    return timed_out_;
  }

 private:
  ObjectStorePtr inner_;
  std::string held_;
  std::size_t later_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t served_ = 0;
  bool timed_out_ = false;
};

struct DirectOutcome {
  TailApplyResult result;
  RecoveryReport report;
  std::map<std::string, Bytes> files;
};

// One ApplyTailPlan over the whole bucket with window `k` and the given
// decode budget, the codec pool attached and the transfer workers sized as
// recovery sizes them (K for the GETs, codec_threads more for the decode
// tasks). Nothing bounds the fetch lookahead but K unless `fetch_budget`
// is given.
DirectOutcome ApplyWhole(
    const Backup& backup, std::size_t k, std::size_t budget,
    std::shared_ptr<MemFs> target = std::make_shared<MemFs>(),
    std::size_t fetch_budget = std::numeric_limits<std::size_t>::max(),
    ObjectStorePtr store = nullptr) {
  if (store == nullptr) store = backup.store;
  auto objects = backup.store->List("");
  EXPECT_TRUE(objects.ok());
  const TailPlan plan = BuildTailPlan(*objects, std::nullopt);
  TransferOptions options;
  options.concurrency =
      static_cast<int>(k) + std::max(1, backup.config.codec_threads);
  TransferManager transfers(store, options);
  Envelope envelope(backup.config.envelope);
  envelope.SetCodecPool(std::make_shared<CodecPool>(backup.config.codec_threads));
  TailApplyContext ctx;
  ctx.transfers = &transfers;
  ctx.envelope = &envelope;
  ctx.target = target;
  ctx.window = k;
  ctx.fetch_budget = fetch_budget;
  ctx.decode_budget = budget;
  DirectOutcome out;
  out.result = ApplyTailPlan(plan.items, ctx, &out.report);
  auto files = target->ListFiles("");
  EXPECT_TRUE(files.ok());
  for (const auto& path : *files) out.files[path] = *target->ReadAll(path);
  return out;
}

TEST(RecoveryParallelTest, CorruptItemStopsApplyDespiteDecodedAheadSuccessors) {
  const Backup backup = BuildBackup();
  auto objects = backup.store->List("");
  ASSERT_TRUE(objects.ok());
  const TailPlan plan = BuildTailPlan(*objects, std::nullopt);
  // The victim: a mid-plan WAL object with at least two items after it.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 1; i + 2 < plan.items.size(); ++i) {
    if (plan.items[i].is_wal) candidates.push_back(i);
  }
  ASSERT_FALSE(candidates.empty());
  const std::size_t victim = candidates[candidates.size() / 2];
  const std::string& name = plan.items[victim].name;
  auto blob = backup.store->Get(name);
  ASSERT_TRUE(blob.ok());
  (*blob)[blob->size() / 2] ^= 0x40;
  ASSERT_TRUE(backup.store->Put(name, View(*blob)).ok());

  const std::size_t budget = 2 * backup.config.max_object_bytes;
  const DirectOutcome serial = ApplyWhole(backup, 1, budget);
  ASSERT_LT(plan.items.size(), 32u);  // one window holds the whole plan
  const DirectOutcome ahead =
      ApplyWhole(backup, 32, budget, std::make_shared<SlowFirstWriteFs>());
  EXPECT_EQ(serial.result.items_applied, victim);
  EXPECT_TRUE(serial.result.wal_truncated);
  EXPECT_EQ(ahead.result.items_applied, victim);
  EXPECT_TRUE(ahead.result.wal_truncated);
  EXPECT_EQ(ahead.result.wal_failure.code(), serial.result.wal_failure.code());
  // Items after the victim were decoded ahead of the apply, and none of
  // them reached the image.
  EXPECT_GT(ahead.result.items_decoded_ahead, victim + 1);
  EXPECT_EQ(ahead.report.objects_downloaded, serial.report.objects_downloaded);
  EXPECT_EQ(ahead.report.files_written, serial.report.files_written);
  EXPECT_EQ(ahead.report.wal_objects_applied, serial.report.wal_objects_applied);
  EXPECT_EQ(ahead.report.recovered_to_ts, serial.report.recovered_to_ts);
  EXPECT_EQ(ahead.files, serial.files);
}

TEST(RecoveryParallelTest, DecodedAheadBytesStayWithinBudget) {
  const Backup backup = BuildBackup(/*value_bytes=*/1024, /*codec=*/true);
  const DirectOutcome serial = ApplyWhole(backup, 1, 0);
  ASSERT_GT(serial.result.items_applied, 4u);
  EXPECT_EQ(serial.result.items_decoded_ahead, 0u);  // no budget, no ahead
  EXPECT_EQ(serial.result.peak_ahead_bytes, 0u);
  // The largest payload in the bucket: a budget below it must leave that
  // object to the caller.
  Envelope envelope(backup.config.envelope);
  std::size_t largest = 0;
  auto objects = backup.store->List("");
  ASSERT_TRUE(objects.ok());
  for (const auto& meta : *objects) {
    auto size = envelope.PayloadSize(View(*backup.store->Get(meta.name)));
    ASSERT_TRUE(size.ok()) << meta.name;
    largest = std::max(largest, *size);
  }
  for (std::size_t budget : {largest / 2, largest, 4 * largest}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    // Slow writes stall the apply, so the workers must decode ahead: the
    // first pump may come before any blob landed, and a blob too large to
    // prepay waits for the next one.
    const DirectOutcome ahead =
        ApplyWhole(backup, 8, budget, std::make_shared<SlowWritesFs>());
    EXPECT_EQ(ahead.result.items_applied, serial.result.items_applied);
    EXPECT_LE(ahead.result.peak_ahead_bytes, budget);
    EXPECT_GT(ahead.result.items_decoded_ahead, 0u);
    if (budget < largest) {
      EXPECT_LT(ahead.result.items_decoded_ahead, serial.result.items_applied);
    }
    EXPECT_EQ(ahead.files, serial.files);
  }
}

TEST(RecoveryParallelTest, SlowHeadGetOverlapsLaterGets) {
  // The first DB part's GET completes only after K later GETs were
  // served: K GETs stay in flight however long the head takes.
  constexpr int kWindow = 4;
  const Backup backup = BuildBackup();
  auto objects = backup.store->List("");
  ASSERT_TRUE(objects.ok());
  const TailPlan plan = BuildTailPlan(*objects, std::nullopt);
  ASSERT_GT(plan.items.size(), static_cast<std::size_t>(kWindow) + 1);
  ASSERT_FALSE(plan.items[0].is_wal);
  auto held = std::make_shared<HoldOneGetStore>(backup.store,
                                                plan.items[0].name, kWindow);

  GinjaConfig config = backup.config;
  config.recovery_prefetch = kWindow;
  auto target = std::make_shared<MemFs>();
  Outcome slow_head;
  slow_head.status =
      Ginja::Recover(held, config, backup.layout, target, &slow_head.report);
  EXPECT_FALSE(held->timed_out());
  auto files = target->ListFiles("");
  ASSERT_TRUE(files.ok());
  for (const auto& path : *files) slow_head.files[path] = *target->ReadAll(path);
  const Outcome serial = RecoverWithK(backup, 1);
  ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
  ExpectIdentical(serial, slow_head);
}

TEST(RecoveryParallelTest, FetchedAheadBytesStayWithinBudget) {
  const Backup backup = BuildBackup(/*value_bytes=*/1024, /*codec=*/true);
  auto objects = backup.store->List("");
  ASSERT_TRUE(objects.ok());
  std::size_t largest = 0;  // enveloped, as listed
  for (const auto& meta : *objects) {
    largest = std::max<std::size_t>(largest, meta.size);
  }
  const DirectOutcome serial =
      ApplyWhole(backup, 1, 0, std::make_shared<MemFs>(), 0);
  EXPECT_EQ(serial.result.peak_fetched_ahead_bytes, 0u);  // no budget, no ahead
  for (std::size_t budget : {largest / 2, largest, 4 * largest}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    const DirectOutcome ahead =
        ApplyWhole(backup, 8, budget, std::make_shared<MemFs>(), budget);
    EXPECT_EQ(ahead.result.items_applied, serial.result.items_applied);
    EXPECT_LE(ahead.result.peak_fetched_ahead_bytes, budget);
    EXPECT_GT(ahead.result.peak_fetched_ahead_bytes, 0u);
    EXPECT_EQ(ahead.files, serial.files);
  }
}

// A one-shot latch: Wait returns once Open was called, or false after ten
// seconds.
class Latch {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  bool Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10), [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Serves one object at once and every other GET only once `latch` opens.
class LatchedStore : public ObjectStore {
 public:
  LatchedStore(ObjectStorePtr inner, std::string free, Latch* latch)
      : inner_(std::move(inner)), free_(std::move(free)), latch_(latch) {}
  Result<Bytes> Get(std::string_view name) override {
    if (name != free_ && !latch_->Wait()) {
      return Status::Unavailable("latch never opened");
    }
    return inner_->Get(name);
  }
  Status Put(std::string_view name, ByteView data) override {
    return inner_->Put(name, data);
  }
  Status Delete(std::string_view name) override { return inner_->Delete(name); }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }

 private:
  ObjectStorePtr inner_;
  std::string free_;
  Latch* latch_;
};

// A MemFs whose first write opens `latch` and then stalls.
class LatchOpeningFs : public MemFs {
 public:
  explicit LatchOpeningFs(Latch* latch) : latch_(latch) {}
  Status Write(std::string_view path, std::uint64_t offset, ByteView data,
               bool sync) override {
    if (!stalled_.exchange(true)) {
      latch_->Open();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return MemFs::Write(path, offset, data, sync);
  }

 private:
  Latch* latch_;
  std::atomic<bool> stalled_{false};
};

TEST(RecoveryParallelTest, BlobsLandingDuringAStalledApplyDecodeAhead) {
  // Every object but the first lands only once the apply of the first is
  // under way, after the caller handed out buffers: the buffers it prepaid
  // from the listed sizes let the workers decode them during the stall.
  const Backup backup = BuildBackup();
  auto objects = backup.store->List("");
  ASSERT_TRUE(objects.ok());
  const TailPlan plan = BuildTailPlan(*objects, std::nullopt);
  ASSERT_GT(plan.items.size(), 2u);
  ASSERT_LT(plan.items.size(), 32u);  // one window holds the whole plan
  const std::size_t budget = 2 * backup.config.max_object_bytes;
  const DirectOutcome serial = ApplyWhole(backup, 1, budget);
  Latch latch;
  const DirectOutcome ahead = ApplyWhole(
      backup, 32, budget, std::make_shared<LatchOpeningFs>(&latch),
      std::numeric_limits<std::size_t>::max(),
      std::make_shared<LatchedStore>(backup.store, plan.items[0].name, &latch));
  EXPECT_EQ(ahead.result.items_applied, serial.result.items_applied);
  EXPECT_EQ(ahead.result.items_decoded_ahead, serial.result.items_applied - 1);
  EXPECT_LE(ahead.result.peak_ahead_bytes, budget);
  EXPECT_EQ(ahead.files, serial.files);
}

TEST(RecoveryParallelTest, TracedRecoverSplitsFetchDecodeApply) {
  const Backup backup = BuildBackup();
  auto objects = backup.store->List("");
  ASSERT_TRUE(objects.ok());
  const std::size_t items = BuildTailPlan(*objects, std::nullopt).items.size();
  ASSERT_GT(items, 0u);

  TraceOptions trace;
  trace.enabled = true;
  trace.sample_period = 1;
  GinjaConfig config = backup.config;
  config.obs = std::make_shared<Observability>(trace);
  config.recovery_prefetch = 8;
  ASSERT_TRUE(Ginja::Recover(backup.store, config, backup.layout,
                             std::make_shared<MemFs>(), nullptr, std::nullopt,
                             std::make_shared<RealClock>())
                  .ok());

  std::map<TraceStage, std::multiset<std::uint64_t>> ids;
  for (const SpanEvent& span : config.obs->tracer.RecentSpans(100'000)) {
    ids[span.stage].insert(span.trace_id);
  }
  for (TraceStage stage : {TraceStage::kRecoveryFetch, TraceStage::kRecoveryDecode,
                           TraceStage::kRecoveryApply}) {
    SCOPED_TRACE(TraceStageName(stage));
    std::multiset<std::uint64_t> expected;
    for (std::uint64_t i = 0; i < items; ++i) expected.insert(i);
    EXPECT_EQ(ids[stage], expected);  // once per plan item
  }
}

}  // namespace
}  // namespace ginja
