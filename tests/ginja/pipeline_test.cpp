#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "cloud/faulty_store.h"
#include "cloud/memory_store.h"
#include "fs/mem_fs.h"
#include "ginja/checkpoint_pipeline.h"
#include "ginja/commit_pipeline.h"
#include "ginja/pitr.h"

namespace ginja {
namespace {

WalWrite W(const std::string& file, std::uint64_t offset, std::size_t bytes,
           std::uint64_t max_lsn) {
  WalWrite w;
  w.file = file;
  w.offset = offset;
  w.data = Bytes(bytes, 0x5A);
  w.max_lsn = max_lsn;
  return w;
}

struct PipelineFixture {
  std::shared_ptr<MemoryStore> store = std::make_shared<MemoryStore>();
  std::shared_ptr<CloudView> view = std::make_shared<CloudView>();
  std::shared_ptr<RealClock> clock = std::make_shared<RealClock>();
  std::shared_ptr<Envelope> envelope = std::make_shared<Envelope>(EnvelopeOptions{});

  std::unique_ptr<CommitPipeline> Make(GinjaConfig config,
                                       ObjectStorePtr s = nullptr) {
    auto p = std::make_unique<CommitPipeline>(s ? s : store, view, clock,
                                              config, envelope);
    p->Start();
    return p;
  }
};

TEST(CommitPipeline, BatchesBWritesPerObject) {
  PipelineFixture fx;
  GinjaConfig config;
  config.batch = 10;
  config.safety = 100;
  auto pipeline = fx.Make(config);
  for (int i = 0; i < 30; ++i) {
    pipeline->Submit(W("pg_xlog/0001", i * 8192, 8192, (i + 1) * 100));
  }
  pipeline->Stop();
  // 30 writes at B=10: exactly 3 WAL objects (distinct offsets, one file).
  EXPECT_EQ(fx.store->ObjectCount(), 3u);
  EXPECT_EQ(fx.view->WalCount(), 3u);
  EXPECT_EQ(pipeline->stats().writes_submitted.Get(), 30u);
  EXPECT_EQ(pipeline->stats().objects_uploaded.Get(), 3u);
}

TEST(CommitPipeline, CoalescesRewritesOfSamePage) {
  PipelineFixture fx;
  GinjaConfig config;
  config.batch = 20;
  config.safety = 100;
  auto pipeline = fx.Make(config);
  // 20 rewrites of the same (file, offset): one object, one page payload.
  for (int i = 0; i < 20; ++i) {
    pipeline->Submit(W("pg_xlog/0001", 0, 8192, (i + 1) * 10));
  }
  pipeline->Stop();
  EXPECT_EQ(fx.store->ObjectCount(), 1u);
  const auto objects = fx.view->WalObjects();
  ASSERT_EQ(objects.size(), 1u);
  // The object's logical size is one page (plus entry framing), not 20.
  auto blob = fx.store->Get(objects[0].Encode());
  ASSERT_TRUE(blob.ok());
  EXPECT_LT(blob->size(), 2 * 8192u);
  EXPECT_EQ(objects[0].max_lsn, 200u);  // the newest write's range
}

TEST(CommitPipeline, SafetyBlocksWhenCloudStalls) {
  PipelineFixture fx;
  auto faulty = std::make_shared<FaultyStore>(fx.store);
  faulty->SetAvailable(false);
  GinjaConfig config;
  config.batch = 1;
  config.safety = 5;
  config.retry_backoff_us = 5'000;
  config.max_retries = 1'000'000;
  auto pipeline = fx.Make(config, faulty);

  std::atomic<int> submitted{0};
  std::thread writer([&] {
    for (int i = 0; i < 20; ++i) {
      pipeline->Submit(W("pg_xlog/0001", i * 8192, 512, (i + 1) * 10));
      submitted.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // With the cloud down, at most S+1 submits can have returned.
  EXPECT_LE(submitted.load(), 6);
  EXPECT_GT(pipeline->stats().blocked_waits.Get(), 0u);

  faulty->SetAvailable(true);  // cloud recovers: everything drains
  writer.join();
  pipeline->Stop();
  EXPECT_EQ(submitted.load(), 20);
  EXPECT_EQ(fx.view->WalCount(), 20u);
}

TEST(CommitPipeline, BatchTimeoutFlushesPartialBatch) {
  PipelineFixture fx;
  GinjaConfig config;
  config.batch = 1000;            // never reached
  config.batch_timeout_us = 20'000;  // TB = 20 ms
  config.safety = 10'000;
  auto pipeline = fx.Make(config);
  pipeline->Submit(W("pg_xlog/0001", 0, 512, 10));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(fx.view->WalCount(), 1u);  // TB fired, partial batch uploaded
  pipeline->Stop();
  EXPECT_EQ(pipeline->stats().batches_closed_deadline.Get(), 1u);
  // Commit latency was measured for every write.
  EXPECT_EQ(pipeline->stats().commit_latency_us.Snapshot().count,
            pipeline->stats().writes_submitted.Get());
  EXPECT_EQ(pipeline->UploadedWalFrontier(), 10u);  // the write's max_lsn
}

TEST(CommitPipeline, SafetyTimeoutBlocksUntilDrained) {
  PipelineFixture fx;
  auto faulty = std::make_shared<FaultyStore>(fx.store);
  faulty->SetAvailable(false);
  GinjaConfig config;
  config.batch = 1;
  config.safety = 1000;              // S never reached
  config.safety_timeout_us = 10'000; // TS = 10 ms
  config.retry_backoff_us = 5'000;
  config.max_retries = 1'000'000;
  auto pipeline = fx.Make(config, faulty);

  pipeline->Submit(W("pg_xlog/0001", 0, 512, 10));  // pending forever
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::atomic<bool> second_returned{false};
  std::thread writer([&] {
    pipeline->Submit(W("pg_xlog/0001", 8192, 512, 20));
    second_returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_returned.load());  // TS exceeded: write blocks

  faulty->SetAvailable(true);
  writer.join();
  EXPECT_TRUE(second_returned.load());
  pipeline->Stop();
}

TEST(CommitPipeline, MultipleSegmentsSplitIntoObjects) {
  PipelineFixture fx;
  GinjaConfig config;
  config.batch = 10;
  config.safety = 100;
  auto pipeline = fx.Make(config);
  for (int i = 0; i < 5; ++i) pipeline->Submit(W("pg_xlog/0001", i * 512, 512, 100 + i));
  for (int i = 0; i < 5; ++i) pipeline->Submit(W("pg_xlog/0002", i * 512, 512, 200 + i));
  pipeline->Stop();
  // One batch of 10 writes touching two segments -> two WAL objects, with
  // timestamps ordered by LSN range.
  const auto objects = fx.view->WalObjects();
  ASSERT_EQ(objects.size(), 2u);
  EXPECT_LT(objects[0].max_lsn, objects[1].max_lsn);
  EXPECT_LT(objects[0].ts, objects[1].ts);
}

TEST(CommitPipeline, OversizedBatchSplitsAtObjectLimit) {
  PipelineFixture fx;
  GinjaConfig config;
  config.batch = 10;
  config.safety = 100;
  config.max_object_bytes = 3 * 8192;  // tiny limit
  auto pipeline = fx.Make(config);
  for (int i = 0; i < 10; ++i) {
    pipeline->Submit(W("pg_xlog/0001", i * 8192, 8192, (i + 1) * 10));
  }
  pipeline->Stop();
  EXPECT_GE(fx.view->WalCount(), 3u);
}

TEST(CommitPipeline, RetriesTransientFailures) {
  PipelineFixture fx;
  auto faulty = std::make_shared<FaultyStore>(fx.store);
  faulty->FailNextOps(3);
  GinjaConfig config;
  config.batch = 1;
  config.safety = 10;
  config.retry_backoff_us = 1'000;
  auto pipeline = fx.Make(config, faulty);
  pipeline->Submit(W("pg_xlog/0001", 0, 512, 10));
  pipeline->Stop();
  EXPECT_EQ(fx.store->ObjectCount(), 1u);
  EXPECT_GE(pipeline->stats().upload_retries.Get(), 3u);
}

TEST(CommitPipeline, DrainWaitsForAllAcks) {
  PipelineFixture fx;
  GinjaConfig config;
  config.batch = 5;
  config.safety = 1000;
  auto pipeline = fx.Make(config);
  for (int i = 0; i < 25; ++i) pipeline->Submit(W("pg_xlog/0001", i * 512, 512, i + 1));
  pipeline->Drain();
  EXPECT_EQ(pipeline->PendingWrites(), 0u);
  EXPECT_EQ(fx.view->WalCount(), 5u);
  pipeline->Stop();
}

TEST(CommitPipeline, KillAbandonsPending) {
  PipelineFixture fx;
  auto faulty = std::make_shared<FaultyStore>(fx.store);
  faulty->SetAvailable(false);
  GinjaConfig config;
  config.batch = 1;
  config.safety = 100;
  config.retry_backoff_us = 2'000;
  config.max_retries = 1'000'000;
  auto pipeline = fx.Make(config, faulty);
  for (int i = 0; i < 5; ++i) pipeline->Submit(W("pg_xlog/0001", i * 512, 512, i + 1));
  pipeline->Kill();  // must return despite the outage
  EXPECT_EQ(fx.store->ObjectCount(), 0u);
}

// The write that makes B closes its batch inside its own Submit call: no
// thread hand-off, so the close is visible the moment Submit returns.
TEST(CommitPipeline, BthSubmitClosesItsBatchBeforeReturning) {
  PipelineFixture fx;
  GinjaConfig config;
  config.batch = 10;
  config.safety = 1000;
  auto pipeline = fx.Make(config);
  for (int i = 0; i < 9; ++i) {
    pipeline->Submit(W("pg_xlog/0001", i * 512, 512, i + 1));
  }
  EXPECT_EQ(pipeline->stats().batches_closed_full.Get(), 0u);
  pipeline->Submit(W("pg_xlog/0001", 9 * 512, 512, 10));
  EXPECT_EQ(pipeline->stats().batches_closed_full.Get(), 1u);
  pipeline->Stop();
  EXPECT_EQ(fx.view->WalCount(), 1u);
  EXPECT_EQ(pipeline->stats().batches_closed_deadline.Get(), 0u);
}

// Submit stamps each write with the clock itself. A write arriving after
// an idle gap longer than TS is as young as the call, so it neither
// blocks nor counts the gap in its commit latency.
TEST(CommitPipeline, WriteAfterIdleGapLongerThanTsDoesNotBlock) {
  PipelineFixture fx;
  auto clock = std::make_shared<ManualClock>();
  GinjaConfig config;
  config.batch = 100;
  config.safety = 1000;
  config.safety_timeout_us = 10'000;  // TS = 10 ms
  config.batch_timeout_us = 1'000'000;
  auto pipeline = std::make_unique<CommitPipeline>(fx.store, fx.view, clock,
                                                   config, fx.envelope);
  pipeline->Start();
  clock->Advance(5 * config.safety_timeout_us);  // idle, nothing pending
  pipeline->Submit(W("pg_xlog/0001", 0, 512, 10));  // into a partial batch
  EXPECT_EQ(pipeline->stats().blocked_waits.Get(), 0u);
  EXPECT_EQ(pipeline->PendingWrites(), 1u);  // staged, batch still open
  pipeline->Stop();
  EXPECT_EQ(fx.view->WalCount(), 1u);
  EXPECT_EQ(pipeline->stats().blocked_waits.Get(), 0u);
  // The model clock never moved after the Submit: an enqueue stamp taken
  // before the gap would show it here.
  const HistogramSnapshot latency =
      pipeline->stats().commit_latency_us.Snapshot();
  EXPECT_EQ(latency.count, 1u);
  EXPECT_LT(latency.max, static_cast<double>(config.safety_timeout_us));
}

// With S < B only TB can close a batch. Writers blocked at S wait off the
// staging lock, so the unlocker's TB check still closes the partial batch
// and its ack releases them.
TEST(CommitPipeline, PartialBatchClosesOnTbWhileWritersBlockAtS) {
  PipelineFixture fx;
  GinjaConfig config;
  config.batch = 100;
  config.safety = 3;
  config.batch_timeout_us = 20'000;  // TB = 20 ms
  auto pipeline = fx.Make(config);
  std::atomic<int> returned{0};
  std::thread writer([&] {
    for (int i = 0; i < 4; ++i) {
      pipeline->Submit(W("pg_xlog/0001", i * 512, 512, i + 1));
      returned.fetch_add(1);
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (returned.load() < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(returned.load(), 4);
  if (returned.load() < 4) pipeline->Kill();  // release a stuck writer
  writer.join();
  pipeline->Stop();
  EXPECT_EQ(pipeline->stats().batches_closed_full.Get(), 0u);
  EXPECT_GE(pipeline->stats().batches_closed_deadline.Get(), 1u);
  EXPECT_EQ(pipeline->PendingWrites(), 0u);
  EXPECT_EQ(pipeline->UploadedWalFrontier(), 4u);  // every write uploaded
}

// -- CheckpointPipeline -------------------------------------------------------------

struct CheckpointFixture {
  std::shared_ptr<MemoryStore> store = std::make_shared<MemoryStore>();
  std::shared_ptr<CloudView> view = std::make_shared<CloudView>();
  std::shared_ptr<RealClock> clock = std::make_shared<RealClock>();
  std::shared_ptr<Envelope> envelope = std::make_shared<Envelope>(EnvelopeOptions{});
  std::shared_ptr<MemFs> fs = std::make_shared<MemFs>();

  std::unique_ptr<CheckpointPipeline> Make(GinjaConfig config,
                                           DbLayout layout = DbLayout::Postgres(),
                                           ObjectStorePtr s = nullptr) {
    auto p = std::make_unique<CheckpointPipeline>(s ? s : store, view, clock,
                                                  config, envelope, fs, layout);
    p->Start();
    return p;
  }
};

TEST(CheckpointPipeline, UploadsIncrementalCheckpoint) {
  CheckpointFixture fx;
  // Local files exist so the dump rule has a baseline; seed one DB object
  // so the first checkpoint is incremental.
  ASSERT_TRUE(fx.fs->Write("base/16384/t", 0, Bytes(100'000, 1), false).ok());
  DbObjectId seed;
  seed.seq = 0;
  seed.size = 100'000;
  fx.view->AddDb(seed);

  auto pipeline = fx.Make(GinjaConfig{});
  pipeline->OnCheckpointBegin();
  pipeline->AddWrite({"base/16384/t", 0, Bytes(8192, 2)});
  pipeline->AddWrite({"global/pg_control", 0, Bytes(32, 3)});
  pipeline->OnCheckpointEnd(/*redo_lsn=*/500);
  pipeline->Stop();

  EXPECT_EQ(pipeline->stats().checkpoints_uploaded.Get(), 1u);
  EXPECT_EQ(pipeline->stats().dumps_uploaded.Get(), 0u);
  const auto objects = fx.view->DbObjects();
  ASSERT_EQ(objects.size(), 2u);  // seed + new checkpoint
  EXPECT_EQ(objects[1].type, DbObjectType::kCheckpoint);
}

TEST(CheckpointPipeline, DumpWhenCloudExceeds150Percent) {
  CheckpointFixture fx;
  ASSERT_TRUE(fx.fs->Write("base/16384/t", 0, Bytes(10'000, 1), false).ok());
  // Cloud already holds 2x the local size in DB objects.
  DbObjectId big;
  big.seq = 0;
  big.size = 20'000;
  fx.view->AddDb(big);
  ASSERT_TRUE(fx.store->Put(big.Encode(), View(Bytes(10, 0))).ok());

  auto pipeline = fx.Make(GinjaConfig{});
  pipeline->OnCheckpointBegin();
  pipeline->AddWrite({"base/16384/t", 0, Bytes(512, 2)});
  pipeline->OnCheckpointEnd(100);
  pipeline->Stop();

  EXPECT_EQ(pipeline->stats().dumps_uploaded.Get(), 1u);
  // The old DB object was garbage-collected after the dump.
  EXPECT_EQ(pipeline->stats().db_objects_deleted.Get(), 1u);
  const auto objects = fx.view->DbObjects();
  ASSERT_EQ(objects.size(), 1u);
  EXPECT_EQ(objects[0].type, DbObjectType::kDump);
}

TEST(CheckpointPipeline, GcDeletesCoveredWalObjects) {
  CheckpointFixture fx;
  ASSERT_TRUE(fx.fs->Write("base/16384/t", 0, Bytes(100'000, 1), false).ok());
  DbObjectId seed;
  seed.seq = 0;
  seed.size = 1'000;  // far below 150%: incremental checkpoint
  fx.view->AddDb(seed);

  // Three uploaded WAL objects with max_lsn 100, 200, 300.
  for (std::uint64_t i = 0; i < 3; ++i) {
    WalObjectId wal;
    wal.ts = i;
    wal.filename = "pg_xlog/0001";
    wal.max_lsn = (i + 1) * 100;
    fx.view->AddWal(wal);
    ASSERT_TRUE(fx.store->Put(wal.Encode(), View(Bytes(8, 0))).ok());
  }

  auto pipeline = fx.Make(GinjaConfig{});
  pipeline->OnCheckpointBegin();
  pipeline->AddWrite({"base/16384/t", 0, Bytes(512, 2)});
  pipeline->OnCheckpointEnd(/*redo_lsn=*/250);  // covers ts 0 and 1 only
  pipeline->Stop();

  EXPECT_EQ(pipeline->stats().wal_objects_deleted.Get(), 2u);
  const auto remaining = fx.view->WalObjects();
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].ts, 2u);
}

TEST(CheckpointPipeline, KeepHistorySkipsGc) {
  CheckpointFixture fx;
  ASSERT_TRUE(fx.fs->Write("base/16384/t", 0, Bytes(1'000, 1), false).ok());
  WalObjectId wal;
  wal.ts = 0;
  wal.filename = "pg_xlog/0001";
  wal.max_lsn = 10;
  fx.view->AddWal(wal);
  ASSERT_TRUE(fx.store->Put(wal.Encode(), View(Bytes(8, 0))).ok());
  DbObjectId seed;
  seed.seq = 0;
  seed.size = 100;
  fx.view->AddDb(seed);

  auto retention = std::make_shared<RetentionPolicy>();
  retention->KeepEveryPoint();
  auto pipeline = fx.Make(GinjaConfig{});
  pipeline->SetRetentionPolicy(retention);
  pipeline->OnCheckpointBegin();
  pipeline->AddWrite({"base/16384/t", 0, Bytes(64, 2)});
  pipeline->OnCheckpointEnd(1'000'000);
  pipeline->Stop();
  EXPECT_EQ(pipeline->stats().wal_objects_deleted.Get(), 0u);
  EXPECT_EQ(fx.view->WalCount(), 1u);
}

TEST(CheckpointPipeline, LargeDumpSplitsIntoParts) {
  CheckpointFixture fx;
  ASSERT_TRUE(fx.fs->Write("base/16384/big", 0, Bytes(300'000, 7), false).ok());
  GinjaConfig config;
  config.max_object_bytes = 100'000;
  auto pipeline = fx.Make(config);
  // No DB objects yet -> forced dump of the 300 kB file -> >= 3 parts.
  pipeline->OnCheckpointBegin();
  pipeline->OnCheckpointEnd(0);
  pipeline->Stop();
  EXPECT_GE(pipeline->stats().db_objects_uploaded.Get(), 3u);
  const auto objects = fx.view->DbObjects();
  ASSERT_GE(objects.size(), 3u);
  EXPECT_EQ(objects[0].total_parts, objects.size());
}

// The part index owns 16 bits of a DB part's nonce, so an object that
// would split into more than 2^16 parts must grow its parts instead:
// otherwise part 0 and part 65536 encrypt under the same AES-CTR nonce.
TEST(CheckpointPipeline, PartNoncesStayDistinctPast65536Parts) {
  CheckpointFixture fx;
  EnvelopeOptions env;
  env.encrypt = true;  // the header carries the nonce only when encrypting
  fx.envelope = std::make_shared<Envelope>(env);
  ASSERT_TRUE(fx.fs->Write("base/16384/t", 0, Bytes(4096, 1), false).ok());
  DbObjectId seed;  // seq 0: the checkpoint below is an incremental at seq 1
  seed.seq = 0;
  seed.size = 16;
  fx.view->AddDb(seed);
  GinjaConfig config;
  config.max_object_bytes = 16;
  auto pipeline = fx.Make(config);
  constexpr std::uint64_t kPages = 65'537;
  pipeline->OnCheckpointBegin();
  for (std::uint64_t i = 0; i < kPages; ++i) {
    pipeline->AddWrite({"base/16384/t", i * 16, Bytes(16, 2)});
  }
  pipeline->OnCheckpointEnd(/*redo_lsn=*/500);
  pipeline->Stop();
  ASSERT_EQ(pipeline->stats().checkpoints_uploaded.Get(), 1u);

  auto listed = fx.store->List("DB/");
  ASSERT_TRUE(listed.ok());
  ASSERT_FALSE(listed->empty());
  std::set<std::uint64_t> nonces;
  for (const ObjectMeta& meta : *listed) {
    auto blob = fx.store->Get(meta.name);
    ASSERT_TRUE(blob.ok());
    ASSERT_GE(blob->size(), 13u);
    std::uint64_t nonce = 0;  // header bytes 5..12, little-endian
    for (int b = 0; b < 8; ++b) {
      nonce |= static_cast<std::uint64_t>((*blob)[5 + b]) << (8 * b);
    }
    nonces.insert(nonce);
  }
  EXPECT_EQ(nonces.size(), listed->size());
  for (const DbObjectId& id : fx.view->DbObjects()) {
    EXPECT_LE(id.total_parts, 65'536u);
  }
}

TEST(CheckpointPipeline, LocalDbSizeExcludesWal) {
  CheckpointFixture fx;
  ASSERT_TRUE(fx.fs->Write("base/16384/t", 0, Bytes(5'000, 1), false).ok());
  ASSERT_TRUE(fx.fs->Write("pg_xlog/0001", 0, Bytes(100'000, 1), false).ok());
  auto pipeline = fx.Make(GinjaConfig{});
  EXPECT_EQ(pipeline->LocalDbSizeBytes(), 5'000u);
  pipeline->Stop();
}

// Fails, while tripped, every PUT or DELETE whose name contains the
// matching fragment; counts the DELETEs that reach the inner store.
class NameFailingStore : public ObjectStore {
 public:
  explicit NameFailingStore(ObjectStorePtr inner) : inner_(std::move(inner)) {}

  Status Put(std::string_view name, ByteView data) override {
    if (Trips(name, fail_puts_)) return Status::Unavailable("injected PUT");
    return inner_->Put(name, data);
  }
  Result<Bytes> Get(std::string_view name) override {
    return inner_->Get(name);
  }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }
  Status Delete(std::string_view name) override {
    if (Trips(name, fail_deletes_)) {
      return Status::Unavailable("injected DELETE");
    }
    ++deletes_;
    return inner_->Delete(name);
  }

  void FailPuts(std::string fragment) { Set(fail_puts_, std::move(fragment)); }
  void FailDeletes(std::string fragment) {
    Set(fail_deletes_, std::move(fragment));
  }
  int deletes() const { return deletes_.load(); }

 private:
  bool Trips(std::string_view name, const std::string& fragment) {
    std::lock_guard<std::mutex> lock(mu_);
    return !fragment.empty() && name.find(fragment) != std::string_view::npos;
  }
  void Set(std::string& slot, std::string fragment) {
    std::lock_guard<std::mutex> lock(mu_);
    slot = std::move(fragment);
  }

  ObjectStorePtr inner_;
  std::mutex mu_;
  std::string fail_puts_;
  std::string fail_deletes_;
  std::atomic<int> deletes_{0};
};

GinjaConfig FailFastConfig() {
  GinjaConfig config;
  config.max_retries = 2;  // injected failures are permanent: give up fast
  config.retry_backoff_us = 1'000;
  return config;
}

// Seeds a local file, one small DB object (so checkpoints stay
// incremental) and WAL objects ts 0, 1 (max_lsn 100, 200) in view and store.
void SeedCheckpointState(CheckpointFixture& fx) {
  ASSERT_TRUE(fx.fs->Write("base/16384/t", 0, Bytes(100'000, 1), false).ok());
  DbObjectId seed;
  seed.seq = 0;
  seed.size = 1'000;
  fx.view->AddDb(seed);
  ASSERT_TRUE(fx.store->Put(seed.Encode(), View(Bytes(8, 0))).ok());
  for (std::uint64_t i = 0; i < 2; ++i) {
    WalObjectId wal;
    wal.ts = i;
    wal.filename = "pg_xlog/0001";
    wal.max_lsn = (i + 1) * 100;
    fx.view->AddWal(wal);
    ASSERT_TRUE(fx.store->Put(wal.Encode(), View(Bytes(8, 0))).ok());
  }
}

void Checkpoint(CheckpointPipeline& pipeline, Lsn redo_lsn) {
  pipeline.OnCheckpointBegin();
  pipeline.AddWrite({"base/16384/t", 0, Bytes(3'000, 2)});
  pipeline.OnCheckpointEnd(redo_lsn);
  pipeline.Drain();
}

TEST(CheckpointPipeline, FailedPartPutPublishesNothingAndDeletesNothing) {
  CheckpointFixture fx;
  SeedCheckpointState(fx);
  auto failing = std::make_shared<NameFailingStore>(fx.store);
  GinjaConfig config = FailFastConfig();
  config.max_object_bytes = 1'000;  // three parts; part 1 never lands
  auto pipeline = fx.Make(config, DbLayout::Postgres(), failing);

  failing->FailPuts("_p1of");
  Checkpoint(*pipeline, /*redo_lsn=*/250);
  EXPECT_EQ(pipeline->stats().checkpoints_uploaded.Get(), 0u);
  ASSERT_EQ(fx.view->DbObjects().size(), 1u);  // the seed alone
  EXPECT_EQ(fx.view->WalCount(), 2u);
  EXPECT_EQ(failing->deletes(), 0);
  EXPECT_EQ(pipeline->stats().wal_objects_deleted.Get(), 0u);

  failing->FailPuts("");
  Checkpoint(*pipeline, /*redo_lsn=*/250);
  pipeline->Stop();
  EXPECT_EQ(pipeline->stats().checkpoints_uploaded.Get(), 1u);
  const auto objects = fx.view->DbObjects();
  ASSERT_EQ(objects.size(), 4u);  // seed + three parts
  EXPECT_EQ(objects[1].total_parts, 3u);
  EXPECT_EQ(pipeline->stats().wal_objects_deleted.Get(), 2u);
  EXPECT_EQ(fx.view->WalCount(), 0u);
}

TEST(CheckpointPipeline, FailedGcDeleteKeepsVictimForNextPass) {
  CheckpointFixture fx;
  SeedCheckpointState(fx);
  auto failing = std::make_shared<NameFailingStore>(fx.store);
  auto pipeline = fx.Make(FailFastConfig(), DbLayout::Postgres(), failing);
  WalObjectId stuck;
  stuck.ts = 0;
  stuck.filename = "pg_xlog/0001";
  stuck.max_lsn = 100;

  failing->FailDeletes(stuck.Encode());
  Checkpoint(*pipeline, /*redo_lsn=*/250);
  EXPECT_EQ(pipeline->stats().checkpoints_uploaded.Get(), 1u);
  EXPECT_EQ(pipeline->stats().wal_objects_deleted.Get(), 1u);
  auto remaining = fx.view->WalObjects();
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].ts, 0u);
  EXPECT_TRUE(fx.store->Get(stuck.Encode()).ok());

  failing->FailDeletes("");
  Checkpoint(*pipeline, /*redo_lsn=*/250);
  pipeline->Stop();
  EXPECT_EQ(pipeline->stats().wal_objects_deleted.Get(), 2u);
  EXPECT_EQ(fx.view->WalCount(), 0u);
  EXPECT_FALSE(fx.store->Get(stuck.Encode()).ok());
}

}  // namespace
}  // namespace ginja
