// Warm standby replica: continuous tailing, bounded lag, millisecond
// promotion — and the failover safety envelope around it (epoch fencing,
// torn uploads, GC races, time travel).
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>

#include "cloud/fenced_store.h"
#include "cloud/memory_store.h"
#include "db/database.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"
#include "ginja/failover.h"
#include "ginja/ginja.h"
#include "ginja/object_id.h"
#include "ginja/standby.h"
#include "ginja/tail_apply.h"

namespace ginja {
namespace {

std::map<std::string, Bytes> Files(Vfs& fs) {
  std::map<std::string, Bytes> out;
  auto files = fs.ListFiles("");
  EXPECT_TRUE(files.ok());
  for (const auto& path : *files) {
    auto content = fs.ReadAll(path);
    EXPECT_TRUE(content.ok()) << path;
    if (content.ok()) out[path] = std::move(*content);
  }
  return out;
}

std::map<std::string, Bytes> BucketContents(ObjectStore& store) {
  std::map<std::string, Bytes> out;
  auto objects = store.List("");
  EXPECT_TRUE(objects.ok());
  for (const auto& meta : *objects) {
    auto blob = store.Get(meta.name);
    EXPECT_TRUE(blob.ok()) << meta.name;
    if (blob.ok()) out[meta.name] = std::move(*blob);
  }
  return out;
}

void ExpectSameFiles(const std::map<std::string, Bytes>& a,
                     const std::map<std::string, Bytes>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [path, content] : a) {
    auto it = b.find(path);
    ASSERT_NE(it, b.end()) << path;
    EXPECT_EQ(content, it->second) << path;
  }
}

// Spins (wall time) until the standby reports zero lag, or fails.
void WaitCaughtUp(StandbyReplica& standby, std::uint64_t through_ts) {
  for (int i = 0; i < 2000; ++i) {
    if (standby.lag_objects() == 0 && standby.next_ts() >= through_ts + 1) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << "standby never caught up: lag=" << standby.lag_objects()
         << " next_ts=" << standby.next_ts();
}

StandbyOptions FastTail() {
  StandbyOptions options;
  options.poll_interval_us = 1'000;
  return options;
}

// A live primary the tests drive commits through.
struct Primary {
  std::shared_ptr<MemFs> local;
  std::shared_ptr<InterceptFs> intercept;
  std::unique_ptr<Database> db;
  std::unique_ptr<Ginja> ginja;

  Primary(ObjectStorePtr store, const GinjaConfig& config,
          std::shared_ptr<Clock> clock,
          const DbLayout& layout = DbLayout::Postgres()) {
    local = std::make_shared<MemFs>();
    intercept = std::make_shared<InterceptFs>(local, clock);
    db = std::make_unique<Database>(intercept, layout);
    EXPECT_TRUE(db->Create().ok());
    EXPECT_TRUE(db->CreateTable("t").ok());
    ginja = std::make_unique<Ginja>(local, store, clock, layout, config);
    EXPECT_TRUE(ginja->Boot().ok());
    intercept->SetListener(ginja.get());
  }

  void Commit(int i) {
    auto txn = db->Begin();
    ASSERT_TRUE(
        db->Put(txn, "t", "k" + std::to_string(i), ToBytes("v" + std::to_string(i)))
            .ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
};

GinjaConfig SmallBatches() {
  GinjaConfig config;
  config.batch = 4;
  config.safety = 64;
  config.batch_timeout_us = 10'000;
  return config;
}

TEST(Standby, WarmTailMatchesColdRecoveryByteForByte) {
  auto store = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  const DbLayout layout = DbLayout::Postgres();
  const GinjaConfig config = SmallBatches();

  Primary primary(store, config, clock, layout);
  StandbyReplica standby(store, config, clock, FastTail());
  ASSERT_TRUE(standby.Start().ok());

  for (int i = 0; i < 40; ++i) primary.Commit(i);
  primary.ginja->Drain();
  const auto last_ts = primary.ginja->cloud_view().LastAssignedWalTs();
  ASSERT_TRUE(last_ts.has_value());
  WaitCaughtUp(standby, *last_ts);
  primary.ginja->Stop();

  auto promotion = standby.Promote();
  ASSERT_TRUE(promotion.ok()) << promotion.status().ToString();
  EXPECT_GE(promotion->epoch, 1u);
  EXPECT_FALSE(promotion->gap_detected);
  EXPECT_EQ(standby.lag_objects(), 0u);

  // The warm image is byte-identical to a cold recovery of the same bucket.
  auto cold = std::make_shared<MemFs>();
  RecoveryReport cold_report;
  ASSERT_TRUE(Ginja::Recover(store, config, layout, cold, &cold_report).ok());
  ExpectSameFiles(Files(*cold), Files(*standby.image()));

  // And it serves: every committed row is present.
  Database recovered(standby.image(), layout);
  ASSERT_TRUE(recovered.Open().ok());
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(recovered.Get("t", "k" + std::to_string(i)).has_value()) << i;
  }

  // The standby applied the same object set cold recovery downloaded —
  // counters agree with the cold report.
  const RecoveryReport warm = standby.report();
  EXPECT_EQ(warm.wal_objects_applied + warm.db_objects_applied,
            cold_report.wal_objects_applied + cold_report.db_objects_applied);
}

TEST(Standby, LagIsBoundedWhileTailing) {
  auto store = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  const GinjaConfig config = SmallBatches();

  Primary primary(store, config, clock);
  StandbyReplica standby(store, config, clock, FastTail());
  ASSERT_TRUE(standby.Start().ok());

  std::uint64_t worst = 0;
  for (int i = 0; i < 60; ++i) {
    primary.Commit(i);
    if (i % 8 == 0) {
      primary.ginja->Drain();
      // Give the 1 ms poll a few turns to absorb the burst.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      worst = std::max(worst, standby.lag_objects());
    }
  }
  primary.ginja->Drain();
  const auto last_ts = primary.ginja->cloud_view().LastAssignedWalTs();
  ASSERT_TRUE(last_ts.has_value());
  WaitCaughtUp(standby, *last_ts);
  primary.ginja->Stop();
  standby.Stop();

  // Applied-frontier lag stayed bounded (a burst is at most a few batches)
  // and returned to zero; the peak gauge recorded it.
  EXPECT_EQ(standby.lag_objects(), 0u);
  EXPECT_LE(worst, 16u);
  EXPECT_GE(standby.peak_lag_objects(), worst);
  EXPECT_GT(standby.objects_applied(), 0u);
}

TEST(Standby, TornCheckpointUploadIsInvisible) {
  // A checkpoint whose part-set is incomplete (the uploader died mid-PUT)
  // must be skipped by the standby exactly as cold recovery skips it.
  auto store = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  const DbLayout layout = DbLayout::Postgres();
  GinjaConfig config = SmallBatches();
  config.max_object_bytes = 2048;    // force multi-part checkpoints

  {
    Primary primary(store, config, clock, layout);
    // GC keeps the WAL the torn checkpoint covered.
    primary.ginja->retention().KeepEveryPoint();
    for (int i = 0; i < 30; ++i) primary.Commit(i);
    ASSERT_TRUE(primary.db->Checkpoint().ok());
    for (int i = 30; i < 40; ++i) primary.Commit(i);
    primary.ginja->Stop();
  }

  // Tear the newest checkpoint: delete one of its parts.
  auto objects = store->List("DB/");
  ASSERT_TRUE(objects.ok());
  std::string victim;
  std::uint64_t victim_seq = 0;
  for (const auto& meta : *objects) {
    auto id = DbObjectId::Decode(meta.name);
    ASSERT_TRUE(id.has_value()) << meta.name;
    if (id->type == DbObjectType::kCheckpoint && id->total_parts > 1 &&
        id->seq >= victim_seq) {
      victim = meta.name;
      victim_seq = id->seq;
    }
  }
  ASSERT_FALSE(victim.empty()) << "workload produced no multi-part checkpoint";
  ASSERT_TRUE(store->Delete(victim).ok());

  StandbyReplica standby(store, config, clock, FastTail());
  ASSERT_TRUE(standby.Start().ok());
  auto promotion = standby.Promote();
  ASSERT_TRUE(promotion.ok()) << promotion.status().ToString();

  auto cold = std::make_shared<MemFs>();
  ASSERT_TRUE(Ginja::Recover(store, config, layout, cold).ok());
  ExpectSameFiles(Files(*cold), Files(*standby.image()));

  Database recovered(standby.image(), layout);
  ASSERT_TRUE(recovered.Open().ok());
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(recovered.Get("t", "k" + std::to_string(i)).has_value()) << i;
  }
}

TEST(Standby, PromoteResyncsWhenGcCollectedTheFrontier) {
  // The standby lags; a checkpoint lands and garbage collection deletes
  // the WAL objects at its frontier. Promotion must detect the unreachable
  // frontier and fall back to a full resync (picking up the checkpoint)
  // instead of serving a stale image.
  auto store = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  const DbLayout layout = DbLayout::Postgres();
  const GinjaConfig config = SmallBatches();

  Primary primary(store, config, clock, layout);
  for (int i = 0; i < 10; ++i) primary.Commit(i);
  primary.ginja->Drain();

  // Bootstrap only: the poll interval is so long the tail never fires.
  StandbyOptions lazy;
  lazy.poll_interval_us = 60'000'000;
  StandbyReplica standby(store, config, clock, lazy);
  ASSERT_TRUE(standby.Start().ok());
  const std::uint64_t frontier = standby.next_ts();

  for (int i = 10; i < 40; ++i) primary.Commit(i);
  ASSERT_TRUE(primary.db->Checkpoint().ok());
  primary.ginja->Drain();
  primary.ginja->Stop();

  // Precondition: GC really did delete the standby's frontier object.
  bool frontier_gone = true;
  auto remaining = store->List("WAL/");
  ASSERT_TRUE(remaining.ok());
  for (const auto& meta : *remaining) {
    auto id = WalObjectId::Decode(meta.name);
    if (id && id->ts == frontier) frontier_gone = false;
  }
  ASSERT_TRUE(frontier_gone) << "GC kept the frontier; test premise broken";

  auto promotion = standby.Promote();
  ASSERT_TRUE(promotion.ok()) << promotion.status().ToString();
  EXPECT_TRUE(promotion->resynced);
  EXPECT_GE(standby.resyncs(), 1u);

  auto cold = std::make_shared<MemFs>();
  ASSERT_TRUE(Ginja::Recover(store, config, layout, cold).ok());
  ExpectSameFiles(Files(*cold), Files(*standby.image()));

  Database recovered(standby.image(), layout);
  ASSERT_TRUE(recovered.Open().ok());
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(recovered.Get("t", "k" + std::to_string(i)).has_value()) << i;
  }
}

TEST(Standby, PromotionFencesInFlightStreamsAtomically) {
  // Split brain: the old primary has a streamed upload in flight when the
  // standby promotes. The shared fence token must reject the remaining
  // AppendPart/Finish with ABORTED — and because Finish is what publishes,
  // the half-written object must never appear in the bucket.
  auto bucket = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  const GinjaConfig config = SmallBatches();

  auto token = std::make_shared<FenceToken>();
  auto primary_store =
      std::make_shared<FencedStore>(bucket, token, /*writer_epoch=*/0);

  {
    Primary primary(primary_store, config, clock);
    for (int i = 0; i < 8; ++i) primary.Commit(i);
    primary.ginja->Drain();
    primary.ginja->Stop();
  }

  StandbyOptions options = FastTail();
  options.fence = token;
  StandbyReplica standby(bucket, config, clock, options);
  ASSERT_TRUE(standby.Start().ok());

  // The zombie opens a stream and stages a part before the takeover...
  auto writer = primary_store->BeginStreaming("zombie/stream");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendPart(0, View(ToBytes("stale"))).ok());

  auto promotion = standby.Promote();
  ASSERT_TRUE(promotion.ok()) << promotion.status().ToString();
  EXPECT_TRUE(primary_store->fenced());

  // ...and every mutation after the epoch bump is rejected.
  EXPECT_EQ((*writer)->AppendPart(1, View(ToBytes("more"))).code(),
            ErrorCode::kAborted);
  EXPECT_EQ((*writer)->Finish("WAL/99_zombie_0_9").code(), ErrorCode::kAborted);
  EXPECT_EQ(primary_store->Put("WAL/99_zombie_0_9", View(ToBytes("x"))).code(),
            ErrorCode::kAborted);
  EXPECT_EQ(primary_store->Delete("meta/epoch").code(), ErrorCode::kAborted);
  EXPECT_GE(primary_store->rejected_ops(), 4u);

  // Never half-published: the bucket holds no trace of the fenced stream.
  EXPECT_FALSE(bucket->Get("WAL/99_zombie_0_9").ok());

  // Reads still pass through — a zombie may observe, never mutate.
  EXPECT_TRUE(primary_store->List("WAL/").ok());
}

TEST(Standby, PromotionFencesTheOldPrimarysHeartbeat) {
  auto bucket = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  const GinjaConfig config = SmallBatches();
  FailoverConfig failover;
  failover.heartbeat_interval_us = 5'000;

  auto token = std::make_shared<FenceToken>();
  auto primary_store =
      std::make_shared<FencedStore>(bucket, token, /*writer_epoch=*/0);

  {
    Primary primary(primary_store, config, clock);
    for (int i = 0; i < 4; ++i) primary.Commit(i);
    primary.ginja->Drain();
    primary.ginja->Stop();
  }

  std::atomic<bool> fenced_callback{false};
  HeartbeatWriter zombie(primary_store, clock, config, failover, 0,
                         [&] { fenced_callback = true; });
  zombie.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  StandbyOptions options = FastTail();
  options.fence = token;
  StandbyReplica standby(bucket, config, clock, options);
  ASSERT_TRUE(standby.Start().ok());
  auto promotion = standby.Promote();
  ASSERT_TRUE(promotion.ok()) << promotion.status().ToString();

  // The zombie notices the higher epoch at its next beat and self-fences;
  // its sequence freezes.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(zombie.fenced());
  EXPECT_TRUE(fenced_callback.load());
  const std::uint64_t beats = zombie.beats_sent();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(zombie.beats_sent(), beats);
  zombie.Stop();
}

TEST(Standby, AttachedStandbyLeavesPrimaryBucketByteIdentical) {
  // The standby is a pure reader: a primary with one standby attached must
  // produce the exact same bucket as the same workload running standalone.
  const DbLayout layout = DbLayout::Postgres();
  GinjaConfig config;
  config.batch = 1;  // deterministic object boundaries
  config.safety = 64;

  auto run = [&](bool with_standby) {
    auto store = std::make_shared<MemoryStore>();
    auto clock = std::make_shared<RealClock>();
    std::unique_ptr<StandbyReplica> standby;
    Primary primary(store, config, clock, layout);
    if (with_standby) {
      standby = std::make_unique<StandbyReplica>(store, config, clock,
                                                 FastTail());
      EXPECT_TRUE(standby->Start().ok());
    }
    for (int i = 0; i < 25; ++i) primary.Commit(i);
    primary.ginja->Drain();
    primary.ginja->Stop();
    if (standby) standby->Stop();
    return BucketContents(*store);
  };

  const auto standalone = run(false);
  const auto observed = run(true);
  ASSERT_EQ(standalone.size(), observed.size());
  for (const auto& [name, content] : standalone) {
    auto it = observed.find(name);
    ASSERT_NE(it, observed.end()) << name;
    EXPECT_EQ(content, it->second) << name;
  }
}

TEST(Standby, OpenAtTsIsPointInTimeRecovery) {
  // Time travel: a standby opened at a protected ts materializes exactly
  // the image PITR recovery produces for that ts, and never tails past it.
  auto store = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  const DbLayout layout = DbLayout::Postgres();
  GinjaConfig config = SmallBatches();

  Primary primary(store, config, clock, layout);
  primary.ginja->retention().KeepEveryPoint();
  for (int i = 0; i < 20; ++i) primary.Commit(i);
  const auto point = primary.ginja->ProtectCurrentState();
  ASSERT_TRUE(point.has_value());
  for (int i = 20; i < 40; ++i) primary.Commit(i);
  primary.ginja->Drain();
  primary.ginja->Stop();

  StandbyOptions options = FastTail();
  options.open_at_ts = *point;
  StandbyReplica standby(store, config, clock, options);
  ASSERT_TRUE(standby.Start().ok());
  standby.Stop();

  // The frontier is capped at the restore point even though newer objects
  // exist; the lag gauge reports them as visible-but-not-applied.
  EXPECT_LE(standby.next_ts(), *point + 1);

  auto pitr = std::make_shared<MemFs>();
  ASSERT_TRUE(
      Ginja::Recover(store, config, layout, pitr, nullptr, *point).ok());
  ExpectSameFiles(Files(*pitr), Files(*standby.image()));

  Database recovered(standby.image(), layout);
  ASSERT_TRUE(recovered.Open().ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(recovered.Get("t", "k" + std::to_string(i)).has_value()) << i;
  }
  for (int i = 20; i < 40; ++i) {
    EXPECT_FALSE(recovered.Get("t", "k" + std::to_string(i)).has_value()) << i;
  }
}

TEST(Standby, CursorSurvivesTsDigitRollover) {
  // Unpadded timestamps: "WAL/10..." sorts before "WAL/9...". A cursor
  // derived from the last *seen* key would skip the rollover object; the
  // next-expected-ts cursor must tail straight through ts 9 -> 10.
  auto store = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  const DbLayout layout = DbLayout::Postgres();
  GinjaConfig config;
  config.batch = 1;  // one WAL object per commit: ts counts 0,1,2,...
  config.safety = 64;

  Primary primary(store, config, clock, layout);
  StandbyReplica standby(store, config, clock, FastTail());
  ASSERT_TRUE(standby.Start().ok());

  for (int i = 0; i < 15; ++i) {
    primary.Commit(i);
    primary.ginja->Drain();  // land them one at a time across the boundary
  }
  const auto last_ts = primary.ginja->cloud_view().LastAssignedWalTs();
  ASSERT_TRUE(last_ts.has_value());
  ASSERT_GE(*last_ts, 10u);  // the run crossed the one->two digit boundary
  WaitCaughtUp(standby, *last_ts);
  primary.ginja->Stop();

  auto promotion = standby.Promote();
  ASSERT_TRUE(promotion.ok()) << promotion.status().ToString();
  EXPECT_EQ(standby.lag_objects(), 0u);
  EXPECT_GE(standby.next_ts(), 11u);

  Database recovered(standby.image(), layout);
  ASSERT_TRUE(recovered.Open().ok());
  for (int i = 0; i < 15; ++i) {
    EXPECT_TRUE(recovered.Get("t", "k" + std::to_string(i)).has_value()) << i;
  }
}

TEST(Standby, BootstrapAppliesAckedTailSegmentsOfAKilledStream) {
  // Early-ack streaming: the primary dies mid-stream, leaving WALTAIL/
  // segments (the acked prefix) but no finished WAL object. The standby's
  // bootstrap must apply that prefix exactly as cold recovery does.
  auto store = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  const DbLayout layout = DbLayout::Postgres();
  GinjaConfig config = SmallBatches();
  config.batch = 64;               // a wide batch that stays open...
  config.batch_timeout_us = 50'000'000;
  config.streaming_commit = true;  // ...while its segments upload early
  config.early_ack = true;
  config.stream_segment_writes = 4;

  {
    Primary primary(store, config, clock, layout);
    for (int i = 0; i < 20; ++i) primary.Commit(i);
    // Wait for the acked segments to land, then crash mid-stream.
    for (int spin = 0; spin < 500; ++spin) {
      auto tails = store->List("WALTAIL/");
      if (tails.ok() && tails->size() >= 2) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    primary.ginja->Kill();
  }
  auto tails = store->List("WALTAIL/");
  ASSERT_TRUE(tails.ok());
  ASSERT_FALSE(tails->empty()) << "crash left no tail segments";

  StandbyReplica standby(store, config, clock, FastTail());
  ASSERT_TRUE(standby.Start().ok());
  auto promotion = standby.Promote();
  ASSERT_TRUE(promotion.ok()) << promotion.status().ToString();

  auto cold = std::make_shared<MemFs>();
  RecoveryReport cold_report;
  ASSERT_TRUE(Ginja::Recover(store, config, layout, cold, &cold_report).ok());
  EXPECT_GT(cold_report.tail_segments_applied, 0u);
  EXPECT_GT(standby.report().tail_segments_applied, 0u);
  ExpectSameFiles(Files(*cold), Files(*standby.image()));
}

TEST(Standby, ResumedTailRunStopsAtAHole) {
  // Segment 2 of ts 7 never landed but segment 3 did (its PUT raced a
  // kill). Cold recovery applies 0..1 and stops at the hole, so a standby
  // resuming at segment 2 must apply nothing rather than jump to 3 — the
  // divergence that made BootstrapAppliesAckedTailSegmentsOfAKilledStream
  // flaky under load.
  std::map<std::uint32_t, std::vector<Listed<TailObjectId>>> segs;
  for (std::uint32_t seg : {0u, 1u, 3u}) {
    segs[seg] = {{TailObjectId{7, seg, 0, 100u * (seg + 1)}, 0}};
  }
  EXPECT_EQ(BuildTailSegmentItems(segs, 7, /*from_seg=*/0).size(), 2u);
  EXPECT_TRUE(BuildTailSegmentItems(segs, 7, /*from_seg=*/2).empty());
  // A fresh run still starts past a GC'd seg-prefix.
  segs.erase(0);
  segs.erase(1);
  const auto run = BuildTailSegmentItems(segs, 7, /*from_seg=*/0);
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0].name, (TailObjectId{7, 3, 0, 400}).Encode());
}

TEST(Standby, ExportsLagGaugesAndTailStages) {
  auto store = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  GinjaConfig config = SmallBatches();
  config.obs = std::make_shared<Observability>([] {
    TraceOptions t;
    t.enabled = true;
    return t;
  }());

  Primary primary(store, config, clock);
  StandbyReplica standby(store, config, clock, FastTail());
  ASSERT_TRUE(standby.Start().ok());
  for (int i = 0; i < 12; ++i) primary.Commit(i);
  primary.ginja->Drain();
  const auto last_ts = primary.ginja->cloud_view().LastAssignedWalTs();
  ASSERT_TRUE(last_ts.has_value());
  WaitCaughtUp(standby, *last_ts);
  primary.ginja->Stop();
  standby.Stop();

  const auto snapshot = standby.observability()->registry.Snapshot();
  const auto* lag = snapshot.Find("ginja_standby_lag_objects");
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->gauge, 0.0);
  ASSERT_NE(snapshot.Find("ginja_standby_lag_micros"), nullptr);
  const auto* applied = snapshot.Find("ginja_standby_objects_applied_total");
  ASSERT_NE(applied, nullptr);
  EXPECT_GT(applied->counter, 0u);
  ASSERT_NE(snapshot.Find("ginja_standby_resyncs_total"), nullptr);

  // The tail loop traced its fetch/apply spans into the new stages.
  const auto* fetch = snapshot.Find("ginja_stage_latency_us",
                                    {{"stage", "tail_fetch"}});
  const auto* apply = snapshot.Find("ginja_stage_latency_us",
                                    {{"stage", "tail_apply"}});
  ASSERT_NE(fetch, nullptr);
  ASSERT_NE(apply, nullptr);
  EXPECT_GT(fetch->hist.count, 0u);
  EXPECT_GT(apply->hist.count, 0u);
}

}  // namespace
}  // namespace ginja
