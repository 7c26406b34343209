#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>

#include "cloud/memory_store.h"
#include "common/rng.h"
#include "db/database.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"
#include "ginja/ginja.h"
#include "ginja/pitr.h"
#include "ginja/tail_apply.h"

namespace ginja {
namespace {

WalObjectId Wal(std::uint64_t ts, std::uint64_t max_lsn) {
  WalObjectId id;
  id.ts = ts;
  id.filename = "pg_xlog/0001";
  id.max_lsn = max_lsn;
  return id;
}

DbObjectId Db(std::uint64_t seq, std::uint64_t ts, DbObjectType type,
              std::uint64_t redo_lsn) {
  DbObjectId id;
  id.seq = seq;
  id.ts = ts;
  id.type = type;
  id.redo_lsn = redo_lsn;
  return id;
}

TEST(RetentionPolicy, EmptyPolicyKeepsNothing) {
  RetentionPolicy policy;
  EXPECT_TRUE(policy.Empty());
  EXPECT_TRUE(policy.KeepSet({Wal(0, 100)}, {}).empty());
}

TEST(RetentionPolicy, KeepsDumpCheckpointsAndNeededWal) {
  // Timeline: dump(seq0, ts=2, redo=200), wal ts 0..6 covering lsn (i+1)*100,
  // checkpoint(seq1, ts=4, redo=450), protected point T=5.
  RetentionPolicy policy;
  policy.Protect(5);

  std::vector<WalObjectId> wal;
  for (std::uint64_t i = 0; i < 7; ++i) wal.push_back(Wal(i, (i + 1) * 100));
  std::vector<DbObjectId> db = {
      Db(0, 2, DbObjectType::kDump, 200),
      Db(1, 4, DbObjectType::kCheckpoint, 450),
  };
  const auto keep = policy.KeepSet(wal, db);

  // Both DB objects are kept (dump before T, checkpoint between dump and T).
  EXPECT_TRUE(keep.count(db[0].Encode()));
  EXPECT_TRUE(keep.count(db[1].Encode()));
  // WAL objects <= T with max_lsn > 450: ts 4 (lsn 500) and ts 5 (lsn 600).
  EXPECT_FALSE(keep.count(wal[3].Encode()));  // lsn 400 <= redo 450
  EXPECT_TRUE(keep.count(wal[4].Encode()));
  EXPECT_TRUE(keep.count(wal[5].Encode()));
  // Objects after T are not this point's business.
  EXPECT_FALSE(keep.count(wal[6].Encode()));
}

TEST(RetentionPolicy, LaterObjectsNotKeptForEarlierPoint) {
  RetentionPolicy policy;
  policy.Protect(1);
  std::vector<DbObjectId> db = {
      Db(0, 0, DbObjectType::kDump, 0),
      Db(1, 5, DbObjectType::kDump, 700),  // newer than the point
  };
  const auto keep = policy.KeepSet({}, db);
  EXPECT_TRUE(keep.count(db[0].Encode()));
  EXPECT_FALSE(keep.count(db[1].Encode()));
}

TEST(RetentionPolicy, ReleaseDropsPoint) {
  RetentionPolicy policy;
  policy.Protect(3);
  policy.Protect(9);
  EXPECT_EQ(policy.ProtectedTs().size(), 2u);
  policy.Release(3);
  EXPECT_EQ(policy.ProtectedTs(), std::vector<std::uint64_t>{9});
}

TEST(RetentionPolicy, MultiplePointsUnionKeepSets) {
  RetentionPolicy policy;
  policy.Protect(2);
  policy.Protect(6);
  std::vector<WalObjectId> wal;
  for (std::uint64_t i = 0; i < 8; ++i) wal.push_back(Wal(i, (i + 1) * 100));
  std::vector<DbObjectId> db = {
      Db(0, 1, DbObjectType::kDump, 100),
      Db(1, 5, DbObjectType::kDump, 550),
  };
  const auto keep = policy.KeepSet(wal, db);
  EXPECT_TRUE(keep.count(db[0].Encode()));  // dump for point 2
  EXPECT_TRUE(keep.count(db[1].Encode()));  // dump for point 6
  EXPECT_TRUE(keep.count(wal[1].Encode())); // lsn 200 > redo 100, ts<=2
  EXPECT_TRUE(keep.count(wal[2].Encode()));
  EXPECT_TRUE(keep.count(wal[5].Encode())); // lsn 600 > redo 550, ts<=6
  EXPECT_FALSE(keep.count(wal[4].Encode())); // lsn 500 <= 550 and > point 2
}

DbObjectId Part(DbObjectId id, std::uint32_t part, std::uint32_t total) {
  id.part = part;
  id.total_parts = total;
  return id;
}

std::vector<ObjectMeta> Listing(const std::vector<WalObjectId>& wal,
                                const std::vector<DbObjectId>& db) {
  std::vector<ObjectMeta> out;
  for (const auto& id : wal) out.push_back({id.Encode(), 0});
  for (const auto& id : db) out.push_back({id.Encode(), 0});
  return out;
}

// Every object a restore to `point` reads, as the recovery planner sees it.
std::set<std::string> PlannedNames(const std::vector<ObjectMeta>& listing,
                                   std::uint64_t point) {
  std::set<std::string> names;
  for (const auto& item : BuildTailPlan(listing, point).items) {
    names.insert(item.name);
    names.insert(item.fallbacks.begin(), item.fallbacks.end());
  }
  return names;
}

TEST(RetentionPolicy, TornCheckpointBeforePointKeepsWhatItsRestoreReads) {
  // A complete dump, WAL ts 0..5, and a checkpoint at the point whose
  // second part never landed. Recovery to 5 skips the torn set and replays
  // all six WAL objects from the dump, so all six must survive GC.
  RetentionPolicy policy;
  policy.Protect(5);
  std::vector<WalObjectId> wal;
  for (std::uint64_t i = 0; i < 6; ++i) wal.push_back(Wal(i, (i + 1) * 100));
  const DbObjectId dump = Db(0, 0, DbObjectType::kDump, 0);
  const DbObjectId torn =
      Part(Db(1, 5, DbObjectType::kCheckpoint, 600), 0, 2);
  const auto keep = policy.KeepSet(wal, {dump, torn});

  const auto planned = PlannedNames(Listing(wal, {dump, torn}), 5);
  ASSERT_EQ(planned.size(), 7u);  // the dump + six WAL objects
  for (const auto& name : planned) EXPECT_TRUE(keep.count(name)) << name;
  EXPECT_FALSE(keep.count(torn.Encode()));
}

TEST(RetentionPolicy, TornDumpBeforePointKeepsWhatItsRestoreReads) {
  // The dump twin: a torn newer dump must not displace the complete one
  // that a restore to 5 actually starts from.
  RetentionPolicy policy;
  policy.Protect(5);
  std::vector<WalObjectId> wal;
  for (std::uint64_t i = 0; i < 6; ++i) wal.push_back(Wal(i, (i + 1) * 100));
  const DbObjectId dump = Db(0, 0, DbObjectType::kDump, 0);
  const DbObjectId torn = Part(Db(1, 3, DbObjectType::kDump, 400), 1, 2);
  const auto keep = policy.KeepSet(wal, {dump, torn});

  const auto planned = PlannedNames(Listing(wal, {dump, torn}), 5);
  ASSERT_EQ(planned.size(), 7u);
  EXPECT_TRUE(planned.count(dump.Encode()));
  for (const auto& name : planned) EXPECT_TRUE(keep.count(name)) << name;
  EXPECT_FALSE(keep.count(torn.Encode()));
}

TEST(RetentionPolicy, KeepsTheTailSegmentsAndReplicasARestoreReads) {
  // WAL ts 0..2, then a streamed ts 3 that never finished: its acked
  // segments 0 and 1 (two replicas each) are what a restore to 4 applies
  // after ts 2 — keep every replica; segment 3 follows a hole and is not
  // read.
  RetentionPolicy policy;
  policy.Protect(4);
  std::vector<WalObjectId> wal;
  for (std::uint64_t i = 0; i < 3; ++i) wal.push_back(Wal(i, (i + 1) * 100));
  wal.push_back(Wal(4, 500));
  std::vector<TailObjectId> tails;
  for (std::uint32_t seg : {0u, 1u, 3u}) {
    for (std::uint32_t replica = 0; replica < 2; ++replica) {
      tails.push_back({3, seg, replica, 310 + seg * 10});
    }
  }
  const auto keep = policy.KeepSet(wal, {Db(0, 0, DbObjectType::kDump, 0)}, tails);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_TRUE(keep.count(tails[k].Encode())) << k;
  EXPECT_FALSE(keep.count(tails[4].Encode()));
  EXPECT_FALSE(keep.count(tails[5].Encode()));
  EXPECT_FALSE(keep.count(wal[3].Encode()));  // past the gap at ts 3
}

TEST(RetentionPolicy, SeededListingsKeepEveryPlannedObject) {
  // Random buckets: WAL runs with holes, complete and torn dumps,
  // manifests and checkpoints (ts non-decreasing in seq, as one primary
  // writes them), several protected points. For each point the keep set
  // holds every object its restore plan reads, and pruning everything
  // outside the keep set leaves that plan unchanged.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SplitMix64 rng(seed);
    const std::uint64_t wal_count = 4 + rng.NextBelow(12);
    std::vector<WalObjectId> wal;
    for (std::uint64_t ts = 0; ts < wal_count; ++ts) {
      if (rng.NextBelow(8) != 0) wal.push_back(Wal(ts, (ts + 1) * 100));
    }
    std::vector<DbObjectId> db;
    std::uint64_t ts = 0;
    const std::uint64_t sets = 1 + rng.NextBelow(5);
    for (std::uint64_t seq = 0; seq < sets; ++seq) {
      ts = std::min(wal_count - 1, ts + rng.NextBelow(4));
      const std::uint64_t kind = rng.NextBelow(8);
      const DbObjectType type = seq == 0 || kind < 2 ? DbObjectType::kDump
                                : kind == 2          ? DbObjectType::kManifest
                                                     : DbObjectType::kCheckpoint;
      const std::uint32_t total =
          type == DbObjectType::kManifest
              ? 1
              : static_cast<std::uint32_t>(1 + rng.NextBelow(3));
      const bool torn = total > 1 && rng.NextBelow(3) == 0;
      const std::uint32_t dropped =
          static_cast<std::uint32_t>(rng.NextBelow(total));
      const DbObjectId set = Db(seq, ts, type, (ts + 1) * 100 + rng.NextBelow(50));
      for (std::uint32_t part = 0; part < total; ++part) {
        if (torn && part == dropped) continue;
        db.push_back(Part(set, part, total));
      }
    }
    RetentionPolicy policy;
    std::vector<std::uint64_t> points;
    for (int k = 0; k < 3; ++k) {
      points.push_back(rng.NextBelow(wal_count));
      policy.Protect(points.back());
    }

    const auto keep = policy.KeepSet(wal, db);
    const auto listing = Listing(wal, db);
    std::vector<ObjectMeta> pruned;
    for (const auto& meta : listing) {
      if (keep.count(meta.name)) pruned.push_back(meta);
    }
    for (const std::uint64_t point : points) {
      const auto planned = PlannedNames(listing, point);
      for (const auto& name : planned) {
        EXPECT_TRUE(keep.count(name)) << "seed " << seed << " point " << point
                                      << ": " << name;
      }
      EXPECT_EQ(PlannedNames(pruned, point), planned)
          << "seed " << seed << " point " << point;
    }
  }
}

// -- end to end: selective retention with GC enabled -------------------------

struct PitrHarness {
  std::shared_ptr<RealClock> clock = std::make_shared<RealClock>();
  std::shared_ptr<MemFs> local = std::make_shared<MemFs>();
  std::shared_ptr<InterceptFs> intercept;
  std::shared_ptr<MemoryStore> store = std::make_shared<MemoryStore>();
  std::unique_ptr<Database> db;
  std::unique_ptr<Ginja> ginja;
  GinjaConfig config;

  PitrHarness() {
    config.batch = 4;
    config.safety = 64;
    config.batch_timeout_us = 20'000;
    intercept = std::make_shared<InterceptFs>(local, clock);
    db = std::make_unique<Database>(intercept, DbLayout::Postgres());
    EXPECT_TRUE(db->Create().ok());
    EXPECT_TRUE(db->CreateTable("t").ok());
    ginja = std::make_unique<Ginja>(local, store, clock, DbLayout::Postgres(),
                                    config);
    EXPECT_TRUE(ginja->Boot().ok());
    intercept->SetListener(ginja.get());
  }

  void PutN(int from, int to, const std::string& value) {
    for (int i = from; i < to; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(db->Put(txn, "t", "k" + std::to_string(i), ToBytes(value)).ok());
      ASSERT_TRUE(db->Commit(txn).ok());
    }
  }
};

TEST(PitrEndToEnd, SnapshotSurvivesGcAndRestores) {
  PitrHarness h;
  h.PutN(0, 30, "phase-1");
  const auto snapshot = h.ginja->ProtectCurrentState();
  ASSERT_TRUE(snapshot.has_value());

  // Later phases overwrite everything, with checkpoints whose GC would
  // normally delete the phase-1 WAL objects.
  h.PutN(0, 30, "phase-2");
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  h.PutN(0, 30, "phase-3");
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Stop();

  // Current-state recovery sees phase 3.
  {
    auto machine = std::make_shared<MemFs>();
    ASSERT_TRUE(
        Ginja::Recover(h.store, h.config, DbLayout::Postgres(), machine).ok());
    Database latest(machine, DbLayout::Postgres());
    ASSERT_TRUE(latest.Open().ok());
    EXPECT_EQ(ToString(View(*latest.Get("t", "k0"))), "phase-3");
  }

  // PITR to the snapshot sees phase 1, even though GC ran twice since.
  auto machine = std::make_shared<MemFs>();
  ASSERT_TRUE(Ginja::Recover(h.store, h.config, DbLayout::Postgres(), machine,
                             nullptr, *snapshot)
                  .ok());
  Database rewound(machine, DbLayout::Postgres());
  ASSERT_TRUE(rewound.Open().ok());
  for (int i = 0; i < 30; ++i) {
    auto v = rewound.Get("t", "k" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(ToString(View(*v)), "phase-1") << i;
  }
}

TEST(PitrEndToEnd, UnprotectedHistoryIsPruned) {
  PitrHarness h;
  h.PutN(0, 20, "old");
  h.ginja->Drain();
  const std::size_t wal_before = h.ginja->cloud_view().WalCount();
  ASSERT_GT(wal_before, 0u);

  // No protection: the checkpoint's GC removes the replicated WAL prefix.
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  EXPECT_LT(h.ginja->cloud_view().WalCount(), wal_before);
  h.ginja->Stop();
}

TEST(PitrEndToEnd, RestorePointsListSnapshots) {
  PitrHarness h;
  h.PutN(0, 10, "v");
  const auto snapshot = h.ginja->ProtectCurrentState();
  ASSERT_TRUE(snapshot.has_value());
  h.PutN(10, 20, "v");
  h.ginja->Drain();

  const auto points = h.ginja->RestorePoints();
  ASSERT_FALSE(points.empty());
  bool found_snapshot = false;
  for (const auto& p : points) {
    if (p.ts == *snapshot) {
      EXPECT_TRUE(p.is_snapshot);
      found_snapshot = true;
    }
  }
  EXPECT_TRUE(found_snapshot);
  h.ginja->Stop();
}

TEST(PitrEndToEnd, ReleasedSnapshotGetsCollected) {
  PitrHarness h;
  h.PutN(0, 20, "phase-1");
  const auto snapshot = h.ginja->ProtectCurrentState();
  ASSERT_TRUE(snapshot.has_value());
  h.PutN(0, 20, "phase-2");
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  const std::size_t kept = h.ginja->cloud_view().WalCount();

  // Drop the snapshot; the next checkpoint's GC reclaims its objects.
  h.ginja->retention().Release(*snapshot);
  h.PutN(0, 5, "phase-3");
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  EXPECT_LT(h.ginja->cloud_view().WalCount(), kept);
  h.ginja->Stop();
}

// Forwards to an inner store; while `tear` is set, every PUT of a DB
// object's second part fails (non-retryably), leaving a torn part set.
class TornPartStore : public ObjectStore {
 public:
  explicit TornPartStore(ObjectStorePtr inner) : inner_(std::move(inner)) {}
  Status Put(std::string_view name, ByteView data) override {
    if (tear && name.starts_with("DB/") &&
        name.find("_p1of") != std::string_view::npos) {
      return Status::InvalidArgument("injected: torn checkpoint part");
    }
    return inner_->Put(name, data);
  }
  Result<Bytes> Get(std::string_view name) override { return inner_->Get(name); }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix,
                                       std::string_view start_after) override {
    return inner_->List(prefix, start_after);
  }
  Status Delete(std::string_view name) override { return inner_->Delete(name); }

  std::atomic<bool> tear{false};

 private:
  ObjectStorePtr inner_;
};

TEST(PitrEndToEnd, TornCheckpointAfterRebootKeepsTheProtectedPoint) {
  // A checkpoint taken right after the snapshot tears (part 1 never
  // lands). A reboot re-lists the torn set; after re-protecting the point,
  // the next checkpoint's GC must still keep the WAL the restore replays.
  PitrHarness h;
  auto store = std::make_shared<TornPartStore>(std::make_shared<MemoryStore>());
  GinjaConfig config = h.config;
  config.max_object_bytes = 2048;  // multi-part checkpoints
  h.intercept->SetListener(nullptr);
  h.ginja->Stop();
  auto ginja = std::make_unique<Ginja>(h.local, store, h.clock,
                                       DbLayout::Postgres(), config);
  ASSERT_TRUE(ginja->Boot().ok());
  h.intercept->SetListener(ginja.get());

  h.PutN(0, 30, "phase-1");
  const auto snapshot = ginja->ProtectCurrentState();
  ASSERT_TRUE(snapshot.has_value());
  store->tear = true;
  ASSERT_TRUE(h.db->Checkpoint().ok());
  ginja->Drain();
  store->tear = false;
  h.intercept->SetListener(nullptr);
  ginja->Stop();

  auto rebooted = std::make_unique<Ginja>(h.local, store, h.clock,
                                          DbLayout::Postgres(), config);
  ASSERT_TRUE(rebooted->Reboot().ok());
  h.intercept->SetListener(rebooted.get());
  rebooted->retention().Protect(*snapshot);
  h.PutN(0, 30, "phase-2");
  ASSERT_TRUE(h.db->Checkpoint().ok());
  rebooted->Drain();
  h.intercept->SetListener(nullptr);
  rebooted->Stop();

  auto machine = std::make_shared<MemFs>();
  ASSERT_TRUE(Ginja::Recover(store, config, DbLayout::Postgres(), machine,
                             nullptr, *snapshot)
                  .ok());
  Database rewound(machine, DbLayout::Postgres());
  ASSERT_TRUE(rewound.Open().ok());
  for (int i = 0; i < 30; ++i) {
    auto v = rewound.Get("t", "k" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(ToString(View(*v)), "phase-1") << i;
  }
}

}  // namespace
}  // namespace ginja
