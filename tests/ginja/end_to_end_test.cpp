// End-to-end tests: DBMS engine + InterceptFs + Ginja + simulated cloud.
// These exercise the paper's central claims: every acknowledged state can
// be rebuilt from the cloud alone, and a disaster loses at most S updates.
#include <gtest/gtest.h>

#include "cloud/faulty_store.h"
#include "cloud/memory_store.h"
#include "cloud/replicated_store.h"
#include "cloud/s3/s3_client.h"
#include "cloud/s3/s3_server.h"
#include "db/database.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"
#include "ginja/ginja.h"
#include "ginja/verifier.h"

namespace ginja {
namespace {

struct Harness {
  DbLayout layout;
  std::shared_ptr<RealClock> clock = std::make_shared<RealClock>();
  std::shared_ptr<MemFs> local = std::make_shared<MemFs>();
  std::shared_ptr<InterceptFs> intercept;
  ObjectStorePtr store;
  std::unique_ptr<Database> db;
  std::unique_ptr<Ginja> ginja;

  explicit Harness(DbFlavor flavor, GinjaConfig config = FastConfig(),
                   ObjectStorePtr custom_store = nullptr,
                   DbOptions db_options = {})
      : layout(flavor == DbFlavor::kPostgres ? DbLayout::Postgres()
                                             : DbLayout::MySql()),
        store(custom_store ? custom_store : std::make_shared<MemoryStore>()) {
    intercept = std::make_shared<InterceptFs>(local, clock);
    db = std::make_unique<Database>(intercept, layout, db_options);
    EXPECT_TRUE(db->Create().ok());
    EXPECT_TRUE(db->CreateTable("t").ok());
    ginja = std::make_unique<Ginja>(local, store, clock, layout, config);
    EXPECT_TRUE(ginja->Boot().ok());
    intercept->SetListener(ginja.get());
  }

  static GinjaConfig FastConfig() {
    GinjaConfig config;
    config.batch = 4;
    config.safety = 64;
    config.batch_timeout_us = 20'000;
    config.safety_timeout_us = 10'000'000;
    config.uploader_threads = 3;
    config.retry_backoff_us = 2'000;
    return config;
  }

  Status PutOne(int i) {
    auto txn = db->Begin();
    GINJA_RETURN_IF_ERROR(db->Put(txn, "t", "k" + std::to_string(i),
                                  ToBytes("value-" + std::to_string(i))));
    return db->Commit(txn);
  }

  // Recovers from the cloud into a fresh machine and reopens the engine.
  std::unique_ptr<Database> RecoverFresh(RecoveryReport* report = nullptr,
                                         GinjaConfig config = FastConfig()) {
    auto fresh = std::make_shared<MemFs>();
    Status st = Ginja::Recover(store, config, layout, fresh, report);
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto recovered = std::make_unique<Database>(fresh, layout);
    Status open = recovered->Open();
    EXPECT_TRUE(open.ok()) << open.ToString();
    return recovered;
  }
};

class EndToEnd : public ::testing::TestWithParam<DbFlavor> {};

TEST_P(EndToEnd, BootUploadsDump) {
  Harness h(GetParam());
  auto objects = h.store->List("DB/");
  ASSERT_TRUE(objects.ok());
  EXPECT_GE(objects->size(), 1u);
  // The dump alone is enough to rebuild an (empty-table) database.
  auto recovered = h.RecoverFresh();
  EXPECT_TRUE(recovered->HasTable("t"));
  EXPECT_EQ(recovered->RowCount("t"), 0u);
  h.ginja->Stop();
}

TEST_P(EndToEnd, AllAcknowledgedUpdatesRecoverAfterDrain) {
  Harness h(GetParam());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  h.ginja->Stop();  // drains: everything is in the cloud

  RecoveryReport report;
  auto recovered = h.RecoverFresh(&report);
  EXPECT_TRUE(report.found_dump);
  EXPECT_FALSE(report.gap_detected);
  for (int i = 0; i < 100; ++i) {
    auto v = recovered->Get("t", "k" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << "k" << i;
    EXPECT_EQ(ToString(View(*v)), "value-" + std::to_string(i));
  }
}

TEST_P(EndToEnd, CrashLosesAtMostSafetyUpdates) {
  GinjaConfig config = Harness::FastConfig();
  config.batch = 2;
  config.safety = 10;
  auto faulty_inner = std::make_shared<MemoryStore>();
  auto faulty = std::make_shared<FaultyStore>(faulty_inner);
  Harness h(GetParam(), config, faulty);

  for (int i = 0; i < 50; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  h.ginja->Drain();
  // Cloud outage begins; commits continue until Safety blocks the DBMS.
  faulty->SetAvailable(false);
  std::atomic<int> committed_during_outage{50};
  std::thread writer([&] {
    for (int i = 50; i < 100; ++i) {
      if (!h.PutOne(i).ok()) break;
      committed_during_outage = i + 1;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const int committed = committed_during_outage.load();
  // Disaster strikes: primary site dies with uploads still pending. The
  // cloud itself comes back (the outage was on the path, not the bucket).
  h.ginja->Kill();
  writer.join();
  faulty->SetAvailable(true);

  auto recovered = h.RecoverFresh();
  int last_present = -1;
  for (int i = 0; i < committed; ++i) {
    if (recovered->Get("t", "k" + std::to_string(i)).has_value()) {
      last_present = i;
    } else {
      break;
    }
  }
  // Everything up to the last uploaded batch is there; the tail lost is at
  // most S plus the one write blocked in flight.
  const int lost = committed - (last_present + 1);
  EXPECT_LE(lost, static_cast<int>(config.safety) + 1);
  // And recovery yields a *prefix*: nothing after the first missing key.
  for (int i = last_present + 1; i < committed; ++i) {
    EXPECT_FALSE(recovered->Get("t", "k" + std::to_string(i)).has_value()) << i;
  }
}

TEST_P(EndToEnd, CheckpointTriggersWalGarbageCollection) {
  Harness h(GetParam());
  for (int i = 0; i < 60; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  h.ginja->Drain();
  const std::size_t wal_before = h.ginja->cloud_view().WalCount();
  ASSERT_GT(wal_before, 0u);

  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  EXPECT_GT(h.ginja->checkpoint_stats().db_objects_uploaded.Get(), 0u);
  EXPECT_GT(h.ginja->checkpoint_stats().wal_objects_deleted.Get(), 0u);
  EXPECT_LT(h.ginja->cloud_view().WalCount(), wal_before);
  h.ginja->Stop();

  // GC must never break recoverability.
  auto recovered = h.RecoverFresh();
  EXPECT_EQ(recovered->RowCount("t"), 60u);
}

TEST_P(EndToEnd, UpdatesAfterCheckpointAlsoRecover) {
  Harness h(GetParam());
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  ASSERT_TRUE(h.db->Checkpoint().ok());
  for (int i = 30; i < 60; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  h.ginja->Stop();
  auto recovered = h.RecoverFresh();
  EXPECT_EQ(recovered->RowCount("t"), 60u);
}

TEST_P(EndToEnd, RepeatedCheckpointsEventuallyDump) {
  Harness h(GetParam());
  std::uint64_t dumps_before = h.ginja->checkpoint_stats().dumps_uploaded.Get();
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(h.PutOne(round * 10 + i).ok());
    ASSERT_TRUE(h.db->Checkpoint().ok());
    h.ginja->Drain();
  }
  // Incremental checkpoints accumulate until the 150% rule forces a dump.
  EXPECT_GT(h.ginja->checkpoint_stats().dumps_uploaded.Get(), dumps_before);
  h.ginja->Stop();
  auto recovered = h.RecoverFresh();
  EXPECT_EQ(recovered->RowCount("t"), 120u);
}

TEST_P(EndToEnd, RebootResumesFromCloudListing) {
  Harness h(GetParam());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  h.ginja->Stop();  // clean stop: cloud in sync with local

  // Restart Ginja in Reboot mode on the same machine.
  auto ginja2 = std::make_unique<Ginja>(h.local, h.store, h.clock, h.layout,
                                        Harness::FastConfig());
  ASSERT_TRUE(ginja2->Reboot().ok());
  EXPECT_GT(ginja2->cloud_view().WalCount() + ginja2->cloud_view().DbCount(), 0u);
  h.intercept->SetListener(ginja2.get());
  for (int i = 20; i < 40; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  ginja2->Stop();

  auto recovered = h.RecoverFresh();
  EXPECT_EQ(recovered->RowCount("t"), 40u);
}

TEST_P(EndToEnd, CompressionAndEncryptionEndToEnd) {
  GinjaConfig config = Harness::FastConfig();
  config.envelope.compress = true;
  config.envelope.encrypt = true;
  config.envelope.password = "s3cret";
  Harness h(GetParam(), config);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  h.ginja->Stop();

  // Correct password recovers; wrong password fails every MAC.
  RecoveryReport report;
  auto recovered = h.RecoverFresh(&report, config);
  EXPECT_EQ(recovered->RowCount("t"), 40u);

  GinjaConfig wrong = config;
  wrong.envelope.password = "wrong";
  auto fresh = std::make_shared<MemFs>();
  Status st = Ginja::Recover(h.store, wrong, h.layout, fresh);
  EXPECT_FALSE(st.ok());
}

TEST_P(EndToEnd, VerifyBackupReportsHealthy) {
  Harness h(GetParam());
  for (int i = 0; i < 25; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  h.ginja->Stop();

  const auto report = VerifyBackup(
      h.store, Harness::FastConfig(), h.layout, [](Database& db) {
        return db.RowCount("t") == 25 && db.Get("t", "k24").has_value();
      });
  EXPECT_TRUE(report.Ok()) << report.detail;
  EXPECT_TRUE(report.recovery.found_dump);
}

TEST_P(EndToEnd, VerifyBackupCatchesTampering) {
  Harness h(GetParam());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  h.ginja->Stop();

  // Tamper with the dump object in the cloud.
  auto objects = h.store->List("DB/");
  ASSERT_TRUE(objects.ok());
  ASSERT_FALSE(objects->empty());
  auto blob = h.store->Get((*objects)[0].name);
  ASSERT_TRUE(blob.ok());
  (*blob)[blob->size() / 2] ^= 0xFF;
  ASSERT_TRUE(h.store->Put((*objects)[0].name, View(*blob)).ok());

  const auto report = VerifyBackup(h.store, Harness::FastConfig(), h.layout);
  EXPECT_FALSE(report.Ok());
  EXPECT_FALSE(report.objects_valid);
}

TEST_P(EndToEnd, MultiCloudSurvivesProviderOutage) {
  auto provider_a = std::make_shared<MemoryStore>();
  auto provider_b_inner = std::make_shared<MemoryStore>();
  auto provider_b = std::make_shared<FaultyStore>(provider_b_inner);
  auto replicated = std::make_shared<ReplicatedStore>(
      std::vector<ObjectStorePtr>{provider_a, provider_b});

  Harness h(GetParam(), Harness::FastConfig(), replicated);
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  h.ginja->Stop();

  // Provider B suffers a total outage; recovery proceeds from A alone.
  provider_b->SetAvailable(false);
  auto fresh = std::make_shared<MemFs>();
  RecoveryReport report;
  ASSERT_TRUE(Ginja::Recover(replicated, Harness::FastConfig(), h.layout,
                             fresh, &report)
                  .ok());
  Database recovered(fresh, h.layout);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.RowCount("t"), 30u);
}

TEST_P(EndToEnd, PointInTimeRecovery) {
  const GinjaConfig config = Harness::FastConfig();
  Harness h(GetParam(), config);
  h.ginja->retention().KeepEveryPoint();  // §5.4: GC keeps superseded objects

  for (int i = 0; i < 20; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  h.ginja->Drain();
  const std::uint64_t snapshot_ts =
      h.ginja->cloud_view().LastAssignedWalTs().value_or(0);

  // Ransomware strikes: garbage overwrites every row, checkpoints happen.
  for (int i = 0; i < 20; ++i) {
    auto txn = h.db->Begin();
    ASSERT_TRUE(h.db->Put(txn, "t", "k" + std::to_string(i),
                          ToBytes("ENCRYPTED-BY-RANSOMWARE"))
                    .ok());
    ASSERT_TRUE(h.db->Commit(txn).ok());
  }
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Stop();

  // Point-in-time recovery to the pre-attack timestamp.
  auto fresh = std::make_shared<MemFs>();
  RecoveryReport report;
  ASSERT_TRUE(
      Ginja::Recover(h.store, config, h.layout, fresh, &report, snapshot_ts).ok());
  Database recovered(fresh, h.layout);
  ASSERT_TRUE(recovered.Open().ok());
  for (int i = 0; i < 20; ++i) {
    auto v = recovered.Get("t", "k" + std::to_string(i));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(ToString(View(*v)), "value-" + std::to_string(i)) << i;
  }

  // A full (non-PITR) recovery sees the ransomware damage — showing the
  // snapshot really was the thing protecting the data.
  auto damaged = h.RecoverFresh(nullptr, config);
  EXPECT_EQ(ToString(View(*damaged->Get("t", "k0"))), "ENCRYPTED-BY-RANSOMWARE");
}

TEST_P(EndToEnd, DeletesReplicateToo) {
  Harness h(GetParam());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  auto txn = h.db->Begin();
  ASSERT_TRUE(h.db->Delete(txn, "t", "k3").ok());
  ASSERT_TRUE(h.db->Commit(txn).ok());
  h.ginja->Stop();
  auto recovered = h.RecoverFresh();
  EXPECT_EQ(recovered->RowCount("t"), 9u);
  EXPECT_FALSE(recovered->Get("t", "k3").has_value());
}

TEST_P(EndToEnd, NoLossModeIsFullySynchronous) {
  GinjaConfig config = GinjaConfig::NoLoss();  // S = B = 1 (paper Fig. 5)
  config.retry_backoff_us = 1'000;
  Harness h(GetParam(), config);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  // Crash immediately — with S=1 at most one in-flight write can be lost,
  // and since no write was pending after the loop, nothing is.
  h.ginja->Drain();
  h.ginja->Kill();
  auto recovered = h.RecoverFresh();
  EXPECT_EQ(recovered->RowCount("t"), 10u);
}

INSTANTIATE_TEST_SUITE_P(Flavors, EndToEnd,
                         ::testing::Values(DbFlavor::kPostgres, DbFlavor::kMySql),
                         [](const auto& info) {
                           return info.param == DbFlavor::kPostgres ? "postgres"
                                                                    : "mysql";
                         });

TEST(EndToEndMySql, FuzzyCheckpointsAreLsnSafe) {
  // The scenario that breaks ts-based GC: young pages stay dirty across a
  // fuzzy flush, so the redo point lags checkpoint-begin. The LSN rule must
  // keep every WAL object the redo needs.
  DbOptions db_options;
  db_options.fuzzy_batch_pages = 1;  // maximally fuzzy
  GinjaConfig config = Harness::FastConfig();
  config.batch = 1;
  Harness h(DbFlavor::kMySql, config, nullptr, db_options);

  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(h.PutOne(round * 8 + i).ok());
    ASSERT_TRUE(h.db->FuzzyFlush().ok());
    h.ginja->Drain();
  }
  h.ginja->Stop();
  auto recovered = h.RecoverFresh();
  EXPECT_EQ(recovered->RowCount("t"), 80u);
  for (int i = 0; i < 80; ++i) {
    EXPECT_TRUE(recovered->Get("t", "k" + std::to_string(i)).has_value()) << i;
  }
}

TEST(EndToEndS3, FullStackOverTheWireProtocol) {
  // The complete path of the paper's deployment: DBMS -> interception FS ->
  // Ginja -> SigV4-signed S3 REST -> bucket; then disaster and recovery
  // through the same wire protocol.
  auto backend = std::make_shared<MemoryStore>();
  auto server = std::make_shared<S3Server>(backend, "dr-bucket");
  auto s3 = std::make_shared<S3Client>(server, "dr-bucket");

  Harness h(DbFlavor::kPostgres, Harness::FastConfig(), s3);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(h.PutOne(i).ok());
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Stop();

  // Every byte in the bucket went through PUT requests with verified
  // signatures; recovery LISTs and GETs through the same client.
  EXPECT_GT(backend->ObjectCount(), 0u);
  EXPECT_EQ(server->rejected_requests(), 0u);
  auto recovered = h.RecoverFresh();
  EXPECT_EQ(recovered->RowCount("t"), 40u);
}

TEST(EndToEndRecovery, EmptyCloudYieldsNoDump) {
  auto store = std::make_shared<MemoryStore>();
  auto fresh = std::make_shared<MemFs>();
  RecoveryReport report;
  ASSERT_TRUE(Ginja::Recover(store, GinjaConfig{}, DbLayout::Postgres(), fresh,
                             &report)
                  .ok());
  EXPECT_FALSE(report.found_dump);
  Database db(fresh, DbLayout::Postgres());
  EXPECT_FALSE(db.Open().ok());  // nothing to open
}

}  // namespace
}  // namespace ginja
