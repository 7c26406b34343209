// Regression: recovery of a database whose WAL never left its first
// PostgreSQL segment. Boot used to name the segment's WAL object with the
// segment's capacity as max_lsn, so checkpoint GC kept that object while
// deleting the covered WAL objects after it, and recovery planned it and
// then stopped at the false ts gap — losing every transaction committed
// after the last checkpoint.
#include <gtest/gtest.h>

#include <map>

#include "cloud/memory_store.h"
#include "db/database.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"
#include "ginja/ginja.h"
#include "workload/tpcc.h"

namespace ginja {
namespace {

std::map<std::string, std::uint64_t> RowCounts(const Database& db) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& table : db.TableNames()) out[table] = db.RowCount(table);
  return out;
}

TEST(RecoveryFirstSegment, CheckpointsBeforeTheFirstSegmentFillsLoseNothing) {
  const DbLayout layout = DbLayout::Postgres();
  auto clock = std::make_shared<RealClock>();
  auto local = std::make_shared<MemFs>();
  auto intercept = std::make_shared<InterceptFs>(local, clock);
  Database db(intercept, layout);
  ASSERT_TRUE(db.Create().ok());
  TpccConfig tpcc_config;
  tpcc_config.scale = 50;
  TpccWorkload tpcc(&db, tpcc_config);
  ASSERT_TRUE(tpcc.Populate().ok());
  ASSERT_TRUE(db.Checkpoint().ok());

  auto store = std::make_shared<MemoryStore>();
  GinjaConfig config;
  config.envelope.compress = true;
  Ginja ginja(local, store, clock, layout, config);
  ASSERT_TRUE(ginja.Boot().ok());
  intercept->SetListener(&ginja);

  // One terminal; two checkpoints (each followed by GC) while the WAL is
  // still in its first segment, then transactions only the WAL holds.
  SplitMix64 rng(7);
  constexpr int kTxns = 600;
  constexpr int kCheckpointEvery = 200;
  for (int i = 1; i <= kTxns; ++i) {
    const Status st = tpcc.Execute(tpcc.PickType(rng), rng);
    ASSERT_TRUE(st.ok() || st.code() == ErrorCode::kAborted) << st.ToString();
    if (i % kCheckpointEvery == 0 && i < kTxns) {
      ASSERT_TRUE(db.Checkpoint().ok());
      ginja.Drain();
    }
  }
  ginja.Stop();  // drains: every commit is in the cloud
  intercept->SetListener(nullptr);
  ASSERT_LT(db.WalEndLsn(), layout.PagesPerSegment() * layout.WalPayloadSize());
  EXPECT_GT(ginja.checkpoint_stats().wal_objects_deleted.Get(), 0u);
  // The Boot object (ts 0) is covered by the first checkpoint, so GC took
  // it along with the objects after it.
  for (const auto& wal : ginja.cloud_view().WalObjects()) EXPECT_NE(wal.ts, 0u);

  auto target = std::make_shared<MemFs>();
  RecoveryReport report;
  ASSERT_TRUE(Ginja::Recover(store, config, layout, target, &report).ok());
  EXPECT_FALSE(report.gap_detected);
  Database recovered(target, layout);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(RowCounts(recovered), RowCounts(db));
}

}  // namespace
}  // namespace ginja
