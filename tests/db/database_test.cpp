#include <gtest/gtest.h>

#include "db/database.h"
#include "fs/mem_fs.h"

namespace ginja {
namespace {

// Fails reads that reach byte `from_offset` of `path` with IoError, as a
// LocalFs pread failure would; every other call goes to the MemFs.
class FailingReadFs : public Vfs {
 public:
  FailingReadFs(std::shared_ptr<MemFs> inner, std::string path,
                std::uint64_t from_offset)
      : inner_(std::move(inner)), path_(std::move(path)), from_offset_(from_offset) {}

  Status Write(std::string_view p, std::uint64_t o, ByteView d, bool sync) override {
    return inner_->Write(p, o, d, sync);
  }
  Result<Bytes> Read(std::string_view p, std::uint64_t o, std::uint64_t s) override {
    if (p == path_ && o + s > from_offset_) return Status::IoError("injected pread");
    return inner_->Read(p, o, s);
  }
  Result<Bytes> ReadAll(std::string_view p) override {
    if (p == path_) return Status::IoError("injected pread");
    return inner_->ReadAll(p);
  }
  Result<std::uint64_t> FileSize(std::string_view p) override { return inner_->FileSize(p); }
  bool Exists(std::string_view p) override { return inner_->Exists(p); }
  Status Truncate(std::string_view p, std::uint64_t size) override {
    return inner_->Truncate(p, size);
  }
  Status Remove(std::string_view p) override { return inner_->Remove(p); }
  Result<std::vector<std::string>> ListFiles(std::string_view prefix) override {
    return inner_->ListFiles(prefix);
  }

 private:
  std::shared_ptr<MemFs> inner_;
  std::string path_;
  std::uint64_t from_offset_;
};

class DatabaseTest : public ::testing::TestWithParam<DbFlavor> {
 protected:
  DbLayout Layout() const {
    return GetParam() == DbFlavor::kPostgres ? DbLayout::Postgres()
                                             : DbLayout::MySql();
  }

  std::unique_ptr<Database> Fresh(std::shared_ptr<MemFs> fs,
                                  DbOptions options = {}) {
    auto db = std::make_unique<Database>(fs, Layout(), options);
    EXPECT_TRUE(db->Create().ok());
    EXPECT_TRUE(db->CreateTable("t").ok());
    return db;
  }

  Status PutOne(Database& db, const std::string& key, const std::string& val) {
    auto txn = db.Begin();
    GINJA_RETURN_IF_ERROR(db.Put(txn, "t", key, ToBytes(val)));
    return db.Commit(txn);
  }
};

TEST_P(DatabaseTest, CommitAndGet) {
  auto fs = std::make_shared<MemFs>();
  auto db = Fresh(fs);
  ASSERT_TRUE(PutOne(*db, "k", "v").ok());
  ASSERT_TRUE(db->Get("t", "k").has_value());
  EXPECT_EQ(ToString(View(*db->Get("t", "k"))), "v");
  EXPECT_EQ(db->CommittedTxns(), 1u);
}

TEST_P(DatabaseTest, ReadOnlyTxnIsFree) {
  auto fs = std::make_shared<MemFs>();
  auto db = Fresh(fs);
  const Lsn before = db->WalEndLsn();
  auto txn = db->Begin();
  ASSERT_TRUE(db->Commit(txn).ok());
  EXPECT_EQ(db->WalEndLsn(), before);
}

TEST_P(DatabaseTest, CrashRecoveryWithoutCheckpoint) {
  auto fs = std::make_shared<MemFs>();
  {
    auto db = Fresh(fs);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(PutOne(*db, "k" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    // Crash: no clean shutdown, just drop the engine.
  }
  Database recovered(fs, Layout());
  ASSERT_TRUE(recovered.Open().ok());
  for (int i = 0; i < 50; ++i) {
    auto v = recovered.Get("t", "k" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(ToString(View(*v)), "v" + std::to_string(i));
  }
}

TEST_P(DatabaseTest, CrashRecoveryAfterCheckpoint) {
  auto fs = std::make_shared<MemFs>();
  {
    auto db = Fresh(fs);
    for (int i = 0; i < 30; ++i) ASSERT_TRUE(PutOne(*db, "a" + std::to_string(i), "1").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 0; i < 30; ++i) ASSERT_TRUE(PutOne(*db, "b" + std::to_string(i), "2").ok());
  }
  Database recovered(fs, Layout());
  ASSERT_TRUE(recovered.Open().ok());
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(recovered.Get("t", "a" + std::to_string(i)).has_value());
    EXPECT_TRUE(recovered.Get("t", "b" + std::to_string(i)).has_value());
  }
  EXPECT_GT(recovered.CheckpointLsn(), 0u);
}

TEST_P(DatabaseTest, MultiOpTransactionIsAtomicOnRecovery) {
  auto fs = std::make_shared<MemFs>();
  {
    auto db = Fresh(fs);
    auto txn = db->Begin();
    ASSERT_TRUE(db->Put(txn, "t", "x", ToBytes("1")).ok());
    ASSERT_TRUE(db->Put(txn, "t", "y", ToBytes("2")).ok());
    ASSERT_TRUE(db->Put(txn, "t", "z", ToBytes("3")).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  Database recovered(fs, Layout());
  ASSERT_TRUE(recovered.Open().ok());
  const bool x = recovered.Get("t", "x").has_value();
  const bool y = recovered.Get("t", "y").has_value();
  const bool z = recovered.Get("t", "z").has_value();
  EXPECT_TRUE(x && y && z);  // all-or-nothing, and it committed
}

TEST_P(DatabaseTest, DeletesSurviveRecovery) {
  auto fs = std::make_shared<MemFs>();
  {
    auto db = Fresh(fs);
    ASSERT_TRUE(PutOne(*db, "gone", "x").ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // row reaches the table file
    auto txn = db->Begin();
    ASSERT_TRUE(db->Delete(txn, "t", "gone").ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }
  Database recovered(fs, Layout());
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_FALSE(recovered.Get("t", "gone").has_value());
}

TEST_P(DatabaseTest, CleanShutdownAndReopen) {
  auto fs = std::make_shared<MemFs>();
  {
    auto db = Fresh(fs);
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(PutOne(*db, "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(db->CleanShutdown().ok());
  }
  Database reopened(fs, Layout());
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.RowCount("t"), 20u);
  // A clean shutdown leaves nothing to redo: checkpoint == WAL end.
  EXPECT_EQ(reopened.CheckpointLsn(), reopened.WalEndLsn());
}

TEST_P(DatabaseTest, AutoCheckpointByWalVolume) {
  auto fs = std::make_shared<MemFs>();
  DbOptions options;
  options.auto_checkpoint_wal_bytes = 4096;
  auto db = Fresh(fs, options);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(PutOne(*db, "k" + std::to_string(i), std::string(100, 'x')).ok());
  }
  EXPECT_GT(db->CheckpointLsn(), 0u);
}

TEST_P(DatabaseTest, RecoveryIsIdempotentAcrossRestarts) {
  auto fs = std::make_shared<MemFs>();
  {
    auto db = Fresh(fs);
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(PutOne(*db, "k" + std::to_string(i), "v").ok());
  }
  for (int round = 0; round < 3; ++round) {
    Database db(fs, Layout());
    ASSERT_TRUE(db.Open().ok()) << "round " << round;
    EXPECT_EQ(db.RowCount("t"), 10u) << "round " << round;
  }
}

TEST_P(DatabaseTest, WritesAfterRecoveryAreDurable) {
  auto fs = std::make_shared<MemFs>();
  {
    auto db = Fresh(fs);
    ASSERT_TRUE(PutOne(*db, "pre", "1").ok());
  }
  {
    Database db(fs, Layout());
    ASSERT_TRUE(db.Open().ok());
    auto txn = db.Begin();
    ASSERT_TRUE(db.Put(txn, "t", "post", ToBytes("2")).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }
  Database db(fs, Layout());
  ASSERT_TRUE(db.Open().ok());
  EXPECT_TRUE(db.Get("t", "pre").has_value());
  EXPECT_TRUE(db.Get("t", "post").has_value());
}

TEST_P(DatabaseTest, MissingTableIsError) {
  auto fs = std::make_shared<MemFs>();
  auto db = Fresh(fs);
  auto txn = db->Begin();
  ASSERT_TRUE(db->Put(txn, "nope", "k", ToBytes("v")).ok());
  EXPECT_EQ(db->Commit(txn).code(), ErrorCode::kNotFound);
}

TEST_P(DatabaseTest, OversizedRowRejected) {
  auto fs = std::make_shared<MemFs>();
  auto db = Fresh(fs);
  auto txn = db->Begin();
  // Larger than any data page: rejected up front, not at checkpoint time.
  Status st = db->Put(txn, "t", "big", Bytes(64 * 1024, 'x'));
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  // A row that fits is still fine in the same transaction.
  ASSERT_TRUE(db->Put(txn, "t", "ok", Bytes(512, 'y')).ok());
  EXPECT_TRUE(db->Commit(txn).ok());
}

TEST_P(DatabaseTest, OpenWithoutCreateFails) {
  auto fs = std::make_shared<MemFs>();
  Database db(fs, Layout());
  EXPECT_FALSE(db.Open().ok());
}

TEST_P(DatabaseTest, TableFileReadErrorFailsOpen) {
  // Only a missing table file means "nothing checkpointed yet"; a failed
  // read must not open the table empty.
  auto fs = std::make_shared<MemFs>();
  {
    auto db = Fresh(fs);
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(PutOne(*db, "a" + std::to_string(i), "1").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(PutOne(*db, "after", "2").ok());
  }
  auto failing = std::make_shared<FailingReadFs>(fs, Layout().TableFileName("t"), 0);
  Database db(failing, Layout());
  EXPECT_EQ(db.Open().code(), ErrorCode::kIoError);
}

TEST_P(DatabaseTest, WalPageReadErrorFailsOpen) {
  // Redo must not stop early at an unreadable WAL page as if the log ended
  // there: the rows committed past it would silently vanish.
  auto fs = std::make_shared<MemFs>();
  {
    auto db = Fresh(fs);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(PutOne(*db, "k" + std::to_string(i), std::string(200, 'v')).ok());
    }
  }
  const auto second_page = Layout().LocateWalPage(1);
  {
    Database intact(fs, Layout());
    ASSERT_TRUE(intact.Open().ok());
    ASSERT_EQ(intact.RowCount("t"), 50u);
    ASSERT_GT(intact.WalEndLsn(), Layout().WalPayloadSize());  // spans pages
  }
  auto failing =
      std::make_shared<FailingReadFs>(fs, second_page.file, second_page.offset);
  Database db(failing, Layout());
  EXPECT_EQ(db.Open().code(), ErrorCode::kIoError);
}

TEST_P(DatabaseTest, ControlReadErrorFailsOpen) {
  // A control slot that cannot be read must not fall back to another slot's
  // (possibly older) checkpoint or be reported as a torn block.
  auto fs = std::make_shared<MemFs>();
  {
    auto db = Fresh(fs);
    ASSERT_TRUE(PutOne(*db, "k", "v").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  const DbLayout layout = Layout();
  auto failing = std::make_shared<FailingReadFs>(
      fs, layout.ControlFileName(), layout.ControlOffset(layout.ControlSlotCount() - 1));
  Database db(failing, layout);
  EXPECT_EQ(db.Open().code(), ErrorCode::kIoError);
}

INSTANTIATE_TEST_SUITE_P(Flavors, DatabaseTest,
                         ::testing::Values(DbFlavor::kPostgres, DbFlavor::kMySql),
                         [](const auto& info) {
                           return info.param == DbFlavor::kPostgres ? "postgres"
                                                                    : "mysql";
                         });

TEST(DatabaseMySql, FuzzyFlushAdvancesCheckpointIncrementally) {
  auto fs = std::make_shared<MemFs>();
  DbOptions options;
  options.fuzzy_batch_pages = 2;
  Database db(fs, DbLayout::MySql(), options);
  ASSERT_TRUE(db.Create().ok());
  ASSERT_TRUE(db.CreateTable("t", 16).ok());
  for (int i = 0; i < 64; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Put(txn, "t", "k" + std::to_string(i), Bytes(50, 'x')).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }
  const Lsn c0 = db.CheckpointLsn();
  ASSERT_TRUE(db.FuzzyFlush().ok());
  const Lsn c1 = db.CheckpointLsn();
  EXPECT_GE(c1, c0);
  // Keep flushing: the checkpoint frontier reaches the WAL end.
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(db.FuzzyFlush().ok());
  EXPECT_EQ(db.CheckpointLsn(), db.WalEndLsn());

  // Crash + recover mid-stream state is consistent.
  Database recovered(fs, DbLayout::MySql());
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.RowCount("t"), 64u);
}

TEST(DatabaseMySql, CircularWalForcesFlushInsteadOfOverflow) {
  DbLayout layout = DbLayout::MySql();
  layout.wal_segment_size = 64 * layout.wal_page_size;  // 32 kB of log
  auto fs = std::make_shared<MemFs>();
  Database db(fs, layout);
  ASSERT_TRUE(db.Create().ok());
  ASSERT_TRUE(db.CreateTable("t").ok());
  // Write far more WAL than the circular capacity: the engine must force
  // checkpoints rather than corrupt the log.
  for (int i = 0; i < 300; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Put(txn, "t", "k" + std::to_string(i % 40), Bytes(200, 'z')).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }
  Database recovered(fs, layout);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.RowCount("t"), 40u);
}

TEST(DatabasePostgres, CheckpointRemovesOldWalSegments) {
  DbLayout layout = DbLayout::Postgres();
  layout.wal_segment_size = 4 * layout.wal_page_size;
  auto fs = std::make_shared<MemFs>();
  Database db(fs, layout);
  ASSERT_TRUE(db.Create().ok());
  ASSERT_TRUE(db.CreateTable("t").ok());
  for (int i = 0; i < 40; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Put(txn, "t", "k" + std::to_string(i), Bytes(4000, 'w')).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }
  const std::size_t segments_before = fs->ListFiles("pg_xlog/")->size();
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_LT(fs->ListFiles("pg_xlog/")->size(), segments_before);

  Database recovered(fs, layout);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.RowCount("t"), 40u);
}

}  // namespace
}  // namespace ginja
