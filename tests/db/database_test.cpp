#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "common/rng.h"
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

// Forwards to a MemFs and logs every write, so two opens of one image can
// be compared by the bytes their first checkpoint writes. It can also stage
// a crash: the writes below an offset of one file are lost, and the first
// write to another file fails.
class WriteLogFs : public Vfs {
 public:
  using Entry = std::tuple<std::string, std::uint64_t, Bytes, bool>;

  explicit WriteLogFs(std::shared_ptr<MemFs> inner) : inner_(std::move(inner)) {}

  Status Write(std::string_view p, std::uint64_t o, ByteView d, bool sync) override {
    if (!lost_path_.empty()) {
      if (p == lost_path_ && o < lost_below_) return Status::Ok();
      if (p == crash_path_) return Status::IoError("injected crash");
    }
    log_.emplace_back(std::string(p), o, Bytes(d.begin(), d.end()), sync);
    return inner_->Write(p, o, d, sync);
  }
  Result<Bytes> Read(std::string_view p, std::uint64_t o, std::uint64_t s) override {
    return inner_->Read(p, o, s);
  }
  Result<Bytes> ReadAll(std::string_view p) override { return inner_->ReadAll(p); }
  // Table loads take a while next to the parse, so parsed records wait
  // for their table to load: the case per-table ordering must get right.
  Status ReadAllView(std::string_view p,
                     const std::function<Status(ByteView)>& fn) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return inner_->ReadAllView(p, fn);
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

  void CrashAt(std::string crash_path, std::string lost_path,
               std::uint64_t lost_below) {
    crash_path_ = std::move(crash_path);
    lost_path_ = std::move(lost_path);
    lost_below_ = lost_below;
  }
  std::vector<Entry> TakeLog() { return std::exchange(log_, {}); }

 private:
  std::shared_ptr<MemFs> inner_;
  std::string crash_path_;
  std::string lost_path_;
  std::uint64_t lost_below_ = 0;
  std::vector<Entry> log_;
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

// -- Open is the same for any K ------------------------------------------------

// A crashed image plus the committed rows it must recover to.
struct Image {
  DbLayout layout;
  std::shared_ptr<MemFs> fs = std::make_shared<MemFs>();
  std::map<std::string, std::map<std::string, Bytes>> rows;  // table -> key -> value
  std::set<std::pair<std::string, std::string>> keys;         // every key ever written
};

// Everything an Open leaves behind that redo decides.
struct Opened {
  std::vector<std::string> tables;
  std::map<std::string, std::uint64_t> row_counts;
  std::map<std::string, std::map<std::string, Bytes>> rows;
  std::map<std::string, std::vector<std::pair<std::uint32_t, Lsn>>> dirty;
  Lsn wal_end = 0;
  std::vector<WriteLogFs::Entry> checkpoint;  // the first checkpoint's writes
};

Opened OpenWithK(const Image& image, int k) {
  Opened out;
  auto log = std::make_shared<WriteLogFs>(image.fs->Clone());
  Database db(log, image.layout, {}, k);
  const Status st = db.Open();
  EXPECT_TRUE(st.ok()) << "K=" << k << ": " << st.ToString();
  out.tables = db.TableNames();
  for (const auto& table : out.tables) {
    out.row_counts[table] = db.RowCount(table);
    for (const auto& d : db.DirtyPages(table)) {
      out.dirty[table].emplace_back(d.bucket, d.first_dirty_lsn);
    }
  }
  for (const auto& [table, key] : image.keys) {
    if (auto value = db.Get(table, key)) out.rows[table][key] = *value;
  }
  out.wal_end = db.WalEndLsn();
  EXPECT_TRUE(log->TakeLog().empty());  // Open itself writes nothing
  // MySQL flushes the oldest dirty pages first, so its first fuzzy batch
  // shows the first-dirty LSNs; the full checkpoint writes every page.
  if (image.layout.flavor == DbFlavor::kMySql) EXPECT_TRUE(db.FuzzyFlush().ok());
  EXPECT_TRUE(db.Checkpoint().ok());
  out.checkpoint = log->TakeLog();
  return out;
}

// Opens the image with K = 1 and with every larger K up to past the table
// count, and expects every table to end the same; returns the K = 1 open.
Opened ExpectSameForAnyK(const Image& image) {
  Opened serial = OpenWithK(image, 1);
  for (int k : {2, 3, 5, 8}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    const Opened parallel = OpenWithK(image, k);
    EXPECT_EQ(parallel.tables, serial.tables);
    EXPECT_EQ(parallel.row_counts, serial.row_counts);
    EXPECT_EQ(parallel.rows, serial.rows);
    EXPECT_EQ(parallel.dirty, serial.dirty);
    EXPECT_EQ(parallel.wal_end, serial.wal_end);
    EXPECT_EQ(parallel.checkpoint, serial.checkpoint);
  }
  return serial;
}

// Random committed transactions over five tables of different sizes:
// puts of 0-300 byte values and deletes, so buckets split and rows move.
// Every commit is mirrored into `image.rows`.
void RunWorkload(Database& db, Image& image, int txns, std::uint64_t seed,
                 int checkpoint_every = 0) {
  static const char* kTables[] = {"big", "mid", "small", "tiny", "empty"};
  static const int kKeys[] = {600, 200, 60, 10, 0};
  SplitMix64 rng(seed);
  for (int i = 0; i < txns; ++i) {
    auto txn = db.Begin();
    std::vector<std::tuple<std::string, std::string, std::optional<Bytes>>> ops;
    const int n = 1 + static_cast<int>(rng.Next() % 6);
    for (int j = 0; j < n; ++j) {
      const int t = static_cast<int>(rng.Next() % 4);
      const std::string key = "key-" + std::to_string(rng.Next() % kKeys[t]);
      if (rng.Next() % 5 == 0) {
        ASSERT_TRUE(db.Delete(txn, kTables[t], key).ok());
        ops.emplace_back(kTables[t], key, std::nullopt);
      } else {
        Bytes value(rng.Next() % 300, static_cast<std::uint8_t>('a' + i % 26));
        ASSERT_TRUE(db.Put(txn, kTables[t], key, value).ok());
        ops.emplace_back(kTables[t], key, std::move(value));
      }
    }
    ASSERT_TRUE(db.Commit(txn).ok());
    for (auto& [table, key, value] : ops) {
      image.keys.emplace(table, key);
      if (value) {
        image.rows[table][key] = std::move(*value);
      } else {
        image.rows[table].erase(key);
      }
    }
    if (checkpoint_every > 0 && (i + 1) % checkpoint_every == 0) {
      ASSERT_TRUE(db.Checkpoint().ok());
    }
  }
}

// Small logs so PostgreSQL recycles segments and the MySQL circular log
// wraps; MySQL flushes fuzzily from the commit path.
Image NewImage(DbFlavor flavor, DbOptions* options) {
  Image image;
  image.layout = flavor == DbFlavor::kPostgres ? DbLayout::Postgres() : DbLayout::MySql();
  image.layout.wal_segment_size = 64 * image.layout.wal_page_size;
  options->default_buckets = 2;
  if (flavor == DbFlavor::kMySql) {
    options->auto_checkpoint_wal_bytes = 8 * 1024;
    options->fuzzy_batch_pages = 4;
  }
  return image;
}

Status CreateTables(Database& db) {
  GINJA_RETURN_IF_ERROR(db.Create());
  for (const char* name : {"big", "mid", "small", "tiny", "empty"}) {
    GINJA_RETURN_IF_ERROR(db.CreateTable(name));
  }
  return Status::Ok();
}

// Expects the recovered rows to be the committed ones, naming the keys
// that differ rather than printing both maps.
void ExpectCommittedRows(const Opened& opened, const Image& image) {
  for (const auto& [table, key] : image.keys) {
    const auto* want = [&]() -> const Bytes* {
      auto t = image.rows.find(table);
      if (t == image.rows.end()) return nullptr;
      auto k = t->second.find(key);
      return k == t->second.end() ? nullptr : &k->second;
    }();
    const auto* got = [&]() -> const Bytes* {
      auto t = opened.rows.find(table);
      if (t == opened.rows.end()) return nullptr;
      auto k = t->second.find(key);
      return k == t->second.end() ? nullptr : &k->second;
    }();
    if (want == nullptr) {
      EXPECT_EQ(got, nullptr) << table << "/" << key << " should be gone";
    } else {
      ASSERT_NE(got, nullptr) << table << "/" << key << " is missing";
      EXPECT_TRUE(*got == *want) << table << "/" << key << " has a stale value";
    }
  }
}

TEST_P(DatabaseTest, OpenIsTheSameForAnyK) {
  DbOptions options;
  Image image = NewImage(GetParam(), &options);
  {
    Database db(image.fs, image.layout, options);
    ASSERT_TRUE(CreateTables(db).ok());
    // PostgreSQL checkpoints every 250 txns, MySQL flushes fuzzily; both
    // crash with committed work past the last checkpoint.
    RunWorkload(db, image, 1200, /*seed=*/7,
                GetParam() == DbFlavor::kPostgres ? 250 : 0);
    ASSERT_GT(db.WalEndLsn(), db.CheckpointLsn());
  }
  const Opened serial = ExpectSameForAnyK(image);
  ExpectCommittedRows(serial, image);
  for (const auto& [table, rows] : image.rows) {
    EXPECT_EQ(serial.row_counts.at(table), rows.size()) << table;
  }
  EXPECT_FALSE(serial.checkpoint.empty());
}

TEST_P(DatabaseTest, TornRedistributionIsTheSameForAnyK) {
  // A checkpoint after the buckets doubled rewrites every page. The crash
  // comes before the catalog write, and of the table's pages only those
  // past the old end of the file landed, so rows that moved to a new bucket
  // sit both in its page (newer flush LSN) and in the stale page of their
  // old bucket.
  DbOptions options;
  Image image = NewImage(GetParam(), &options);
  options.auto_checkpoint_wal_bytes = 0;
  // Room for the whole run: a forced flush would end the redistribution.
  image.layout.wal_segment_size = 4096 * image.layout.wal_page_size;
  const std::string file = image.layout.TableFileName("big");
  auto log = std::make_shared<WriteLogFs>(image.fs);
  Database db(log, image.layout, options);
  ASSERT_TRUE(CreateTables(db).ok());
  RunWorkload(db, image, 150, /*seed=*/11);
  ASSERT_TRUE(db.Checkpoint().ok());
  ASSERT_TRUE(db.DirtyPages("big").empty());
  const std::uint64_t old_end = *image.fs->FileSize(file);
  RunWorkload(db, image, 400, /*seed=*/12);
  // A split marks every bucket dirty at LSN 0; no commit after the
  // checkpoint has LSN 0.
  const auto dirty = db.DirtyPages("big");
  ASSERT_FALSE(dirty.empty());
  ASSERT_EQ(dirty.front().first_dirty_lsn, 0u);
  (void)log->TakeLog();
  log->CrashAt(image.layout.CatalogFileName(), file, old_end);
  EXPECT_FALSE(db.Checkpoint().ok());
  std::size_t landed = 0;
  for (const auto& entry : log->TakeLog()) landed += std::get<0>(entry) == file;
  ASSERT_GT(landed, 0u);  // new pages landed beside the stale ones

  const Opened serial = ExpectSameForAnyK(image);
  ExpectCommittedRows(serial, image);
}

TEST_P(DatabaseTest, RecordForUnknownTableIsSkippedForAnyK) {
  // The WAL holds records of a table the catalog no longer lists (dropped
  // before the crash): every K skips them and redoes the rest.
  DbOptions options;
  Image image = NewImage(GetParam(), &options);
  options.auto_checkpoint_wal_bytes = 0;
  Bytes catalog_without_gone;
  {
    auto fs = std::make_shared<MemFs>();
    Database db(fs, image.layout, options);
    ASSERT_TRUE(CreateTables(db).ok());
    catalog_without_gone = *fs->ReadAll(image.layout.CatalogFileName());
  }
  {
    Database db(image.fs, image.layout, options);
    ASSERT_TRUE(CreateTables(db).ok());
    ASSERT_TRUE(db.CreateTable("gone").ok());
    RunWorkload(db, image, 200, /*seed=*/13);
    for (int i = 0; i < 20; ++i) {
      auto txn = db.Begin();
      ASSERT_TRUE(db.Put(txn, "gone", "g" + std::to_string(i), Bytes(40, 'g')).ok());
      ASSERT_TRUE(db.Put(txn, "tiny", "t" + std::to_string(i), Bytes(8, 't')).ok());
      ASSERT_TRUE(db.Commit(txn).ok());
      image.keys.emplace("tiny", "t" + std::to_string(i));
      image.keys.emplace("gone", "g" + std::to_string(i));
      image.rows["tiny"]["t" + std::to_string(i)] = Bytes(8, 't');
    }
  }
  ASSERT_TRUE(image.fs->Truncate(image.layout.CatalogFileName(), 0).ok());
  ASSERT_TRUE(image.fs->Write(image.layout.CatalogFileName(), 0,
                              View(catalog_without_gone), true).ok());

  const Opened serial = ExpectSameForAnyK(image);
  EXPECT_EQ(serial.tables.size(), 5u);
  EXPECT_EQ(serial.rows.count("gone"), 0u);
  ExpectCommittedRows(serial, image);
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
