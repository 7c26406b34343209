// Concurrency stress: many writer threads plus a checkpointer hammering
// the engine, then crash recovery — every acknowledged commit must survive.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"
#include "db/database.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"

namespace ginja {
namespace {

class EngineStress : public ::testing::TestWithParam<DbFlavor> {
 protected:
  DbLayout Layout() const {
    return GetParam() == DbFlavor::kPostgres ? DbLayout::Postgres()
                                             : DbLayout::MySql();
  }
};

TEST_P(EngineStress, ConcurrentWritersWithCheckpoints) {
  auto fs = std::make_shared<MemFs>();
  Database db(fs, Layout());
  ASSERT_TRUE(db.Create().ok());
  ASSERT_TRUE(db.CreateTable("t").ok());

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 150;
  std::atomic<bool> stop_checkpoints{false};
  std::vector<std::thread> writers;
  std::array<std::atomic<int>, kWriters> acked{};

  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        auto txn = db.Begin();
        const std::string key = "w" + std::to_string(w) + "-" + std::to_string(i);
        if (!db.Put(txn, "t", key, ToBytes("v" + std::to_string(i))).ok()) return;
        if (!db.Commit(txn).ok()) return;
        acked[static_cast<std::size_t>(w)].store(i + 1);
      }
    });
  }
  std::thread checkpointer([&] {
    while (!stop_checkpoints.load()) {
      if (Layout().flavor == DbFlavor::kMySql) {
        (void)db.FuzzyFlush();
      } else {
        (void)db.Checkpoint();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (auto& t : writers) t.join();
  stop_checkpoints.store(true);
  checkpointer.join();

  EXPECT_EQ(db.CommittedTxns(), kWriters * kPerWriter);
  EXPECT_EQ(db.RowCount("t"),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);

  // Crash (no clean shutdown) and recover: every acknowledged commit is
  // there with its exact value.
  Database recovered(fs, Layout());
  ASSERT_TRUE(recovered.Open().ok());
  for (int w = 0; w < kWriters; ++w) {
    const int n = acked[static_cast<std::size_t>(w)].load();
    EXPECT_EQ(n, kPerWriter);
    for (int i = 0; i < n; ++i) {
      const std::string key = "w" + std::to_string(w) + "-" + std::to_string(i);
      auto v = recovered.Get("t", key);
      ASSERT_TRUE(v.has_value()) << key;
      EXPECT_EQ(ToString(View(*v)), "v" + std::to_string(i)) << key;
    }
  }
}

TEST_P(EngineStress, ReadersRunConcurrentlyWithWriters) {
  auto fs = std::make_shared<MemFs>();
  Database db(fs, Layout());
  ASSERT_TRUE(db.Create().ok());
  ASSERT_TRUE(db.CreateTable("t").ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&] {
    SplitMix64 rng(1);
    while (!stop.load()) {
      // Reads must always see either nothing or a complete value.
      auto v = db.Get("t", "k" + std::to_string(rng.NextBelow(50)));
      if (v) {
        EXPECT_EQ(v->size(), 64u);
      }
      reads.fetch_add(1);
    }
  });
  for (int i = 0; i < 300; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Put(txn, "t", "k" + std::to_string(i % 50), Bytes(64, 'x')).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }
  // Let the reader observe the final state too (it may have started after
  // the burst finished — commits are fast on the in-memory substrate).
  while (reads.load() == 0) std::this_thread::yield();
  stop.store(true);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
}

// Records, for intercepted WAL-segment writes, the peak number of listener
// callbacks running at once and whether the page header's logical page
// number (bytes 6-13) ever went backwards.
class WalOrderListener : public FileEventListener {
 public:
  explicit WalOrderListener(DbLayout layout) : layout_(layout) {}

  void OnFileEvent(const FileEvent& event) override {
    if (event.kind != FileEvent::Kind::kWrite ||
        layout_.Classify(event.path, event.offset) != FileKind::kWalSegment ||
        event.data.size() < DbLayout::kWalPageHeaderSize) {
      return;
    }
    const int inside = inside_.fetch_add(1) + 1;
    int peak = peak_.load();
    while (inside > peak && !peak_.compare_exchange_weak(peak, inside)) {
    }
    // Widens the window a concurrent WAL write would have to hit.
    std::this_thread::yield();
    const std::uint64_t page = GetU64(event.data.data() + 6);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (wal_writes_ > 0 && page < last_page_) decreased_ = true;
      last_page_ = page;
      ++wal_writes_;
    }
    inside_.fetch_sub(1);
  }

  int peak() const { return peak_.load(); }
  bool decreased() const {
    std::lock_guard<std::mutex> lock(mu_);
    return decreased_;
  }
  std::uint64_t wal_writes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wal_writes_;
  }

 private:
  DbLayout layout_;
  std::atomic<int> inside_{0};
  std::atomic<int> peak_{0};
  mutable std::mutex mu_;
  std::uint64_t last_page_ = 0;
  std::uint64_t wal_writes_ = 0;
  bool decreased_ = false;
};

// Ginja's batch formation on the submitting thread and the MySQL
// processor's wrap-epoch detection both assume the engine hands WAL writes to the interception
// layer one at a time and in log order, as PostgreSQL's WALWriteLock does:
// concurrent committers serialise inside the engine, never in the listener.
TEST_P(EngineStress, WalWritesReachTheListenerOneAtATimeInLogOrder) {
  auto intercept = std::make_shared<InterceptFs>(std::make_shared<MemFs>(),
                                                 std::make_shared<RealClock>());
  WalOrderListener listener(Layout());
  intercept->SetListener(&listener);
  Database db(intercept, Layout());
  ASSERT_TRUE(db.Create().ok());
  ASSERT_TRUE(db.CreateTable("t").ok());

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 150;
  std::atomic<bool> stop_checkpoints{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        auto txn = db.Begin();
        const std::string key = "w" + std::to_string(w) + "-" + std::to_string(i);
        ASSERT_TRUE(db.Put(txn, "t", key, Bytes(64, 'x')).ok());
        ASSERT_TRUE(db.Commit(txn).ok());
      }
    });
  }
  std::thread checkpointer([&] {
    while (!stop_checkpoints.load()) {
      if (Layout().flavor == DbFlavor::kMySql) {
        (void)db.FuzzyFlush();
      } else {
        (void)db.Checkpoint();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (auto& t : writers) t.join();
  stop_checkpoints.store(true);
  checkpointer.join();
  intercept->SetListener(nullptr);

  EXPECT_EQ(db.CommittedTxns(), kWriters * kPerWriter);
  EXPECT_GE(listener.wal_writes(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(listener.peak(), 1);
  EXPECT_FALSE(listener.decreased());
}

INSTANTIATE_TEST_SUITE_P(Flavors, EngineStress,
                         ::testing::Values(DbFlavor::kPostgres, DbFlavor::kMySql),
                         [](const auto& info) {
                           return info.param == DbFlavor::kPostgres ? "postgres"
                                                                    : "mysql";
                         });

}  // namespace
}  // namespace ginja
