// Concurrent-Submit stress tests for the commit-ingestion front end: the
// paper's S bound, the consecutive-ack frontier, and crash loss must hold
// with many threads in Submit at once (the parameter is the submitter
// thread count). The engine never submits concurrently, but Submit is
// specified safe from any number of threads. These run under the
// ThreadSanitizer CI job (suite names match its *Pipeline* filter).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "cloud/faulty_store.h"
#include "cloud/memory_store.h"
#include "ginja/commit_pipeline.h"
#include "ginja/payload.h"

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

struct StressFixture {
  std::shared_ptr<MemoryStore> store = std::make_shared<MemoryStore>();
  std::shared_ptr<CloudView> view = std::make_shared<CloudView>();
  std::shared_ptr<RealClock> clock = std::make_shared<RealClock>();
  std::shared_ptr<Envelope> envelope =
      std::make_shared<Envelope>(EnvelopeOptions{});

  std::unique_ptr<CommitPipeline> Make(GinjaConfig config,
                                       ObjectStorePtr s = nullptr) {
    auto p = std::make_unique<CommitPipeline>(s ? s : store, view, clock,
                                              config, envelope);
    p->Start();
    return p;
  }
};

// Delays every PUT so a Kill() reliably catches unacknowledged writes.
class SlowStore : public ObjectStore {
 public:
  explicit SlowStore(ObjectStorePtr inner) : inner_(std::move(inner)) {}
  Status Put(std::string_view name, ByteView data) override {
    std::this_thread::sleep_for(std::chrono::microseconds(400));
    return inner_->Put(name, data);
  }
  Result<Bytes> Get(std::string_view name) override {
    return inner_->Get(name);
  }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }
  Status Delete(std::string_view name) override {
    return inner_->Delete(name);
  }

 private:
  ObjectStorePtr inner_;
};

class CommitPipelineStress : public ::testing::TestWithParam<int> {};

// During a cloud outage at most S Submit calls may return (Alg. 2: the
// DBMS is blocked once S writes are unconfirmed) — no matter how many
// client threads hammer Submit. After the outage every blocked thread
// drains and all writes land.
TEST_P(CommitPipelineStress, ConcurrentSubmitRespectsSBound) {
  StressFixture fx;
  auto faulty = std::make_shared<FaultyStore>(fx.store);
  faulty->SetAvailable(false);
  GinjaConfig config;
  config.batch = 4;
  config.batch_timeout_us = 20'000;
  config.safety = 16;
  config.retry_backoff_us = 2'000;
  config.retry_backoff_max_us = 10'000;
  config.max_retries = 1'000'000;
  auto pipeline = fx.Make(config, faulty);

  const int threads = GetParam();
  constexpr int kWritesPerThread = 50;
  std::atomic<std::uint64_t> returned{0};
  std::atomic<std::uint64_t> lsn{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      const std::string file = "pg_xlog/t" + std::to_string(t);
      for (int i = 0; i < kWritesPerThread; ++i) {
        pipeline->Submit(W(file, static_cast<std::uint64_t>(i) * 8192, 128,
                           lsn.fetch_add(1) + 1));
        returned.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // Every returned Submit observed <= S unconfirmed writes, and nothing
  // completes during the outage, so at most S calls can have returned.
  EXPECT_LE(returned.load(), config.safety);
  EXPECT_GT(pipeline->stats().blocked_waits.Get(), 0u);

  faulty->SetAvailable(true);
  for (auto& c : clients) c.join();
  pipeline->Stop();
  EXPECT_EQ(pipeline->stats().writes_submitted.Get(),
            static_cast<std::uint64_t>(threads) * kWritesPerThread);
  EXPECT_EQ(returned.load(),
            static_cast<std::uint64_t>(threads) * kWritesPerThread);
  EXPECT_GT(fx.store->ObjectCount(), 0u);
}

// The recoverable WAL frontier only ever moves forward, and once every
// write is acknowledged it equals the global maximum LSN — out-of-order
// parallel uploads and concurrent submitters notwithstanding.
TEST_P(CommitPipelineStress, FrontierMonotonicUnderConcurrency) {
  StressFixture fx;
  GinjaConfig config;
  config.batch = 8;
  config.batch_timeout_us = 20'000;
  config.safety = 10'000;
  auto pipeline = std::make_unique<CommitPipeline>(
      fx.store, fx.view, fx.clock, config, fx.envelope);
  std::mutex trace_mu;
  std::vector<Lsn> trace;
  pipeline->SetFrontierListener([&] {
    std::lock_guard<std::mutex> lock(trace_mu);
    trace.push_back(pipeline->UploadedWalFrontier());
  });
  pipeline->Start();

  const int threads = GetParam();
  constexpr int kWritesPerThread = 400;
  std::atomic<std::uint64_t> lsn{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      const std::string file = "pg_xlog/t" + std::to_string(t);
      for (int i = 0; i < kWritesPerThread; ++i) {
        pipeline->Submit(W(file, static_cast<std::uint64_t>(i % 16) * 8192,
                           64, lsn.fetch_add(1) + 1));
      }
    });
  }
  for (auto& c : clients) c.join();
  pipeline->Stop();

  std::lock_guard<std::mutex> lock(trace_mu);
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(std::is_sorted(trace.begin(), trace.end()));
  EXPECT_EQ(trace.back(), lsn.load());
  EXPECT_EQ(pipeline->UploadedWalFrontier(), lsn.load());
}

// Kill() mid-flight (the disaster) loses at most S of the writes whose
// Submit had returned — the paper's headline guarantee. Every write gets a
// unique (file, offset) so it survives coalescing as its own entry, and
// the cloud contents are decoded to count what actually survived.
TEST_P(CommitPipelineStress, KillLosesAtMostSWrites) {
  StressFixture fx;
  auto slow = std::make_shared<SlowStore>(fx.store);
  GinjaConfig config;
  config.batch = 4;
  config.batch_timeout_us = 5'000;
  config.safety = 16;
  auto pipeline = fx.Make(config, slow);

  const int threads = GetParam();
  std::atomic<bool> killing{false};
  std::mutex returned_mu;
  std::set<std::pair<std::string, std::uint64_t>> returned;
  std::atomic<std::uint64_t> lsn{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      const std::string file = "pg_xlog/t" + std::to_string(t);
      for (std::uint64_t i = 0; !killing.load(std::memory_order_acquire);
           ++i) {
        pipeline->Submit(W(file, i * 8192, 64, lsn.fetch_add(1) + 1));
        // Record only while the kill has definitely not started: if the
        // flag is still clear here, this Submit completed pre-crash and
        // the S bound covers it.
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

  // Recover: decode every uploaded WAL object back into (file, offset)
  // entries.
  std::set<std::pair<std::string, std::uint64_t>> recovered;
  auto objects = fx.store->List("");
  ASSERT_TRUE(objects.ok());
  for (const auto& meta : *objects) {
    auto blob = fx.store->Get(meta.name);
    ASSERT_TRUE(blob.ok());
    auto payload = fx.envelope->Decode(View(*blob));
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

INSTANTIATE_TEST_SUITE_P(Submitters, CommitPipelineStress,
                         ::testing::Values(4, 8, 16));

}  // namespace
}  // namespace ginja
