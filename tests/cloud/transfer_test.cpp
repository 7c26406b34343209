// TransferManager: bounded concurrency, retry/backoff on injected faults,
// fan-out deletes, and cancellation; RunInOrderWindow's ordering, bound
// and failure contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "cloud/faulty_store.h"
#include "cloud/memory_store.h"
#include "cloud/transfer.h"

namespace ginja {
namespace {

Bytes B(const char* s) { return ToBytes(s); }

TransferOptions FastOptions(int concurrency = 4) {
  TransferOptions o;
  o.concurrency = concurrency;
  o.max_attempts = 10;
  o.backoff_initial_us = 200;  // real microseconds: tests use RealClock
  o.backoff_max_us = 2'000;
  return o;
}

// Forwards to an inner store while recording how many Gets overlap.
class TrackingStore : public ObjectStore {
 public:
  explicit TrackingStore(ObjectStorePtr inner) : inner_(std::move(inner)) {}

  Result<Bytes> Get(std::string_view name) override {
    const int now = concurrent_.fetch_add(1) + 1;
    int peak = peak_.load();
    while (peak < now && !peak_.compare_exchange_weak(peak, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto result = inner_->Get(name);
    concurrent_.fetch_sub(1);
    return result;
  }
  Status Put(std::string_view name, ByteView data) override {
    return inner_->Put(name, data);
  }
  Status Delete(std::string_view name) override { return inner_->Delete(name); }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }

  int peak() const { return peak_.load(); }

 private:
  ObjectStorePtr inner_;
  std::atomic<int> concurrent_{0};
  std::atomic<int> peak_{0};
};

TEST(TransferManagerTest, PutGetDeleteRoundtrip) {
  auto store = std::make_shared<MemoryStore>();
  TransferManager manager(store, FastOptions());

  ASSERT_TRUE(manager.PutAsync({}, "a", B("alpha")).get().ok());
  auto got = manager.GetAsync({}, "a").get();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, B("alpha"));

  ASSERT_TRUE(manager.DeleteAsync({}, "a").get().ok());
  EXPECT_FALSE(store->Get("a").ok());

  EXPECT_EQ(manager.stats().gets.Get(), 1u);
  EXPECT_EQ(manager.stats().puts.Get(), 1u);
  EXPECT_EQ(manager.stats().deletes.Get(), 1u);
  EXPECT_EQ(manager.stats().bytes_uploaded.Get(), 5u);
  EXPECT_EQ(manager.stats().bytes_downloaded.Get(), 5u);
  EXPECT_EQ(manager.stats().failed_ops.Get(), 0u);
}

TEST(TransferManagerTest, RetriesInjectedTransientFailures) {
  auto memory = std::make_shared<MemoryStore>();
  ASSERT_TRUE(memory->Put("k", View(B("v"))).ok());
  auto faulty = std::make_shared<FaultyStore>(memory);
  TransferManager manager(faulty, FastOptions());

  faulty->FailNextOps(3);
  auto got = manager.GetAsync({}, "k").get();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, B("v"));
  EXPECT_EQ(faulty->injected_failures(), 3u);
  EXPECT_EQ(manager.stats().retries.Get(), 3u);
  EXPECT_EQ(manager.stats().failed_ops.Get(), 0u);
}

TEST(TransferManagerTest, ExhaustedRetriesReturnLastError) {
  auto faulty =
      std::make_shared<FaultyStore>(std::make_shared<MemoryStore>());
  TransferOptions options = FastOptions();
  options.max_attempts = 3;
  TransferManager manager(faulty, options);

  faulty->SetAvailable(false);
  Status st = manager.PutAsync({}, "k", B("v")).get();
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(manager.stats().retries.Get(), 2u);  // attempts - 1
  EXPECT_EQ(manager.stats().failed_ops.Get(), 1u);
  EXPECT_EQ(manager.stats().puts.Get(), 0u);
}

TEST(TransferManagerTest, NotFoundIsAnAnswerNotRetried) {
  auto store = std::make_shared<MemoryStore>();
  TransferManager manager(store, FastOptions());

  auto got = manager.GetAsync({}, "missing").get();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(manager.stats().retries.Get(), 0u);
  EXPECT_EQ(manager.stats().failed_ops.Get(), 1u);
}

TEST(TransferManagerTest, BackoffGrowsExponentially) {
  auto memory = std::make_shared<MemoryStore>();
  ASSERT_TRUE(memory->Put("k", View(B("v"))).ok());
  auto faulty = std::make_shared<FaultyStore>(memory);
  TransferOptions options = FastOptions();
  options.backoff_initial_us = 10'000;
  options.backoff_max_us = 1'000'000;
  options.backoff_jitter = 0.0;
  TransferManager manager(faulty, options);

  faulty->FailNextOps(3);  // sleeps: 10ms + 20ms + 40ms = 70ms
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(manager.GetAsync({}, "k").get().ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 60);
}

TEST(TransferManagerTest, ConcurrencyIsBounded) {
  auto memory = std::make_shared<MemoryStore>();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(memory->Put("obj" + std::to_string(i), View(B("x"))).ok());
  }
  auto tracking = std::make_shared<TrackingStore>(memory);
  TransferManager manager(tracking, FastOptions(/*concurrency=*/4));

  std::vector<std::future<Result<Bytes>>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(manager.GetAsync({}, "obj" + std::to_string(i)));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  EXPECT_LE(tracking->peak(), 4);
  EXPECT_GE(tracking->peak(), 2);  // the window genuinely overlapped
  EXPECT_LE(manager.stats().peak_inflight.load(), 4);
  EXPECT_EQ(manager.stats().gets.Get(), 16u);
}

TEST(TransferManagerTest, DeleteAllReportsPerName) {
  auto store = std::make_shared<MemoryStore>();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store->Put("gc" + std::to_string(i), View(B("x"))).ok());
  }
  TransferManager manager(store, FastOptions());

  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) names.push_back("gc" + std::to_string(i));
  auto statuses = manager.DeleteAll({}, names);
  ASSERT_EQ(statuses.size(), names.size());
  for (const auto& st : statuses) EXPECT_TRUE(st.ok());
  for (const auto& name : names) EXPECT_FALSE(store->Get(name).ok());
  EXPECT_EQ(manager.stats().deletes.Get(), 8u);
}

TEST(TransferManagerTest, CancelAbortsQueuedAndFutureOps) {
  auto memory = std::make_shared<MemoryStore>();
  ASSERT_TRUE(memory->Put("k", View(B("v"))).ok());
  auto tracking = std::make_shared<TrackingStore>(memory);
  TransferManager manager(tracking, FastOptions(/*concurrency=*/1));

  std::vector<std::future<Result<Bytes>>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(manager.GetAsync({}, "k"));
  manager.Cancel();
  EXPECT_TRUE(manager.cancelled());

  int aborted = 0;
  for (auto& f : futures) {
    auto result = f.get();  // must not hang
    if (!result.ok() && result.status().code() == ErrorCode::kAborted) {
      ++aborted;
    }
  }
  EXPECT_GE(aborted, 2);  // at most the in-flight ops could still land

  auto late = manager.GetAsync({}, "k").get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), ErrorCode::kAborted);
}

TEST(TransferManagerTest, CancelInterruptsBackoffSleep) {
  auto faulty =
      std::make_shared<FaultyStore>(std::make_shared<MemoryStore>());
  TransferOptions options = FastOptions(1);
  options.backoff_initial_us = 60'000'000;  // would sleep a minute
  options.max_attempts = 5;
  TransferManager manager(faulty, options);

  faulty->SetAvailable(false);
  auto future = manager.PutAsync({}, "k", B("v"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  manager.Cancel();
  Status st = future.get();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_FALSE(st.ok());
  EXPECT_LT(elapsed.count(), 10'000);  // not the full backoff
}

// -- StreamSession ----------------------------------------------------------

TEST(TransferStream, PartsUploadAndFinishPublishes) {
  auto store = std::make_shared<MemoryStore>();
  TransferManager manager(store, FastOptions());
  auto session = manager.BeginStream({}, "stage/s1");

  std::atomic<int> parts_done{0};
  session->AppendPart(0, B("one "), [&](Status st) {
    EXPECT_TRUE(st.ok());
    parts_done.fetch_add(1);
  });
  session->AppendPart(1, B("two "), [&](Status st) {
    EXPECT_TRUE(st.ok());
    parts_done.fetch_add(1);
  });
  session->AppendPart(2, B("three"), [&](Status st) {
    EXPECT_TRUE(st.ok());
    parts_done.fetch_add(1);
  });
  Status st = session->Finish(3, "published").get();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(parts_done.load(), 3);
  // All three parts are durable: part 3 is admitted even by a one-part
  // window.
  EXPECT_TRUE(session->WithinWindow(3, 1));
  EXPECT_FALSE(session->WithinWindow(4, 1));
  auto got = store->Get("published");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, B("one two three"));
}

TEST(TransferStream, FinishRetriesTransientFailures) {
  auto faulty = std::make_shared<FaultyStore>(std::make_shared<MemoryStore>());
  TransferManager manager(faulty, FastOptions());
  auto session = manager.BeginStream({}, "stage/s2");
  session->AppendPart(0, B("payload"));
  faulty->FailNextOps(3);  // within max_attempts=10
  Status st = session->Finish(1, "retried").get();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(manager.GetAsync({}, "retried").get().ok());
}

TEST(TransferStream, AbortDiscardsWithoutPublishing) {
  auto store = std::make_shared<MemoryStore>();
  {
    TransferManager manager(store, FastOptions());
    auto session = manager.BeginStream({}, "stage/s3");
    std::atomic<bool> part_failed{false};
    session->AppendPart(0, B("doomed"),
                        [&](Status st) { part_failed.store(!st.ok()); });
    session->Abort();
    // The manager's destructor drains the pool; the backend abort reaps
    // the staged upload when the session is dropped.
  }
  EXPECT_FALSE(store->Get("never").ok());
  auto all = store->List("");
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->empty());
}

TEST(TransferStream, PermanentFailureFailsFinish) {
  auto faulty = std::make_shared<FaultyStore>(std::make_shared<MemoryStore>());
  TransferOptions options = FastOptions();
  options.max_attempts = 3;
  TransferManager manager(faulty, options);
  faulty->SetAvailable(false);  // never recovers: the part fails for good
  auto session = manager.BeginStream({}, "stage/s4");
  session->AppendPart(0, B("lost"));
  Status st = session->Finish(1, "unreachable").get();
  EXPECT_FALSE(st.ok());
  faulty->SetAvailable(true);
  EXPECT_FALSE(manager.GetAsync({}, "unreachable").get().ok());
}

// -- RunInOrderWindow -----------------------------------------------------

TEST(TransferWindow, ReapsInIndexOrderWhenFuturesCompleteOutOfOrder) {
  // Within each window-aligned group, item i finishes only after item i+1
  // has, so every group completes back to front.
  constexpr std::size_t kCount = 8;
  constexpr std::size_t kWindow = 4;
  std::vector<std::promise<void>> finished(kCount);
  std::vector<std::shared_future<void>> finished_f;
  for (auto& p : finished) finished_f.push_back(p.get_future().share());
  std::mutex mu;
  std::vector<std::size_t> completed;
  std::vector<std::size_t> reaped;
  Status st = RunInOrderWindow(
      kCount, kWindow,
      [&](std::size_t i) {
        return std::async(std::launch::async, [&, i] {
          if ((i + 1) % kWindow != 0) finished_f[i + 1].wait();
          {
            std::lock_guard<std::mutex> lock(mu);
            completed.push_back(i);
          }
          finished[i].set_value();
          return i;
        });
      },
      [&](std::size_t i, std::future<std::size_t> f) {
        EXPECT_EQ(f.get(), i);
        reaped.push_back(i);
        return Status::Ok();
      });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(completed, (std::vector<std::size_t>{3, 2, 1, 0, 7, 6, 5, 4}));
  EXPECT_EQ(reaped, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TransferWindow, InFlightNeverExceedsWindow) {
  constexpr std::size_t kWindow = 3;
  std::size_t inflight = 0;
  std::size_t peak = 0;
  std::size_t issued = 0;
  Status st = RunInOrderWindow(
      20, kWindow,
      [&](std::size_t) {
        peak = std::max(peak, ++inflight);
        ++issued;
        std::promise<int> ready;
        ready.set_value(0);
        return ready.get_future();
      },
      [&](std::size_t, std::future<int> f) {
        f.get();
        --inflight;
        return Status::Ok();
      });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(issued, 20u);
  EXPECT_EQ(peak, kWindow);
  // A zero window still makes progress, one item at a time.
  inflight = peak = 0;
  RunInOrderWindow(
      5, 0,
      [&](std::size_t) {
        peak = std::max(peak, ++inflight);
        std::promise<int> ready;
        ready.set_value(0);
        return ready.get_future();
      },
      [&](std::size_t, std::future<int>) {
        --inflight;
        return Status::Ok();
      });
  EXPECT_EQ(peak, 1u);
}

TEST(TransferWindow, FailedReapStopsIssuingAndWaitsOutIssued) {
  // Every future completes on its own thread well after issue; the window
  // must not return while one it issued is still pending.
  constexpr std::size_t kCount = 10;
  std::vector<std::thread> threads;
  std::vector<std::atomic<bool>> done(kCount);
  std::vector<std::size_t> reaped;
  std::size_t issued = 0;
  Status st = RunInOrderWindow(
      kCount, 4,
      [&](std::size_t i) {
        ++issued;
        auto promise = std::make_shared<std::promise<int>>();
        auto future = promise->get_future();
        threads.emplace_back([&done, i, promise] {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          done[i].store(true);
          promise->set_value(static_cast<int>(i));
        });
        return future;
      },
      [&](std::size_t i, std::future<int> f) {
        f.get();
        reaped.push_back(i);
        return i == 2 ? Status::Unavailable("injected") : Status::Ok();
      });
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(reaped, (std::vector<std::size_t>{0, 1, 2}));
  // Reaping item 2 found 2..5 in flight; nothing was issued after it.
  EXPECT_EQ(issued, 6u);
  for (std::size_t i = 0; i < issued; ++i) EXPECT_TRUE(done[i].load()) << i;
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace ginja
