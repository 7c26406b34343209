// TransferManager: bounded concurrency, retry/backoff on injected faults,
// fan-out deletes, and cancellation; RunInOrderWindow's ordering, its
// bounds (incomplete operations, lookahead bytes) and failure contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
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

// Runs `fn` on a thread of its own; the returned future becomes ready with
// fn's value, and then `done` runs, as a transfer worker would do it.
template <typename Fn>
std::future<int> RunThen(std::vector<std::thread>& threads, Fn fn,
                         WindowDone done) {
  auto promise = std::make_shared<std::promise<int>>();
  auto future = promise->get_future();
  threads.emplace_back([promise, fn = std::move(fn), done] {
    promise->set_value(fn());
    done();
  });
  return future;
}

// A future that is ready at once, its `done` already run.
std::future<int> Ready(int value, WindowDone done) {
  std::promise<int> ready;
  ready.set_value(value);
  done();
  return ready.get_future();
}

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
  std::vector<std::thread> threads;
  Status st = RunInOrderWindow(
      kCount, kWindow,
      [&](std::size_t i, WindowDone done) {
        return RunThen(
            threads,
            [&, i] {
              if ((i + 1) % kWindow != 0) finished_f[i + 1].wait();
              {
                std::lock_guard<std::mutex> lock(mu);
                completed.push_back(i);
              }
              finished[i].set_value();
              return static_cast<int>(i);
            },
            done);
      },
      [&](std::size_t i, std::future<int> f) {
        EXPECT_EQ(f.get(), static_cast<int>(i));
        reaped.push_back(i);
        return Status::Ok();
      });
  for (auto& t : threads) t.join();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(completed, (std::vector<std::size_t>{3, 2, 1, 0, 7, 6, 5, 4}));
  EXPECT_EQ(reaped, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TransferWindow, InFlightNeverExceedsWindow) {
  // "In flight" is issued and not yet complete: each operation counts
  // itself out just before its future becomes ready. Operations hold
  // until the window has been full once, so reaching the bound does not
  // depend on how fast their threads start.
  constexpr std::size_t kWindow = 3;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight = 0;
  std::size_t peak = 0;
  std::size_t full_at = kWindow;  // the bound this run should reach
  std::size_t issued = 0;
  std::vector<std::thread> threads;
  auto issue = [&](std::size_t, WindowDone done) {
    {
      std::lock_guard<std::mutex> lock(mu);
      peak = std::max(peak, ++inflight);
      ++issued;
      cv.notify_all();
    }
    return RunThen(
        threads,
        [&] {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait_for(lock, std::chrono::seconds(10),
                      [&] { return peak >= full_at; });
          --inflight;
          return 0;
        },
        done);
  };
  auto reap = [&](std::size_t, std::future<int> f) {
    f.get();
    return Status::Ok();
  };
  Status st = RunInOrderWindow(20, kWindow, issue, reap);
  for (auto& t : threads) t.join();
  threads.clear();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(issued, 20u);
  EXPECT_EQ(peak, kWindow);
  // A zero window still makes progress, one item at a time.
  peak = 0;
  full_at = 1;
  RunInOrderWindow(5, 0, issue, reap);
  for (auto& t : threads) t.join();
  EXPECT_EQ(peak, 1u);
}

TEST(TransferWindow, SlowHeadDoesNotStallLaterItems) {
  // Item 0 completes only once items 1..kWindow have: the window must
  // issue item kWindow while the head is still incomplete. A window that
  // issues only as the head is reaped waits on item 0 forever; the
  // timeout turns that into a failure instead of a hang.
  constexpr std::size_t kWindow = 3;
  constexpr std::size_t kCount = 2 * kWindow + 1;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t later_done = 0;  // items 1..kWindow completed
  bool head_timed_out = false;
  std::vector<std::thread> threads;
  Status st = RunInOrderWindow(
      kCount, kWindow,
      [&](std::size_t i, WindowDone done) {
        return RunThen(
            threads,
            [&, i] {
              std::unique_lock<std::mutex> lock(mu);
              if (i == 0) {
                head_timed_out = !cv.wait_for(
                    lock, std::chrono::seconds(10),
                    [&] { return later_done == kWindow; });
              } else if (i <= kWindow) {
                ++later_done;
                cv.notify_all();
              }
              return static_cast<int>(i);
            },
            done);
      },
      [&](std::size_t i, std::future<int> f) {
        EXPECT_EQ(f.get(), static_cast<int>(i));
        return Status::Ok();
      });
  for (auto& t : threads) t.join();
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(head_timed_out);
}

TEST(TransferWindow, LookaheadStaysWithinBudget) {
  // Operations complete at once, so only the budget limits how far the
  // window runs ahead of the reap. Item 4 alone exceeds the budget: it is
  // issued only as the next item to reap.
  const std::vector<std::size_t> cost = {5, 3, 4, 2, 20, 1, 6, 2, 3, 7, 1};
  constexpr std::size_t kBudget = 8;
  std::vector<bool> is_issued(cost.size(), false);
  std::size_t reaped = 0;
  std::size_t seen_peak = 0;
  std::size_t reported_peak = 0;
  Status st = RunInOrderWindow(
      cost.size(), WindowBounds{/*window=*/4, kBudget},
      [&](std::size_t i) { return cost[i]; },
      [&](std::size_t i, WindowDone done) {
        is_issued[i] = true;
        // Bytes issued ahead of the next item to reap, this one included.
        std::size_t ahead = 0;
        for (std::size_t j = reaped + 1; j < cost.size(); ++j) {
          if (is_issued[j]) ahead += cost[j];
        }
        EXPECT_LE(ahead, kBudget) << "issuing " << i;
        seen_peak = std::max(seen_peak, ahead);
        return Ready(static_cast<int>(i), done);
      },
      [&](std::size_t i, std::future<int> f) {
        EXPECT_EQ(f.get(), static_cast<int>(i));
        EXPECT_EQ(reaped, i);
        ++reaped;
        return Status::Ok();
      },
      &reported_peak);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(reaped, cost.size());
  EXPECT_EQ(reported_peak, seen_peak);
  EXPECT_GT(seen_peak, 0u);  // it did run ahead
  EXPECT_LE(reported_peak, kBudget);
}

TEST(TransferWindow, ZeroBudgetIssuesOnlyTheNextItemToReap) {
  // K = 1 with nothing fetched ahead is the serial loop: item i + 1 goes
  // out only once item i was reaped, zero-cost items included.
  constexpr std::size_t kCount = 5;
  std::size_t reaped = 0;
  WindowBounds bounds;
  bounds.window = 1;
  bounds.ahead_budget = 0;
  bounds.issue_on_completion = true;
  Status st = RunInOrderWindow(
      kCount, bounds, [](std::size_t) { return std::size_t{0}; },
      [&](std::size_t i, WindowDone done) {
        EXPECT_EQ(i, reaped) << "issued before item " << reaped << " was reaped";
        return Ready(static_cast<int>(i), done);
      },
      [&](std::size_t i, std::future<int> f) {
        EXPECT_EQ(f.get(), static_cast<int>(i));
        ++reaped;
        return Status::Ok();
      });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(reaped, kCount);
}

TEST(TransferWindow, CompletionsIssueWhileTheReapRuns) {
  // With issue_on_completion, the thread that completes an operation
  // issues the next one: reaping item 0 waits until items up to kWindow
  // were issued, which only the completing threads can do meanwhile.
  constexpr std::size_t kWindow = 2;
  constexpr std::size_t kCount = 6;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t issued = 0;
  bool reap_timed_out = false;
  std::vector<std::thread> threads;
  WindowBounds bounds;
  bounds.window = kWindow;
  bounds.issue_on_completion = true;
  Status st = RunInOrderWindow(
      kCount, bounds, [](std::size_t) { return std::size_t{0}; },
      [&](std::size_t i, WindowDone done) {
        std::lock_guard<std::mutex> lock(mu);
        ++issued;
        cv.notify_all();
        return RunThen(threads, [i] { return static_cast<int>(i); }, done);
      },
      [&](std::size_t i, std::future<int> f) {
        EXPECT_EQ(f.get(), static_cast<int>(i));
        if (i == 0) {
          std::unique_lock<std::mutex> lock(mu);
          reap_timed_out = !cv.wait_for(lock, std::chrono::seconds(10),
                                        [&] { return issued > kWindow; });
        }
        return Status::Ok();
      });
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(reap_timed_out);
  EXPECT_EQ(issued, kCount);
  for (auto& t : threads) t.join();
}

TEST(TransferWindow, FailedReapStopsIssuingAndWaitsOutIssued) {
  // Every future completes on its own thread well after issue; the window
  // must not return while one it issued is still pending.
  constexpr std::size_t kCount = 10;
  std::vector<std::thread> threads;
  std::vector<std::atomic<bool>> done(kCount);
  std::vector<std::size_t> reaped;
  std::size_t issued = 0;
  std::size_t issued_at_failure = 0;
  Status st = RunInOrderWindow(
      kCount, 4,
      [&](std::size_t i, WindowDone window_done) {
        ++issued;
        return RunThen(
            threads,
            [&done, i] {
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
              done[i].store(true);
              return static_cast<int>(i);
            },
            window_done);
      },
      [&](std::size_t i, std::future<int> f) {
        f.get();
        reaped.push_back(i);
        if (i != 2) return Status::Ok();
        issued_at_failure = issued;
        return Status::Unavailable("injected");
      });
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(reaped, (std::vector<std::size_t>{0, 1, 2}));
  // Items past 2 may have been issued as earlier ones completed, but
  // nothing was issued after reaping item 2 failed.
  EXPECT_GE(issued_at_failure, 3u);
  EXPECT_EQ(issued, issued_at_failure);
  for (std::size_t i = 0; i < issued; ++i) EXPECT_TRUE(done[i].load()) << i;
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace ginja
