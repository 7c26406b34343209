#include <gtest/gtest.h>

#include <thread>

#include "common/blocking_queue.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/stats.h"

namespace ginja {
namespace {

// -- BlockingQueue --------------------------------------------------------------

TEST(BlockingQueue, PutTakeFifo) {
  BlockingQueue<int> q;
  q.Put(1);
  q.Put(2);
  q.Put(3);
  EXPECT_EQ(q.Take(), 1);
  EXPECT_EQ(q.Take(), 2);
  EXPECT_EQ(q.Take(), 3);
}

TEST(BlockingQueue, CapacityBlocksPut) {
  BlockingQueue<int> q(2);
  q.Put(1);
  q.Put(2);
  std::atomic<bool> third_done{false};
  std::thread producer([&] {
    q.Put(3);
    third_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_done.load());
  EXPECT_EQ(q.Take(), 1);
  producer.join();
  EXPECT_TRUE(third_done.load());
}

TEST(BlockingQueue, CloseUnblocksTakers) {
  BlockingQueue<int> q;
  std::optional<int> got = std::nullopt;
  std::thread consumer([&] { got = q.Take(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
  EXPECT_FALSE(got.has_value());
}

TEST(BlockingQueue, CloseDrainsRemainingItems) {
  BlockingQueue<int> q;
  q.Put(7);
  q.Close();
  EXPECT_EQ(q.Take(), 7);
  EXPECT_FALSE(q.Take().has_value());
  EXPECT_FALSE(q.Put(8));
}

TEST(BlockingQueue, TakeForTimesOut) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.TakeFor(5'000).has_value());
  q.Put(9);
  EXPECT_EQ(q.TakeFor(5'000), 9);
}

TEST(BlockingQueue, ForcePutIgnoresCapacity) {
  BlockingQueue<int> q(1);
  q.Put(1);
  EXPECT_TRUE(q.ForcePut(2));
  EXPECT_EQ(q.Size(), 2u);
}

// -- Clock ------------------------------------------------------------------------

TEST(ManualClock, AdvanceWakesSleepers) {
  ManualClock clock;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepMicros(100);
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load());
  clock.Advance(99);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load());
  clock.Advance(1);
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(ScaledClock, ScaleShortensWallSleep) {
  ScaledClock clock(1000.0);  // 1000 model-us per wall-us
  const auto start = std::chrono::steady_clock::now();
  clock.SleepMicros(100'000);  // 100 model-ms -> 100 wall-us
  const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_LT(wall, 50'000);
}

TEST(RealClock, MonotoneNow) {
  RealClock clock;
  const auto a = clock.NowMicros();
  const auto b = clock.NowMicros();
  EXPECT_LE(a, b);
}

// -- RNG ----------------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  SplitMix64 a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, RangeBounds) {
  SplitMix64 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.NextInRange(5, 15);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 15);
  }
}

TEST(Rng, NuRandInRange) {
  SplitMix64 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const auto v = NuRand(rng, 1023, 1, 3000, 259);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3000);
  }
}

TEST(Rng, GaussianRoughMoments) {
  SplitMix64 rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

// -- Stats ------------------------------------------------------------------------

TEST(Stats, MeterBasics) {
  Meter m;
  m.Record(1);
  m.Record(3);
  m.Record(5);
  EXPECT_EQ(m.Count(), 3u);
  EXPECT_DOUBLE_EQ(m.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(m.Min(), 1.0);
  EXPECT_DOUBLE_EQ(m.Max(), 5.0);
  m.Reset();
  EXPECT_EQ(m.Count(), 0u);
}

TEST(Stats, HistogramQuantiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  EXPECT_EQ(h.Count(), 1000u);
  EXPECT_NEAR(h.Mean(), 500.5, 0.01);
  // Geometric buckets: quantiles are approximate, within a bucket factor.
  EXPECT_GT(h.Quantile(0.5), 300);
  EXPECT_LT(h.Quantile(0.5), 900);
  EXPECT_GE(h.Quantile(0.99), 900);
}

TEST(Stats, CounterConcurrent) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Get(), 40000u);
}

TEST(Stats, HumanFormatting) {
  EXPECT_EQ(HumanCount(1500), "1.50k");
  EXPECT_EQ(HumanCount(2'500'000), "2.50M");
  EXPECT_EQ(HumanBytes(1024), "1.0kB");
  EXPECT_EQ(HumanBytes(10.5 * 1024 * 1024), "10.50MB");
}

}  // namespace
}  // namespace ginja
