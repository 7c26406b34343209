// Observability integration: the DR gauges and the write-lifecycle trace,
// exercised through the real pipelines rather than in isolation. The RPO
// test is the paper's loss bound made visible: during a cloud outage the
// exposure gauge must climb to exactly S and stop there — Safety blocks
// the DBMS before a disaster could lose write S+1.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "cloud/faulty_store.h"
#include "cloud/memory_store.h"
#include "cloud/metered_store.h"
#include "db/database.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"
#include "ginja/commit_pipeline.h"
#include "ginja/ginja.h"
#include "obs/obs.h"

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

double Gauge(const MetricsRegistry& registry, std::string_view name) {
  const MetricsSnapshot snap = registry.Snapshot();
  const MetricSample* sample = snap.Find(name);
  return sample == nullptr ? -1.0 : sample->gauge;
}

TEST(ObsIntegration, RpoExposureReachesExactlySafetyUnderOutageAndHolds) {
  constexpr std::uint64_t kSafety = 16;
  auto obs = std::make_shared<Observability>();
  auto inner = std::make_shared<MemoryStore>();
  auto faulty = std::make_shared<FaultyStore>(inner);
  faulty->RegisterMetrics(&obs->registry);
  faulty->SetAvailable(false);  // outage from the very first write

  GinjaConfig config;
  config.batch = 1;
  config.safety = kSafety;
  config.safety_timeout_us = 3'600'000'000ull;  // only S binds here, not TS
  config.retry_backoff_us = 2'000;
  config.max_retries = 1'000'000;
  config.obs = obs;

  auto view = std::make_shared<CloudView>();
  auto clock = std::make_shared<RealClock>();
  auto envelope = std::make_shared<Envelope>(EnvelopeOptions{});
  auto pipeline = std::make_unique<CommitPipeline>(faulty, view, clock,
                                                   config, envelope);
  pipeline->Start();

  EXPECT_EQ(Gauge(obs->registry, "ginja_rpo_exposure_writes"), 0.0);
  EXPECT_EQ(Gauge(obs->registry, "ginja_rpo_limit_writes"),
            static_cast<double>(kSafety));
  EXPECT_EQ(Gauge(obs->registry, "ginja_cloud_outage"), 1.0);

  // One sequential writer: each Submit returns before the next begins, so
  // the count of returned-but-unacknowledged writes is deterministic.
  std::thread writer([&] {
    for (int i = 0; i < 40; ++i) {
      pipeline->Submit(W("pg_xlog/0001", i * 8192, 512, (i + 1) * 10));
    }
  });

  // The gauge climbs as submits return, then pins at S when Safety blocks.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  double exposure = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    exposure = Gauge(obs->registry, "ginja_rpo_exposure_writes");
    ASSERT_LE(exposure, static_cast<double>(kSafety));  // never exceeds S
    if (exposure == static_cast<double>(kSafety)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(exposure, static_cast<double>(kSafety));

  // ... and holds exactly there for as long as the outage lasts.
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(Gauge(obs->registry, "ginja_rpo_exposure_writes"),
              static_cast<double>(kSafety));
  }
  EXPECT_GT(Gauge(obs->registry, "ginja_oldest_unacked_age_us"), 0.0);
  EXPECT_GT(Gauge(obs->registry, "ginja_unconfirmed_writes"), 0.0);

  // Cloud heals: the backlog drains and the exposure returns to zero.
  faulty->SetAvailable(true);
  writer.join();
  pipeline->Drain();
  EXPECT_EQ(Gauge(obs->registry, "ginja_cloud_outage"), 0.0);
  EXPECT_EQ(Gauge(obs->registry, "ginja_rpo_exposure_writes"), 0.0);
  pipeline->Stop();
  pipeline.reset();  // unregisters: the bundle outlives the pipeline
  EXPECT_EQ(obs->registry.Snapshot().Find("ginja_rpo_exposure_writes"),
            nullptr);
}

TEST(ObsIntegration, FullStackEmitsLatencyDecompositionAndCostGauges) {
  TraceOptions trace;
  trace.enabled = true;
  trace.sample_period = 1;  // trace every write for the test
  // A supplied bundle carries its own TraceOptions (config.trace only seeds
  // the private bundle Ginja builds when the config has none).
  auto obs = std::make_shared<Observability>(trace);
  auto clock = std::make_shared<RealClock>();
  auto metered =
      std::make_shared<MeteredStore>(std::make_shared<MemoryStore>(), clock);
  metered->RegisterMetrics(&obs->registry, PriceBook::AmazonS3May2017());

  GinjaConfig config;
  config.batch = 4;
  config.safety = 64;
  config.batch_timeout_us = 20'000;
  config.uploader_threads = 2;
  config.obs = obs;

  auto local = std::make_shared<MemFs>();
  auto intercept = std::make_shared<InterceptFs>(local, clock);
  const DbLayout layout = DbLayout::Postgres();
  Database db(intercept, layout);
  ASSERT_TRUE(db.Create().ok());
  ASSERT_TRUE(db.CreateTable("t").ok());
  Ginja ginja(local, metered, clock, layout, config);
  ASSERT_TRUE(ginja.Boot().ok());
  intercept->SetListener(&ginja);
  ASSERT_EQ(ginja.observability().get(), obs.get());  // shared, not private

  for (int i = 0; i < 60; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Put(txn, "t", "k" + std::to_string(i), ToBytes("v")).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }
  ginja.Stop();  // drains: every traced write completed its lifecycle

  const MetricsSnapshot snap = obs->registry.Snapshot();
  // The commit latency decomposition covers at least these five stages.
  for (const char* stage :
       {"staged", "batch_close", "encode_queue", "encode", "put", "ack"}) {
    const MetricSample* sample =
        snap.Find("ginja_stage_latency_us", {{"stage", stage}});
    ASSERT_NE(sample, nullptr) << stage;
    EXPECT_GT(sample->hist.count, 0u) << stage;
  }
  ASSERT_NE(snap.Find("ginja_commit_latency_us"), nullptr);
  EXPECT_GT(snap.Find("ginja_commit_latency_us")->hist.count, 0u);
  EXPECT_GT(snap.Find("ginja_commit_writes_submitted_total")->counter, 0u);
  EXPECT_GT(snap.Find("ginja_trace_events_total")->counter, 0u);

  // Cost gauges: the run PUT real objects, so dollars have accrued.
  const MetricSample* cost = snap.Find("ginja_cost_accrued_dollars");
  ASSERT_NE(cost, nullptr);
  EXPECT_GT(cost->gauge, 0.0);
  EXPECT_GT(snap.Find("ginja_cloud_puts")->gauge, 0.0);
  // The bill only grows (the storage integral keeps accruing with time).
  EXPECT_GE(metered->AccruedCost(PriceBook::AmazonS3May2017()), cost->gauge);

  // Transfer series come from the runtime's shared manager, under its
  // component label; the boot dump's part PUTs went through it.
  const MetricSample* puts =
      snap.Find("ginja_transfer_puts_total", {{"component", "fleet"}});
  ASSERT_NE(puts, nullptr);
  EXPECT_GT(puts->counter, 0u);
}

TEST(ObsIntegration, RecoveryFeedsFetchAndApplyStages) {
  TraceOptions trace;
  trace.enabled = true;
  trace.sample_period = 1;
  auto obs = std::make_shared<Observability>(trace);
  auto clock = std::make_shared<RealClock>();
  auto store = std::make_shared<MemoryStore>();

  GinjaConfig config;
  config.batch = 2;
  config.safety = 64;
  config.obs = obs;

  auto local = std::make_shared<MemFs>();
  auto intercept = std::make_shared<InterceptFs>(local, clock);
  const DbLayout layout = DbLayout::Postgres();
  Database db(intercept, layout);
  ASSERT_TRUE(db.Create().ok());
  ASSERT_TRUE(db.CreateTable("t").ok());
  Ginja ginja(local, store, clock, layout, config);
  ASSERT_TRUE(ginja.Boot().ok());
  intercept->SetListener(&ginja);
  for (int i = 0; i < 20; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Put(txn, "t", "k" + std::to_string(i), ToBytes("v")).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }
  ginja.Stop();

  auto fresh = std::make_shared<MemFs>();
  RecoveryReport report;
  ASSERT_TRUE(Ginja::Recover(store, config, layout, fresh, &report,
                             std::nullopt, clock)
                  .ok());
  EXPECT_GT(report.objects_downloaded, 0u);

  const MetricsSnapshot snap = obs->registry.Snapshot();
  for (const char* stage : {"recovery_fetch", "recovery_apply"}) {
    const MetricSample* sample =
        snap.Find("ginja_stage_latency_us", {{"stage", stage}});
    ASSERT_NE(sample, nullptr) << stage;
    EXPECT_GT(sample->hist.count, 0u) << stage;
  }
  // The recovery transfer manager also registered (and then unregistered
  // on teardown inside Recover) — what persists is the tracer's series.
  EXPECT_NE(snap.Find("ginja_trace_events_total"), nullptr);
}

}  // namespace
}  // namespace ginja
