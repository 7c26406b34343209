// Multi-tenant fleet tests: the DRR upload scheduler's fairness
// guarantees, tenant key namespacing, per-tenant S bounds on shared
// resources, the GinjaFleet facade, and — the load-bearing one — that a
// 1-tenant fleet is byte-for-byte identical to the standalone pipeline.
// Suite names start with "Fleet" so the ThreadSanitizer CI job's filter
// picks them up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cloud/faulty_store.h"
#include "cloud/memory_store.h"
#include "cloud/tenant_namespace.h"
#include "db/database.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"
#include "ginja/commit_pipeline.h"
#include "ginja/fleet.h"
#include "ginja/fleet_runtime.h"
#include "ginja/ginja.h"

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

// A latch the test jobs block on until the main thread releases them.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// -- UploadScheduler ----------------------------------------------------------

// With equal-cost jobs and one worker, DRR must alternate between the
// backlogged tenants: a 50-job hot queue cannot make a 5-job cold queue
// wait for it to drain.
TEST(FleetScheduler, RoundRobinInterleavesEqualCostTenants) {
  UploadScheduler::Options opts;
  opts.threads = 1;
  opts.quantum_bytes = 1024;
  UploadScheduler sched(opts);
  auto* hot = sched.Register("hot");
  auto* cold = sched.Register("cold");

  Gate gate;
  std::mutex order_mu;
  std::vector<char> order;
  // Park the worker so both queues are fully built before scheduling
  // starts.
  sched.Enqueue(hot, 1024, [&](UploadScratch&) { gate.Wait(); });
  auto record = [&](char who) {
    return [&, who](UploadScratch&) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(who);
    };
  };
  for (int i = 0; i < 50; ++i) sched.Enqueue(hot, 1024, record('h'));
  for (int i = 0; i < 5; ++i) sched.Enqueue(cold, 1024, record('c'));
  gate.Open();
  sched.Deregister(cold, /*discard_queued=*/false);
  sched.Deregister(hot, /*discard_queued=*/false);

  ASSERT_EQ(order.size(), 55u);
  // All five cold jobs must land inside the first few interleaved slots,
  // not after the hot backlog.
  std::size_t last_cold = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 'c') last_cold = i;
  }
  EXPECT_LE(last_cold, 12u) << std::string(order.begin(), order.end());
}

// Byte fairness: a tenant shipping 4 KB objects gets the same byte share
// as one shipping 1 KB objects, so the small-object tenant runs ~4 jobs
// per large job rather than queuing behind it.
TEST(FleetScheduler, DeficitGivesEqualByteShares) {
  UploadScheduler::Options opts;
  opts.threads = 1;
  opts.quantum_bytes = 1024;
  UploadScheduler sched(opts);
  auto* big = sched.Register("big");
  auto* small = sched.Register("small");

  Gate gate;
  std::mutex order_mu;
  std::vector<std::pair<char, std::size_t>> order;  // (tenant, cost)
  sched.Enqueue(big, 1, [&](UploadScratch&) { gate.Wait(); });
  auto record = [&](char who, std::size_t cost) {
    return [&, who, cost](UploadScratch&) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.emplace_back(who, cost);
    };
  };
  for (int i = 0; i < 10; ++i) sched.Enqueue(big, 4096, record('b', 4096));
  for (int i = 0; i < 40; ++i) sched.Enqueue(small, 1024, record('s', 1024));
  gate.Open();
  sched.Deregister(small, /*discard_queued=*/false);
  sched.Deregister(big, /*discard_queued=*/false);

  ASSERT_EQ(order.size(), 50u);
  // While both tenants are backlogged, scheduled bytes may diverge by at
  // most ~one large job plus one quantum.
  std::size_t bytes_b = 0, bytes_s = 0;
  std::size_t done_b = 0, done_s = 0;
  for (const auto& [who, cost] : order) {
    if (who == 'b') {
      bytes_b += cost;
      ++done_b;
    } else {
      bytes_s += cost;
      ++done_s;
    }
    if (done_b < 10 && done_s < 40) {
      const std::size_t hi = std::max(bytes_b, bytes_s);
      const std::size_t lo = std::min(bytes_b, bytes_s);
      EXPECT_LE(hi - lo, 4096u + 1024u) << "after " << (done_b + done_s);
    }
  }
}

// Slot fairness: with two backlogged tenants on four workers, neither may
// hold more than ceil(4/2) = 2 workers at once.
TEST(FleetScheduler, SlotCapSplitsWorkersBetweenBackloggedTenants) {
  UploadScheduler::Options opts;
  opts.threads = 4;
  UploadScheduler sched(opts);
  auto* warm = sched.Register("warm");
  auto* a = sched.Register("a");
  auto* b = sched.Register("b");

  // Park all four workers on a warmup tenant first; otherwise a worker can
  // legally grab 3-4 of a's jobs before b's are even enqueued (one active
  // tenant => the cap is the whole pool).
  Gate warm_gate, gate;
  std::mutex entered_mu;
  std::condition_variable entered_cv;
  int warmed = 0, entered = 0;
  for (int i = 0; i < 4; ++i) {
    sched.Enqueue(warm, 1, [&](UploadScratch&) {
      {
        std::lock_guard<std::mutex> lock(entered_mu);
        ++warmed;
      }
      entered_cv.notify_all();
      warm_gate.Wait();
    });
  }
  {
    std::unique_lock<std::mutex> lock(entered_mu);
    entered_cv.wait(lock, [&] { return warmed == 4; });
  }

  std::atomic<int> running_a{0}, running_b{0};
  auto blocker = [&](std::atomic<int>& counter) {
    return [&](UploadScratch&) {
      counter.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(entered_mu);
        ++entered;
      }
      entered_cv.notify_all();
      gate.Wait();
    };
  };
  for (int i = 0; i < 6; ++i) sched.Enqueue(a, 1, blocker(running_a));
  for (int i = 0; i < 6; ++i) sched.Enqueue(b, 1, blocker(running_b));
  warm_gate.Open();
  {
    std::unique_lock<std::mutex> lock(entered_mu);
    entered_cv.wait(lock, [&] { return entered == 4; });
  }
  // All four workers are occupied and both tenants still have queued work:
  // the cap forces an even 2/2 split.
  EXPECT_EQ(running_a.load(), 2);
  EXPECT_EQ(running_b.load(), 2);
  gate.Open();
  sched.Deregister(warm, /*discard_queued=*/false);
  sched.Deregister(a, /*discard_queued=*/false);
  sched.Deregister(b, /*discard_queued=*/false);
}

// With a single active tenant the cap is the whole pool — the fleet
// degenerates to the standalone uploader pool (the equivalence claim).
TEST(FleetScheduler, SingleActiveTenantUsesWholePool) {
  UploadScheduler::Options opts;
  opts.threads = 4;
  UploadScheduler sched(opts);
  auto* only = sched.Register("only");

  Gate gate;
  std::mutex entered_mu;
  std::condition_variable entered_cv;
  int entered = 0;
  for (int i = 0; i < 4; ++i) {
    sched.Enqueue(only, 1, [&](UploadScratch&) {
      {
        std::lock_guard<std::mutex> lock(entered_mu);
        ++entered;
      }
      entered_cv.notify_all();
      gate.Wait();
    });
  }
  {
    std::unique_lock<std::mutex> lock(entered_mu);
    entered_cv.wait(lock, [&] { return entered == 4; });
  }
  EXPECT_EQ(entered, 4);  // every worker took a job from the one tenant
  gate.Open();
  sched.Deregister(only, /*discard_queued=*/false);
}

// The Kill path: Deregister(discard) drops queued jobs unrun but still
// waits out the one already on a worker.
TEST(FleetScheduler, DeregisterDiscardDropsQueuedJobsButWaitsForRunning) {
  UploadScheduler::Options opts;
  opts.threads = 1;
  UploadScheduler sched(opts);
  auto* t = sched.Register("t");

  Gate gate;
  std::atomic<bool> gate_entered{false};
  std::atomic<bool> gate_ran{false};
  std::atomic<int> dropped_jobs_ran{0};
  sched.Enqueue(t, 1, [&](UploadScratch&) {
    gate_entered = true;
    gate.Wait();
    gate_ran = true;
  });
  for (int i = 0; i < 5; ++i) {
    sched.Enqueue(t, 1, [&](UploadScratch&) { dropped_jobs_ran.fetch_add(1); });
  }
  // The gate job must be on the worker before the discard: a discard that
  // wins the race drops it too, and Deregister then frees `t` while the
  // Backlog poll below still reads it.
  while (!gate_entered) std::this_thread::yield();
  std::thread dereg([&] { sched.Deregister(t, /*discard_queued=*/true); });
  // Deregister clears the queue immediately; only the running gate job
  // remains, and Deregister blocks on it.
  while (sched.Backlog(t) != 1) std::this_thread::yield();
  gate.Open();
  dereg.join();
  EXPECT_TRUE(gate_ran.load());
  EXPECT_EQ(dropped_jobs_ran.load(), 0);
}

// The clean-Stop path: Deregister without discard drains the queue first.
TEST(FleetScheduler, DeregisterDrainsQueueByDefault) {
  UploadScheduler::Options opts;
  opts.threads = 2;
  UploadScheduler sched(opts);
  auto* t = sched.Register("t");
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    sched.Enqueue(t, 1, [&](UploadScratch&) { ran.fetch_add(1); });
  }
  sched.Deregister(t, /*discard_queued=*/false);
  EXPECT_EQ(ran.load(), 20);
}

// -- TenantNamespace ----------------------------------------------------------

TEST(FleetNamespace, PrefixesKeysAndStripsListings) {
  auto base = std::make_shared<MemoryStore>();
  TenantNamespace ns(base, TenantNamespace::Prefix("alpha"));
  ASSERT_TRUE(ns.Put("WAL/1", View(Bytes{1, 2, 3})).ok());

  // The raw bucket sees the prefixed key; the tenant view sees the flat one.
  EXPECT_TRUE(base->Get("t/alpha/WAL/1").ok());
  auto got = ns.Get("WAL/1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (Bytes{1, 2, 3}));

  auto list = ns.List("WAL/");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].name, "WAL/1");

  ASSERT_TRUE(ns.Delete("WAL/1").ok());
  EXPECT_FALSE(base->Get("t/alpha/WAL/1").ok());
}

TEST(FleetNamespace, CursorListingScopesTheStartAfterKey) {
  // The start-after cursor must be scoped like the prefix: a tenant's
  // standby passes flat keys, and they compare against flat keys only.
  auto base = std::make_shared<MemoryStore>();
  TenantNamespace ns(base, TenantNamespace::Prefix("alpha"));
  ASSERT_TRUE(ns.Put("WAL/1_a", View(Bytes{1})).ok());
  ASSERT_TRUE(ns.Put("WAL/2_b", View(Bytes{2})).ok());
  TenantNamespace other(base, TenantNamespace::Prefix("beta"));
  ASSERT_TRUE(other.Put("WAL/3_c", View(Bytes{3})).ok());

  auto list = ns.List("WAL/", "WAL/1_a");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].name, "WAL/2_b");  // stripped, and no beta leakage

  auto derived = ns.List("WAL/", "WAL/2");
  ASSERT_TRUE(derived.ok());
  ASSERT_EQ(derived->size(), 1u);
  EXPECT_EQ((*derived)[0].name, "WAL/2_b");
}

TEST(FleetNamespace, TenantsAreMutuallyInvisible) {
  auto base = std::make_shared<MemoryStore>();
  TenantNamespace a(base, TenantNamespace::Prefix("a"));
  TenantNamespace b(base, TenantNamespace::Prefix("b"));
  ASSERT_TRUE(a.Put("WAL/1", View(Bytes{1})).ok());
  ASSERT_TRUE(b.Put("WAL/2", View(Bytes{2})).ok());

  auto la = a.List("");
  auto lb = b.List("");
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());
  ASSERT_EQ(la->size(), 1u);
  ASSERT_EQ(lb->size(), 1u);
  EXPECT_EQ((*la)[0].name, "WAL/1");
  EXPECT_EQ((*lb)[0].name, "WAL/2");
  EXPECT_FALSE(a.Get("WAL/2").ok());
  EXPECT_FALSE(b.Get("WAL/1").ok());
}

TEST(FleetNamespace, StreamedPutPublishesUnderPrefix) {
  auto base = std::make_shared<MemoryStore>();
  TenantNamespace ns(base, TenantNamespace::Prefix("s"));
  auto writer = ns.BeginStreaming("stage/hint");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendPart(0, View(Bytes{'h', 'i'})).ok());
  ASSERT_TRUE((*writer)->Finish("WALTAIL/5").ok());

  EXPECT_TRUE(base->Get("t/s/WALTAIL/5").ok());
  auto got = ns.Get("WALTAIL/5");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (Bytes{'h', 'i'}));
  // No staging residue is visible through the tenant view.
  auto list = ns.List("");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].name, "WALTAIL/5");
}

// -- 1-tenant fleet == standalone pipeline ------------------------------------

// A fleet of one must produce byte-for-byte the cloud objects and the
// frontier trace of a standalone pipeline. Both run on a FleetRuntime (the
// standalone one builds its own), so this proves the shared-runtime wiring
// and the TenantNamespace key prefix transparent. A single scheduler
// thread gives the in-order acks that make the per-batch frontier trace
// deterministic.
TEST(FleetEquivalence, SingleTenantFleetMatchesStandalonePipeline) {
  struct RunResult {
    std::map<std::string, Bytes> contents;
    std::vector<Lsn> trace;
  };
  auto drive = [](CommitPipeline& pipeline, std::vector<Lsn>& trace) {
    pipeline.SetFrontierListener(
        [&] { trace.push_back(pipeline.UploadedWalFrontier()); });
    pipeline.Start();
    for (int i = 0; i < 300; ++i) {
      pipeline.Submit(W("pg_xlog/seg" + std::to_string(i % 3),
                        static_cast<std::uint64_t>(i % 7) * 8192, 96,
                        static_cast<std::uint64_t>(i + 1) * 10));
    }
    pipeline.Stop();
  };
  auto snapshot = [](ObjectStore& store) {
    std::map<std::string, Bytes> contents;
    auto objects = store.List("");
    EXPECT_TRUE(objects.ok());
    for (const auto& meta : *objects) {
      auto blob = store.Get(meta.name);
      EXPECT_TRUE(blob.ok());
      contents[meta.name] = *blob;
    }
    return contents;
  };
  GinjaConfig config;
  config.batch = 10;
  config.batch_timeout_us = 10'000'000;  // never fires: full batches only
  config.safety = 10'000;
  config.uploader_threads = 1;

  RunResult standalone;
  {
    auto store = std::make_shared<MemoryStore>();
    auto view = std::make_shared<CloudView>();
    auto clock = std::make_shared<RealClock>();
    auto envelope = std::make_shared<Envelope>(EnvelopeOptions{});
    CommitPipeline pipeline(store, view, clock, config, envelope);
    drive(pipeline, standalone.trace);
    standalone.contents = snapshot(*store);
  }

  RunResult fleet;
  {
    auto base = std::make_shared<MemoryStore>();
    auto clock = std::make_shared<RealClock>();
    FleetRuntime::Options opts;
    opts.uploader_threads = 1;
    auto runtime = std::make_shared<FleetRuntime>(base, clock, opts);
    auto store = std::make_shared<TenantNamespace>(
        base, TenantNamespace::Prefix("solo"));
    auto view = std::make_shared<CloudView>();
    auto envelope = std::make_shared<Envelope>(EnvelopeOptions{});
    GinjaConfig tenant_config = config;
    tenant_config.runtime = runtime;
    tenant_config.tenant_id = "solo";
    CommitPipeline pipeline(store, view, clock, tenant_config, envelope);
    drive(pipeline, fleet.trace);
    fleet.contents = snapshot(*store);  // tenant view: flat names
    // Every raw key carries the tenant prefix.
    auto raw = base->List("");
    ASSERT_TRUE(raw.ok());
    for (const auto& meta : *raw) {
      EXPECT_EQ(meta.name.rfind("t/solo/", 0), 0u) << meta.name;
    }
  }

  ASSERT_FALSE(standalone.contents.empty());
  ASSERT_EQ(standalone.trace.size(), 30u);  // 300 writes / B=10
  EXPECT_EQ(fleet.contents, standalone.contents);
  EXPECT_EQ(fleet.trace, standalone.trace);
}

// -- Fairness across tenants on shared resources ------------------------------

struct FleetPipelineFixture {
  std::shared_ptr<CloudView> view = std::make_shared<CloudView>();
  std::shared_ptr<Envelope> envelope =
      std::make_shared<Envelope>(EnvelopeOptions{});

  std::unique_ptr<CommitPipeline> Make(
      const std::shared_ptr<FleetRuntime>& runtime, const std::string& id,
      GinjaConfig config, ObjectStorePtr store) {
    config.runtime = runtime;
    config.tenant_id = id;
    auto p = std::make_unique<CommitPipeline>(
        std::move(store), std::make_shared<CloudView>(), runtime->clock(),
        config, envelope);
    p->Start();
    return p;
  }
};

// Delays every PUT so a hot tenant builds a real upload backlog.
class SlowStore : public ObjectStore {
 public:
  explicit SlowStore(ObjectStorePtr inner, std::chrono::microseconds delay)
      : inner_(std::move(inner)), delay_(delay) {}
  Status Put(std::string_view name, ByteView data) override {
    std::this_thread::sleep_for(delay_);
    return inner_->Put(name, data);
  }
  Result<Bytes> Get(std::string_view name) override { return inner_->Get(name); }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }
  Status Delete(std::string_view name) override { return inner_->Delete(name); }

 private:
  ObjectStorePtr inner_;
  std::chrono::microseconds delay_;
};

// No starvation: a cold tenant's handful of writes drains while a hot
// tenant still has hundreds of slow uploads queued on the shared pool.
TEST(FleetFairness, ColdTenantDrainsWhileHotTenantBacklogged) {
  auto base = std::make_shared<MemoryStore>();
  auto slow = std::make_shared<SlowStore>(base, std::chrono::microseconds(500));
  auto clock = std::make_shared<RealClock>();
  FleetRuntime::Options opts;
  opts.uploader_threads = 1;       // one shared worker: fairness is all DRR
  opts.drr_quantum_bytes = 1024;   // rotate after every ~2 KB job
  auto runtime = std::make_shared<FleetRuntime>(slow, clock, opts);

  FleetPipelineFixture fx;
  GinjaConfig config;
  config.batch = 1;  // one upload job per write
  config.batch_timeout_us = 1'000;
  config.safety = 100'000;
  auto hot_store = std::make_shared<TenantNamespace>(
      slow, TenantNamespace::Prefix("hot"));
  auto cold_store = std::make_shared<TenantNamespace>(
      slow, TenantNamespace::Prefix("cold"));
  auto hot = fx.Make(runtime, "hot", config, hot_store);
  auto cold = fx.Make(runtime, "cold", config, cold_store);

  for (int i = 0; i < 600; ++i) {
    hot->Submit(W("pg_xlog/seg", 0, 2048, static_cast<std::uint64_t>(i + 1)));
  }
  for (int i = 0; i < 5; ++i) {
    cold->Submit(W("pg_xlog/seg", 0, 2048, static_cast<std::uint64_t>(i + 1)));
  }
  cold->Drain();
  // The cold tenant is fully confirmed while the hot backlog still exists:
  // DRR interleaved it instead of queueing it behind 600 slow uploads.
  EXPECT_EQ(cold->PendingWrites(), 0u);
  EXPECT_GT(hot->PendingWrites(), 0u);
  hot->Stop();
  cold->Stop();
}

// During a shared-store outage every tenant blocks at its *own* S bound —
// resource sharing must not let one tenant's unconfirmed window bleed
// into another's.
TEST(FleetFairness, EachTenantBlocksAtItsOwnSafetyBound) {
  auto base = std::make_shared<MemoryStore>();
  auto faulty = std::make_shared<FaultyStore>(base);
  faulty->SetAvailable(false);
  auto clock = std::make_shared<RealClock>();
  FleetRuntime::Options opts;
  opts.uploader_threads = 2;
  auto runtime = std::make_shared<FleetRuntime>(faulty, clock, opts);

  FleetPipelineFixture fx;
  GinjaConfig base_config;
  base_config.batch = 1;
  base_config.batch_timeout_us = 1'000;
  base_config.safety_timeout_us = 60'000'000;
  base_config.retry_backoff_us = 2'000;
  base_config.retry_backoff_max_us = 10'000;
  base_config.max_retries = 1'000'000;

  GinjaConfig hot_config = base_config;
  hot_config.safety = 8;
  GinjaConfig cold_config = base_config;
  cold_config.safety = 3;
  auto hot = fx.Make(runtime, "hot", hot_config,
                     std::make_shared<TenantNamespace>(
                         faulty, TenantNamespace::Prefix("hot")));
  auto cold = fx.Make(runtime, "cold", cold_config,
                      std::make_shared<TenantNamespace>(
                          faulty, TenantNamespace::Prefix("cold")));

  std::atomic<int> hot_returned{0}, cold_returned{0};
  std::thread hot_writer([&] {
    for (int i = 0; i < 40; ++i) {
      hot->Submit(W("pg_xlog/h", 0, 128, static_cast<std::uint64_t>(i + 1)));
      hot_returned.fetch_add(1);
    }
  });
  std::thread cold_writer([&] {
    for (int i = 0; i < 40; ++i) {
      cold->Submit(W("pg_xlog/c", 0, 128, static_cast<std::uint64_t>(i + 1)));
      cold_returned.fetch_add(1);
    }
  });

  // Sample while the outage holds: neither tenant may ever exceed its own
  // S, whatever the other tenant does to the shared pool. (Submit
  // enqueues before blocking, so the blocked submitter's own write makes
  // the pending window S+1; at most S submits have *returned* — the
  // bound the paper's Alg. 2 states.)
  for (int sample = 0; sample < 40; ++sample) {
    EXPECT_LE(hot->PendingWrites(), 8u + 1u);
    EXPECT_LE(cold->PendingWrites(), 3u + 1u);
    EXPECT_LE(hot_returned.load(), 8);
    EXPECT_LE(cold_returned.load(), 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  faulty->SetAvailable(true);
  hot_writer.join();
  cold_writer.join();
  hot->Stop();
  cold->Stop();
  EXPECT_EQ(hot->PendingWrites(), 0u);
  EXPECT_EQ(cold->PendingWrites(), 0u);
}

// -- GinjaFleet facade --------------------------------------------------------

TEST(FleetFacade, AddTenantRejectsBadIds) {
  auto base = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  GinjaFleet fleet(std::make_shared<FleetRuntime>(base, clock));

  GinjaFleet::TenantSpec spec;
  spec.local_vfs = std::make_shared<MemFs>();
  spec.layout = DbLayout::Postgres();

  spec.id = "";
  EXPECT_EQ(fleet.AddTenant(spec).status().code(), ErrorCode::kInvalidArgument);
  spec.id = "a/b";
  EXPECT_EQ(fleet.AddTenant(spec).status().code(), ErrorCode::kInvalidArgument);
  spec.id = "a";
  EXPECT_TRUE(fleet.AddTenant(spec).ok());
  EXPECT_EQ(fleet.AddTenant(spec).status().code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(fleet.size(), 1u);
}

// Two full Ginja tenants on one runtime and one bucket: each commits its
// own rows, each recovers from its own namespace, and neither sees the
// other's data.
TEST(FleetFacade, TwoTenantsCommitAndRecoverInIsolation) {
  auto base = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  GinjaFleet fleet(std::make_shared<FleetRuntime>(base, clock));

  GinjaConfig config;
  config.batch = 4;
  config.safety = 64;
  config.batch_timeout_us = 20'000;
  config.retry_backoff_us = 2'000;

  struct TenantDb {
    std::shared_ptr<MemFs> local;
    std::shared_ptr<InterceptFs> intercept;
    std::unique_ptr<Database> db;
    Ginja* ginja = nullptr;
  };
  auto boot = [&](const std::string& id) {
    TenantDb t;
    t.local = std::make_shared<MemFs>();
    t.intercept = std::make_shared<InterceptFs>(t.local, clock);
    t.db = std::make_unique<Database>(t.intercept, DbLayout::Postgres());
    EXPECT_TRUE(t.db->Create().ok());
    EXPECT_TRUE(t.db->CreateTable("t").ok());
    GinjaFleet::TenantSpec spec;
    spec.id = id;
    spec.local_vfs = t.local;
    spec.layout = DbLayout::Postgres();
    spec.config = config;
    auto added = fleet.AddTenant(std::move(spec));
    EXPECT_TRUE(added.ok());
    t.ginja = *added;
    EXPECT_TRUE(t.ginja->Boot().ok());
    t.intercept->SetListener(t.ginja);
    return t;
  };
  auto put = [](TenantDb& t, const std::string& key, const std::string& val) {
    auto txn = t.db->Begin();
    ASSERT_TRUE(t.db->Put(txn, "t", key, ToBytes(val)).ok());
    ASSERT_TRUE(t.db->Commit(txn).ok());
  };

  TenantDb a = boot("alpha");
  TenantDb b = boot("beta");
  for (int i = 0; i < 30; ++i) {
    put(a, "ka" + std::to_string(i), "va" + std::to_string(i));
    put(b, "kb" + std::to_string(i), "vb" + std::to_string(i));
  }
  fleet.StopAll();

  // Recover each tenant from its own namespaced view of the shared bucket.
  for (const auto& [id, prefix] : std::vector<std::pair<std::string, char>>{
           {"alpha", 'a'}, {"beta", 'b'}}) {
    auto fresh = std::make_shared<MemFs>();
    Status st = Ginja::Recover(fleet.TenantStore(id), config,
                               DbLayout::Postgres(), fresh);
    ASSERT_TRUE(st.ok()) << id << ": " << st.ToString();
    Database recovered(fresh, DbLayout::Postgres());
    ASSERT_TRUE(recovered.Open().ok());
    for (int i = 0; i < 30; ++i) {
      const std::string mine = std::string("k") + prefix + std::to_string(i);
      const std::string other =
          std::string("k") + (prefix == 'a' ? 'b' : 'a') + std::to_string(i);
      auto v = recovered.Get("t", mine);
      ASSERT_TRUE(v.has_value()) << id << "/" << mine;
      EXPECT_EQ(ToString(View(*v)),
                std::string("v") + prefix + std::to_string(i));
      EXPECT_FALSE(recovered.Get("t", other).has_value()) << id << "/" << other;
    }
  }
}

// -- Config validation at Boot ------------------------------------------------

class FleetConfigValidation : public ::testing::Test {
 protected:
  Status BootWith(GinjaConfig config) {
    auto local = std::make_shared<MemFs>();
    auto store = std::make_shared<MemoryStore>();
    auto clock = std::make_shared<RealClock>();
    Ginja ginja(local, store, clock, DbLayout::Postgres(), config);
    return ginja.Boot();
  }
};

TEST_F(FleetConfigValidation, BootRejectsZeroUploaderThreads) {
  GinjaConfig config;
  config.uploader_threads = 0;
  Status st = BootWith(config);
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("uploader_threads"), std::string::npos);
}

TEST_F(FleetConfigValidation, BootRejectsZeroBatch) {
  GinjaConfig config;
  config.batch = 0;
  Status st = BootWith(config);
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("batch"), std::string::npos);
}

TEST_F(FleetConfigValidation, BootRejectsZeroMaxObjectBytes) {
  GinjaConfig config;
  config.max_object_bytes = 0;
  Status st = BootWith(config);
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("max_object_bytes"), std::string::npos);
}

TEST_F(FleetConfigValidation, BootRejectsZeroStreamSegmentWrites) {
  GinjaConfig config;
  config.stream_segment_writes = 0;
  Status st = BootWith(config);
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("stream_segment_writes"), std::string::npos);
}

}  // namespace
}  // namespace ginja
