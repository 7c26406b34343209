// FleetRuntime — the shared resource pool behind a multi-tenant fleet.
//
// One Ginja instance per protected database does not scale to a DR
// service: N tenants would mean N uploader pools, N transfer managers,
// and N codec pools on one host. The runtime pools the expensive
// resources once (Taurus/LogBase-style shared services) and hands each
// tenant a scoped view:
//
//   * UploadScheduler — one pool of uploader threads executing WAL-object
//     upload jobs for every tenant, scheduled by deficit round robin over
//     per-tenant FIFO queues so a hot tenant cannot monopolize the PUT
//     path and starve another tenant's S bound;
//   * TransferManager — one worker pool / one global in-flight window for
//     stream parts, checkpoint parts, recovery GETs, and GC DELETEs, with
//     per-tenant TransferAccounts for attribution and scoped cancel;
//   * CodecPool — one set of codec workers for envelope encoding;
//   * Observability — one registry; tenants label their series tenant=<id>.
//
// Per-tenant state (B/S/TB knobs, pending window, CloudView, namespaced
// store) stays inside each Ginja; only execution resources are shared, so
// S/TS blocking semantics remain per-tenant exact.
//
// There is no other upload path: a standalone Ginja (or a directly
// constructed pipeline) runs on a private one-tenant runtime built by
// MakeStandaloneRuntime from its own config.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cloud/object_store.h"
#include "cloud/transfer.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/codec/codec_pool.h"
#include "common/stats.h"
#include "ginja/config.h"
#include "obs/obs.h"

namespace ginja {

// Per-worker reusable buffers handed to each upload job. Capacity
// amortizes across jobs from every tenant.
struct UploadScratch {
  Bytes framing;
  Bytes enveloped;
};

// Deficit-round-robin scheduler over per-tenant upload queues.
//
// Each registered tenant owns a FIFO of jobs; a job carries its byte cost
// (the logical object size). Workers visit tenants with non-empty queues
// in round-robin order, topping the visited tenant's deficit up by one
// quantum per visit and running its head job once the deficit covers the
// job's cost — so over time each backlogged tenant gets an equal *byte*
// share of the upload path regardless of how fast it enqueues. Two
// fairness mechanisms compose:
//
//   * byte fairness (the deficit): a hot tenant with 20 MB objects cannot
//     drain ahead of a cold tenant's 4 KB objects by sheer queue depth;
//   * slot fairness: with A tenants backlogged, one tenant may occupy at
//     most ceil(threads / A) workers at once, so a single tenant can
//     never hold every worker while another has work ready. With one
//     active tenant the cap is the whole pool: a standalone instance's
//     private runtime runs its jobs on every worker.
//
// Jobs of one tenant start in FIFO order (they may complete out of order
// across workers, like the paper's N parallel uploaders).
class UploadScheduler {
 public:
  struct Options {
    int threads = 8;
    // Deficit added per round-robin visit. Smaller quanta interleave
    // tenants more finely at the price of more scheduling passes per
    // large object.
    std::size_t quantum_bytes = 256 * 1024;
  };

  // Opaque per-tenant handle; owned by the scheduler, valid from
  // Register until Deregister returns.
  class Tenant;

  explicit UploadScheduler(Options options);
  ~UploadScheduler();

  UploadScheduler(const UploadScheduler&) = delete;
  UploadScheduler& operator=(const UploadScheduler&) = delete;

  // Registers a tenant queue. `id` is informational (stats, logs).
  Tenant* Register(std::string id);

  // Removes the tenant: waits until none of its jobs are queued or
  // running. With `discard_queued`, queued jobs are dropped unrun (the
  // Kill path); otherwise the queue drains normally first (clean Stop).
  // The handle is invalid once this returns.
  void Deregister(Tenant* tenant, bool discard_queued);

  // Appends a job to the tenant's queue. `cost_bytes` is the job's
  // scheduling weight (use the logical object size; 0 is treated as 1).
  void Enqueue(Tenant* tenant, std::size_t cost_bytes,
               std::function<void(UploadScratch&)> run);

  // Jobs queued or running for this tenant (its upload backlog).
  std::size_t Backlog(const Tenant* tenant) const;

  // Lifetime jobs executed for this tenant, and bytes of cost scheduled.
  std::uint64_t JobsRun(const Tenant* tenant) const;
  std::uint64_t BytesScheduled(const Tenant* tenant) const;

  int threads() const { return options_.threads; }

 private:
  struct Job {
    std::size_t cost = 1;
    std::function<void(UploadScratch&)> run;
  };

  void WorkerLoop();
  // Picks the next runnable job under mu_; null when nothing is eligible
  // (queues empty, or every backlogged tenant is at its slot cap).
  Tenant* PickLocked(Job* out);

  Options options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: new job / slot freed
  std::condition_variable idle_cv_;   // Deregister: tenant went idle
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<Tenant*> active_;       // tenants with non-empty queues
  std::size_t cursor_ = 0;            // round-robin position in active_
  bool stop_ = false;

  std::vector<std::thread> workers_;
};

class UploadScheduler::Tenant {
 public:
  const std::string& id() const { return id_; }

 private:
  friend class UploadScheduler;

  explicit Tenant(std::string id) : id_(std::move(id)) {}

  std::string id_;
  // All mutable state is guarded by the scheduler's mu_.
  std::deque<Job> queue_;
  std::size_t deficit_ = 0;
  int running_ = 0;
  bool in_active_ = false;
  bool discarding_ = false;
  std::uint64_t jobs_run_ = 0;
  std::uint64_t bytes_scheduled_ = 0;
};

// Bundles the shared pools. Construct once per host, then pass (via
// GinjaConfig::runtime, normally through GinjaFleet) to every tenant.
class FleetRuntime {
 public:
  struct Options {
    // Uploader threads shared by all tenants' commit pipelines.
    int uploader_threads = 8;
    std::size_t drr_quantum_bytes = 256 * 1024;
    // Shared TransferManager concurrency (stream parts, checkpoint parts,
    // GC deletes, recovery GETs — the global in-flight window).
    int transfer_concurrency = 16;
    // Retry schedule for the shared manager.
    TransferOptions transfer;
    // Codec workers for chunk-parallel envelope encoding; <= 1 disables
    // the shared pool (tenants encode serially).
    int codec_threads = 4;
  };

  // `base_store` is the fleet's shared bucket: the store that per-tenant
  // TenantNamespace wrappers scope into. The shared TransferManager binds
  // to it, but every tenant op overrides the store via its TransferRoute,
  // so decorators (metering, faults) stay per-tenant.
  FleetRuntime(ObjectStorePtr base_store, std::shared_ptr<Clock> clock,
               Options options, std::shared_ptr<Observability> obs = nullptr);
  // Default Options. (A `= {}` default argument trips GCC's deferred
  // parsing of the nested aggregate's member initializers.)
  FleetRuntime(ObjectStorePtr base_store, std::shared_ptr<Clock> clock);
  ~FleetRuntime();

  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  UploadScheduler& scheduler() { return scheduler_; }
  const std::shared_ptr<TransferManager>& transfers() const {
    return transfers_;
  }
  const std::shared_ptr<CodecPool>& codec_pool() const { return codec_pool_; }
  const std::shared_ptr<Observability>& obs() const { return obs_; }
  const std::shared_ptr<Clock>& clock() const { return clock_; }
  const ObjectStorePtr& base_store() const { return base_store_; }
  const Options& options() const { return options_; }

 private:
  Options options_;
  ObjectStorePtr base_store_;
  std::shared_ptr<Clock> clock_;
  std::shared_ptr<Observability> obs_;
  std::shared_ptr<CodecPool> codec_pool_;
  std::shared_ptr<TransferManager> transfers_;
  UploadScheduler scheduler_;
};

// The private one-tenant runtime behind a standalone Ginja or a directly
// constructed pipeline, sized from existing config knobs only:
// `uploader_threads` scheduler workers, `codec_threads` codec workers, the
// config's retry schedule (`max_retries` etc.), and one transfer pool as
// large as the pools it replaces — `transfer_concurrency` for checkpoint
// parts and GC, plus max(uploader_threads, transfer_concurrency) for
// streamed parts and tails when `streaming_commit` is on. `config.obs`
// (may be null) receives the shared manager's component="fleet" series.
std::shared_ptr<FleetRuntime> MakeStandaloneRuntime(
    ObjectStorePtr store, std::shared_ptr<Clock> clock,
    const GinjaConfig& config);

}  // namespace ginja
