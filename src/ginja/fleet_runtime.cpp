#include "ginja/fleet_runtime.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ginja {

UploadScheduler::UploadScheduler(Options options) : options_(options) {
  options_.threads = std::max(1, options_.threads);
  options_.quantum_bytes = std::max<std::size_t>(1, options_.quantum_bytes);
  workers_.reserve(static_cast<std::size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

UploadScheduler::~UploadScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Tenants are expected to Deregister before the runtime dies; anything
  // still queued here is dropped unrun, like a cancelled transfer.
}

UploadScheduler::Tenant* UploadScheduler::Register(std::string id) {
  auto tenant = std::unique_ptr<Tenant>(new Tenant(std::move(id)));
  Tenant* handle = tenant.get();
  std::lock_guard<std::mutex> lock(mu_);
  tenants_.push_back(std::move(tenant));
  return handle;
}

void UploadScheduler::Deregister(Tenant* tenant, bool discard_queued) {
  std::unique_lock<std::mutex> lock(mu_);
  if (discard_queued) {
    tenant->discarding_ = true;
    tenant->queue_.clear();
    if (tenant->in_active_) {
      auto it = std::find(active_.begin(), active_.end(), tenant);
      if (it != active_.end()) {
        if (static_cast<std::size_t>(it - active_.begin()) < cursor_) {
          --cursor_;
        }
        active_.erase(it);
      }
      tenant->in_active_ = false;
    }
  }
  // Clean path: the queue drains through the workers; Kill path: only the
  // jobs already running finish.
  idle_cv_.wait(lock, [&] {
    return tenant->queue_.empty() && tenant->running_ == 0;
  });
  tenant->discarding_ = true;  // a late Enqueue after this is dropped
  auto it = std::find_if(
      tenants_.begin(), tenants_.end(),
      [&](const std::unique_ptr<Tenant>& t) { return t.get() == tenant; });
  if (it != tenants_.end()) tenants_.erase(it);
}

void UploadScheduler::Enqueue(Tenant* tenant, std::size_t cost_bytes,
                              std::function<void(UploadScratch&)> run) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_ || tenant->discarding_) return;  // dropped, like a cancelled op
  Job job;
  job.cost = std::max<std::size_t>(1, cost_bytes);
  job.run = std::move(run);
  tenant->queue_.push_back(std::move(job));
  if (!tenant->in_active_) {
    tenant->in_active_ = true;
    active_.push_back(tenant);
  }
  work_cv_.notify_one();
}

std::size_t UploadScheduler::Backlog(const Tenant* tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenant->queue_.size() +
         static_cast<std::size_t>(tenant->running_);
}

std::uint64_t UploadScheduler::JobsRun(const Tenant* tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenant->jobs_run_;
}

std::uint64_t UploadScheduler::BytesScheduled(const Tenant* tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenant->bytes_scheduled_;
}

UploadScheduler::Tenant* UploadScheduler::PickLocked(Job* out) {
  // Each pass either serves a funded head job, funds an underfunded one
  // (deficit grows by a quantum, so it is funded within cost/quantum
  // visits), or skips a tenant at its slot cap. Only when *every* active
  // tenant is capped is there nothing to do.
  std::size_t capped_streak = 0;
  while (!active_.empty()) {
    if (cursor_ >= active_.size()) cursor_ = 0;
    Tenant* t = active_[cursor_];
    // Ceiling split keeps every worker busy when the pool does not divide
    // evenly (8 threads / 3 tenants -> cap 3, not 2 with two idle).
    const int active_count = static_cast<int>(active_.size());
    const int cap = (options_.threads + active_count - 1) / active_count;
    if (t->running_ >= cap) {
      ++cursor_;
      if (++capped_streak >= active_.size()) return nullptr;
      continue;
    }
    if (t->deficit_ < t->queue_.front().cost) {
      t->deficit_ += options_.quantum_bytes;
      capped_streak = 0;
      if (t->deficit_ < t->queue_.front().cost) {
        ++cursor_;
        continue;
      }
    }
    *out = std::move(t->queue_.front());
    t->queue_.pop_front();
    t->bytes_scheduled_ += out->cost;
    if (t->queue_.empty()) {
      // An idle tenant carries no credit into its next burst (classic DRR).
      t->deficit_ = 0;
      t->in_active_ = false;
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    } else {
      t->deficit_ -= out->cost;
      if (t->deficit_ < t->queue_.front().cost) {
        // Burst exhausted: rotate. Without this the cursor parks on one
        // backlogged tenant, re-funding it a quantum per visit while every
        // other tenant waits for its queue to drain.
        ++cursor_;
      }
    }
    ++t->running_;
    return t;
  }
  return nullptr;
}

void UploadScheduler::WorkerLoop() {
  UploadScratch scratch;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    Job job;
    Tenant* tenant = nullptr;
    work_cv_.wait(lock, [&] {
      if (stop_) return true;
      tenant = PickLocked(&job);
      return tenant != nullptr;
    });
    if (tenant == nullptr) return;  // stopping with nothing picked
    lock.unlock();
    job.run(scratch);
    lock.lock();
    --tenant->running_;
    ++tenant->jobs_run_;
    if (tenant->queue_.empty() && tenant->running_ == 0) {
      idle_cv_.notify_all();
    }
    // The freed slot may make this tenant schedulable for parked workers.
    work_cv_.notify_one();
  }
}

namespace {

TransferOptions FleetTransferOptions(const FleetRuntime::Options& options) {
  TransferOptions t = options.transfer;
  t.concurrency = std::max(1, options.transfer_concurrency);
  return t;
}

}  // namespace

FleetRuntime::FleetRuntime(ObjectStorePtr base_store,
                           std::shared_ptr<Clock> clock, Options options,
                           std::shared_ptr<Observability> obs)
    : options_(options),
      base_store_(std::move(base_store)),
      clock_(clock ? std::move(clock) : std::make_shared<RealClock>()),
      obs_(obs ? std::move(obs) : std::make_shared<Observability>()),
      codec_pool_(options_.codec_threads > 1
                      ? std::make_shared<CodecPool>(options_.codec_threads)
                      : nullptr),
      transfers_(std::make_shared<TransferManager>(
          base_store_, FleetTransferOptions(options_), clock_)),
      scheduler_(UploadScheduler::Options{
          options_.uploader_threads, options_.drr_quantum_bytes}) {
  assert(base_store_ != nullptr);
  transfers_->RegisterMetrics(&obs_->registry, "fleet");
}

FleetRuntime::FleetRuntime(ObjectStorePtr base_store,
                           std::shared_ptr<Clock> clock)
    : FleetRuntime(std::move(base_store), std::move(clock), Options{}) {}

FleetRuntime::~FleetRuntime() = default;

std::shared_ptr<FleetRuntime> MakeStandaloneRuntime(
    ObjectStorePtr store, std::shared_ptr<Clock> clock,
    const GinjaConfig& config) {
  FleetRuntime::Options options;
  options.uploader_threads = config.uploader_threads;
  options.transfer = MakeTransferOptions(config, 1);
  options.transfer_concurrency = config.transfer_concurrency;
  if (config.streaming_commit) {
    options.transfer_concurrency +=
        std::max(config.uploader_threads, config.transfer_concurrency);
  }
  options.codec_threads = config.codec_threads;
  return std::make_shared<FleetRuntime>(std::move(store), std::move(clock),
                                        options, config.obs);
}

}  // namespace ginja
