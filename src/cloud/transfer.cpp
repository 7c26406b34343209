#include "cloud/transfer.h"

#include <algorithm>

#include "obs/log.h"

namespace ginja {

namespace {

// Slice length for cancellable backoff sleeps (model time).
constexpr std::uint64_t kSleepSliceUs = 20'000;

}  // namespace

std::uint64_t RetryPolicy::NextBackoffUs(int attempt) {
  if (retries_) retries_->Add();
  double backoff = static_cast<double>(options_.backoff_initial_us);
  for (int i = 1; i < attempt; ++i) {
    backoff *= options_.backoff_multiplier;
    if (backoff >= static_cast<double>(options_.backoff_max_us)) break;
  }
  backoff = std::min(backoff, static_cast<double>(options_.backoff_max_us));
  if (options_.backoff_jitter > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    backoff *= 1.0 + options_.backoff_jitter * (2.0 * rng_.NextDouble() - 1.0);
  }
  return static_cast<std::uint64_t>(backoff);
}

bool SleepUnlessCancelled(Clock& clock, std::uint64_t micros,
                          const std::function<bool()>& cancelled) {
  while (micros > 0) {
    if (cancelled()) return false;
    const std::uint64_t slice = std::min(micros, kSleepSliceUs);
    clock.SleepMicros(slice);
    micros -= slice;
  }
  return !cancelled();
}

TransferManager::TransferManager(ObjectStorePtr store, TransferOptions options,
                                 std::shared_ptr<Clock> clock)
    : store_(std::move(store)),
      options_(options),
      clock_(clock ? std::move(clock) : std::make_shared<RealClock>()),
      retry_(options, &stats_.retries) {
  options_.concurrency = std::max(1, options_.concurrency);
  options_.max_attempts = std::max(1, options_.max_attempts);
  workers_.reserve(static_cast<std::size_t>(options_.concurrency));
  for (int i = 0; i < options_.concurrency; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TransferManager::~TransferManager() {
  if (registry_) registry_->Unregister(this);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  // Fail whatever is still queued (only possible after Cancel raced new
  // submissions, or when futures were dropped mid-shutdown).
  for (auto& op : queue_) Fail(op, Status::Aborted("transfer manager destroyed"));
}

void TransferManager::RegisterMetrics(MetricsRegistry* registry,
                                      std::string component) {
  if (registry_) registry_->Unregister(this);
  registry_ = registry;
  if (!registry_) return;
  const MetricLabels labels = {{"component", std::move(component)}};
  registry_->RegisterCounter(this, "ginja_transfer_gets_total", labels,
                             &stats_.gets);
  registry_->RegisterCounter(this, "ginja_transfer_puts_total", labels,
                             &stats_.puts);
  registry_->RegisterCounter(this, "ginja_transfer_deletes_total", labels,
                             &stats_.deletes);
  registry_->RegisterCounter(this, "ginja_transfer_retries_total", labels,
                             &stats_.retries);
  registry_->RegisterCounter(this, "ginja_transfer_failed_ops_total", labels,
                             &stats_.failed_ops);
  registry_->RegisterCounter(this, "ginja_transfer_bytes_downloaded_total",
                             labels, &stats_.bytes_downloaded);
  registry_->RegisterCounter(this, "ginja_transfer_bytes_uploaded_total",
                             labels, &stats_.bytes_uploaded);
  registry_->RegisterCounter(this, "ginja_transfer_streams_opened_total",
                             labels, &stats_.streams_opened);
  registry_->RegisterCounter(this, "ginja_transfer_streams_finished_total",
                             labels, &stats_.streams_finished);
  registry_->RegisterCounter(this, "ginja_transfer_stream_parts_total",
                             labels, &stats_.stream_parts);
  registry_->RegisterHistogram(this, "ginja_transfer_part_put_latency_us",
                               labels, &stats_.part_put_latency_us);
  registry_->RegisterHistogram(this, "ginja_transfer_first_byte_latency_us",
                               labels, &stats_.first_byte_latency_us);
  registry_->RegisterHistogram(this, "ginja_transfer_get_latency_us", labels,
                               &stats_.get_latency_us);
  registry_->RegisterHistogram(this, "ginja_transfer_put_latency_us", labels,
                               &stats_.put_latency_us);
  registry_->RegisterHistogram(this, "ginja_transfer_delete_latency_us",
                               labels, &stats_.delete_latency_us);
  registry_->RegisterGauge(this, "ginja_transfer_inflight", labels, [this] {
    return static_cast<double>(stats_.inflight.load(std::memory_order_relaxed));
  });
  registry_->RegisterGauge(this, "ginja_transfer_peak_inflight", labels,
                           [this] {
                             return static_cast<double>(stats_.peak_inflight.load(
                                 std::memory_order_relaxed));
                           });
}

void TransferManager::Fail(Op& op, const Status& status) {
  if (op.kind == Op::Kind::kGet) {
    op.get_result.set_value(Result<Bytes>(status));
  } else {
    op.status_result.set_value(status);
  }
  if (op.done) op.done(status);
  if (op.account) op.account->OnDone(status, 0);
}

bool TransferManager::Enqueue(Op op) {
  // The account sees the op as pending from before the queue decision, so
  // WaitIdle cannot miss it; both outcomes (queued-then-executed, failed
  // here) settle it exactly once.
  if (op.account) op.account->OnEnqueue();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!cancelled_.load(std::memory_order_acquire) && !stop_) {
      queue_.push_back(std::move(op));
      cv_.notify_one();
      return true;
    }
  }
  Fail(op, Status::Aborted("transfer manager cancelled"));
  return false;
}

std::future<Result<Bytes>> TransferManager::GetAsync(
    TransferRoute route, std::string name, std::function<void(Bytes)> then,
    std::function<void(Status)> done) {
  Op op;
  op.kind = Op::Kind::kGet;
  op.name = std::move(name);
  op.then = std::move(then);
  op.done = std::move(done);
  op.store = std::move(route.store);
  op.account = std::move(route.account);
  auto future = op.get_result.get_future();
  Enqueue(std::move(op));
  return future;
}

std::future<Status> TransferManager::PutAsync(TransferRoute route,
                                              std::string name, Bytes data,
                                              std::function<void(Status)> done) {
  Op op;
  op.kind = Op::Kind::kPut;
  op.name = std::move(name);
  op.data = std::move(data);
  op.done = std::move(done);
  op.store = std::move(route.store);
  op.account = std::move(route.account);
  auto future = op.status_result.get_future();
  Enqueue(std::move(op));
  return future;
}

std::future<Status> TransferManager::DeleteAsync(TransferRoute route,
                                                 std::string name) {
  Op op;
  op.kind = Op::Kind::kDelete;
  op.name = std::move(name);
  op.store = std::move(route.store);
  op.account = std::move(route.account);
  auto future = op.status_result.get_future();
  Enqueue(std::move(op));
  return future;
}

void TransferManager::PutAsyncCb(TransferRoute route, std::string name,
                                 Bytes data, std::function<void(Status)> done) {
  Op op;
  op.kind = Op::Kind::kPut;
  op.name = std::move(name);
  op.data = std::move(data);
  op.done = std::move(done);
  op.store = std::move(route.store);
  op.account = std::move(route.account);
  Enqueue(std::move(op));
}

void TransferManager::DeleteAsyncCb(TransferRoute route, std::string name,
                                    std::function<void(Status)> done) {
  Op op;
  op.kind = Op::Kind::kDelete;
  op.name = std::move(name);
  op.done = std::move(done);
  op.store = std::move(route.store);
  op.account = std::move(route.account);
  Enqueue(std::move(op));
}

std::future<Status> TransferManager::SubmitFn(TransferRoute route,
                                              std::function<Status()> fn,
                                              std::function<void(Status)> done) {
  Op op;
  op.kind = Op::Kind::kFn;
  op.name = "<fn>";
  op.fn = std::move(fn);
  op.done = std::move(done);
  op.store = std::move(route.store);
  op.account = std::move(route.account);
  auto future = op.status_result.get_future();
  Enqueue(std::move(op));
  return future;
}

StreamSessionPtr TransferManager::BeginStream(TransferRoute route,
                                              std::string staging_hint) {
  stats_.streams_opened.Add();
  return StreamSessionPtr(
      new StreamSession(this, std::move(route), std::move(staging_hint)));
}

std::vector<Status> TransferManager::DeleteAll(
    TransferRoute route, const std::vector<std::string>& names) {
  std::vector<std::future<Status>> futures;
  futures.reserve(names.size());
  for (const auto& name : names) futures.push_back(DeleteAsync(route, name));
  std::vector<Status> statuses;
  statuses.reserve(names.size());
  for (auto& f : futures) statuses.push_back(f.get());
  return statuses;
}

void TransferManager::Cancel() {
  std::deque<Op> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_.store(true, std::memory_order_release);
    orphans.swap(queue_);
  }
  cv_.notify_all();
  for (auto& op : orphans) Fail(op, Status::Aborted("transfer manager cancelled"));
}

void TransferManager::WorkerLoop() {
  while (true) {
    Op op;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stop_ || cancelled_.load(std::memory_order_acquire) ||
               !queue_.empty();
      });
      if (queue_.empty()) {
        if (stop_ || cancelled_.load(std::memory_order_acquire)) return;
        continue;
      }
      op = std::move(queue_.front());
      queue_.pop_front();
    }
    if (op.account && op.account->cancelled()) {
      Fail(op, Status::Aborted("transfer account cancelled"));
      continue;
    }
    const int now_inflight =
        stats_.inflight.fetch_add(1, std::memory_order_relaxed) + 1;
    int peak = stats_.peak_inflight.load(std::memory_order_relaxed);
    while (peak < now_inflight &&
           !stats_.peak_inflight.compare_exchange_weak(
               peak, now_inflight, std::memory_order_relaxed)) {
    }
    Execute(op);
    stats_.inflight.fetch_sub(1, std::memory_order_relaxed);
  }
}

void TransferManager::Execute(Op& op) {
  const std::uint64_t started = clock_->NowMicros();
  // The op's route may override the manager's store (a fleet tenant's
  // namespaced stack); the worker pool, retry policy, and in-flight
  // window stay shared either way.
  ObjectStore* store = op.store ? op.store.get() : store_.get();
  Status last(ErrorCode::kUnavailable, "not attempted");
  const auto cancelled = [&] {
    return cancelled_.load(std::memory_order_acquire) ||
           (op.account && op.account->cancelled());
  };
  for (int attempt = 1;; ++attempt) {
    switch (op.kind) {
      case Op::Kind::kGet: {
        auto blob = store->Get(op.name);
        if (blob.ok()) {
          stats_.gets.Add();
          stats_.bytes_downloaded.Add(blob->size());
          stats_.get_latency_us.Record(
              static_cast<double>(clock_->NowMicros() - started));
          if (op.then) {
            op.then(std::move(*blob));
            blob = Bytes{};
          }
          op.get_result.set_value(std::move(blob));
          if (op.done) op.done(Status::Ok());
          if (op.account) op.account->OnDone(Status::Ok(), 0);
          return;
        }
        last = blob.status();
        break;
      }
      case Op::Kind::kPut: {
        Status st = store->Put(op.name, View(op.data));
        if (st.ok()) {
          stats_.puts.Add();
          stats_.bytes_uploaded.Add(op.data.size());
          stats_.put_latency_us.Record(
              static_cast<double>(clock_->NowMicros() - started));
          op.status_result.set_value(st);
          if (op.done) op.done(st);
          if (op.account) op.account->OnDone(st, op.data.size());
          return;
        }
        last = st;
        break;
      }
      case Op::Kind::kDelete: {
        Status st = store->Delete(op.name);
        if (st.ok()) {
          stats_.deletes.Add();
          stats_.delete_latency_us.Record(
              static_cast<double>(clock_->NowMicros() - started));
          op.status_result.set_value(st);
          if (op.done) op.done(st);
          if (op.account) op.account->OnDone(st, 0);
          return;
        }
        last = st;
        break;
      }
      case Op::Kind::kFn: {
        Status st = op.fn();
        if (st.ok()) {
          op.status_result.set_value(st);
          if (op.done) op.done(st);
          if (op.account) op.account->OnDone(st, 0);
          return;
        }
        last = st;
        break;
      }
    }
    if (!RetryPolicy::Retryable(last.code()) ||
        attempt >= options_.max_attempts || cancelled()) {
      break;
    }
    if (!SleepUnlessCancelled(*clock_, retry_.NextBackoffUs(attempt),
                              cancelled)) {
      last = Status::Aborted("transfer cancelled");
      break;
    }
  }
  stats_.failed_ops.Add();
  // Cancellation is an orderly shutdown, not an anomaly worth a record.
  if (last.code() != ErrorCode::kAborted) {
    Log(LogLevel::kWarn, "transfer", "operation permanently failed",
        {{"object", op.name}, {"status", last.ToString()}});
  }
  Fail(op, last);
}

StreamSession::StreamSession(TransferManager* manager, TransferRoute route,
                             std::string staging_hint)
    : manager_(manager),
      route_(std::move(route)),
      staging_hint_(std::move(staging_hint)),
      opened_us_(manager->clock_->NowMicros()) {}

Status StreamSession::EnsureWriter() {
  // Worker-side: only the single in-flight operation touches writer_, and
  // op_inflight_ transitions under mu_ order those touches.
  if (writer_) return Status::Ok();
  ObjectStore* store =
      route_.store ? route_.store.get() : manager_->store_.get();
  auto writer = store->BeginStreaming(staging_hint_);
  if (!writer.ok()) return writer.status();
  writer_ = std::move(*writer);
  return Status::Ok();
}

void StreamSession::AppendPart(std::uint32_t index, Bytes part,
                               std::function<void(Status)> done) {
  bool dead = false;
  bool durable = false;
  Status failure;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_) {
      dead = true;
      failure = failure_;
    } else if (index < next_index_) {
      durable = true;  // idempotent resubmission of a landed part
    } else {
      pending_[index] = {std::move(part), std::move(done)};
    }
  }
  if (dead) {
    if (done) done(failure);
    return;
  }
  if (durable) {
    if (done) done(Status::Ok());
    return;
  }
  Pump();
}

std::future<Status> StreamSession::Finish(std::uint32_t total_parts,
                                          std::string final_name,
                                          std::function<void(Status)> done) {
  std::future<Status> future;
  bool dead = false;
  Status failure;
  {
    std::lock_guard<std::mutex> lock(mu_);
    future = finish_promise_.get_future();
    finish_requested_ = true;
    total_parts_ = total_parts;
    final_name_ = std::move(final_name);
    if (failed_) {
      dead = true;
      failure = failure_;
      if (!finish_resolved_) {
        finish_resolved_ = true;
        finish_promise_.set_value(failure);
      }
    } else {
      finish_done_ = std::move(done);
    }
  }
  if (dead) {
    if (done) done(failure);
    return future;
  }
  Pump();
  return future;
}

void StreamSession::Abort() {
  const Status status = Status::Aborted("stream aborted");
  std::vector<std::function<void(Status)>> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drained = FailLocked(status);
  }
  for (auto& cb : drained) cb(status);
}

bool StreamSession::WithinWindow(std::uint32_t index,
                                 std::uint32_t window) const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_ || index < next_index_ + window;
}

std::vector<std::function<void(Status)>> StreamSession::FailLocked(
    const Status& status) {
  std::vector<std::function<void(Status)>> cbs;
  if (failed_) return cbs;
  failed_ = true;
  failure_ = status;
  for (auto& [index, entry] : pending_) {
    if (entry.second) cbs.push_back(std::move(entry.second));
  }
  pending_.clear();
  if (finish_requested_ && !finish_resolved_) {
    finish_resolved_ = true;
    finish_promise_.set_value(status);
    if (finish_done_) cbs.push_back(std::move(finish_done_));
  }
  return cbs;
}

void StreamSession::Pump() {
  std::function<Status()> fn;
  std::function<void(Status)> done;
  auto self = shared_from_this();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (op_inflight_ || failed_) return;
    auto it = pending_.find(next_index_);
    if (it != pending_.end()) {
      const std::uint32_t index = next_index_;
      auto part = std::make_shared<Bytes>(std::move(it->second.first));
      auto part_done = std::move(it->second.second);
      pending_.erase(it);
      op_inflight_ = true;
      const std::uint64_t started = manager_->clock_->NowMicros();
      fn = [self, index, part]() -> Status {
        Status st = self->EnsureWriter();
        if (!st.ok()) return st;
        return self->writer_->AppendPart(index, View(*part));
      };
      done = [self, index, started, bytes = part->size(),
              part_done = std::move(part_done)](Status st) {
        self->OnPartDone(index, started, bytes, st, part_done);
      };
    } else if (finish_requested_ && next_index_ >= total_parts_) {
      op_inflight_ = true;
      fn = [self]() -> Status {
        Status st = self->EnsureWriter();  // a zero-part stream still opens
        if (!st.ok()) return st;
        return self->writer_->Finish(self->final_name_);
      };
      done = [self](Status st) { self->OnFinishDone(st); };
    } else {
      return;  // waiting for the next dense index (or for Finish)
    }
  }
  // Outside mu_: a synchronous failure (manager cancelled) invokes `done`
  // on this thread, which re-enters via On*Done -> Pump and returns on
  // failed_ without deadlocking. The session's route bills each writer
  // operation to the tenant's account.
  TransferRoute route;
  route.account = route_.account;
  manager_->SubmitFn(std::move(route), std::move(fn), std::move(done));
}

void StreamSession::OnPartDone(std::uint32_t index, std::uint64_t started_us,
                               std::size_t bytes, const Status& status,
                               const std::function<void(Status)>& done) {
  Status report = status;
  std::vector<std::function<void(Status)>> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    op_inflight_ = false;
    if (failed_) {
      report = failure_;  // e.g. Abort() raced the in-flight part
    } else if (status.ok()) {
      next_index_ = index + 1;
      const std::uint64_t now = manager_->clock_->NowMicros();
      manager_->stats_.stream_parts.Add();
      manager_->stats_.bytes_uploaded.Add(bytes);
      manager_->stats_.part_put_latency_us.Record(
          static_cast<double>(now - started_us));
      if (index == 0) {
        manager_->stats_.first_byte_latency_us.Record(
            static_cast<double>(now - opened_us_));
      }
    } else {
      drained = FailLocked(status);
    }
  }
  if (done) done(report);
  for (auto& cb : drained) cb(status);
  Pump();
}

void StreamSession::OnFinishDone(const Status& status) {
  Status report = status;
  std::function<void(Status)> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    op_inflight_ = false;
    if (failed_) {
      report = failure_;
    } else if (status.ok()) {
      manager_->stats_.streams_finished.Add();
    } else {
      failed_ = true;  // later appends must not resurrect the stream
      failure_ = status;
    }
    if (!finish_resolved_) {
      finish_resolved_ = true;
      finish_promise_.set_value(report);
      done = std::move(finish_done_);
    }
  }
  if (done) done(report);
}

}  // namespace ginja
