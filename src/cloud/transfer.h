// TransferManager — bounded-concurrency async transfers to an ObjectStore.
//
// Every serial consumer of the store pays one full round-trip per call
// against services whose latency is dominated by a per-request base —
// exactly the request-level parallelism S3-style stores are built to
// absorb. TransferManager owns a small worker pool that keeps up to
// `concurrency` operations in flight and applies one shared retry policy
// (jittered exponential backoff on transient errors) so retry behaviour
// lives in a single place instead of per-call-site loops.
//
// Consumers in this repo:
//   * recovery's GET prefetch (plan items and manifest chunks) and the
//     checkpointer's part/chunk PUTs keep their windows through
//     RunInOrderWindow() below: K operations incomplete, however slow the
//     head, and recovery's lookahead bounded in plan-known bytes; recovery
//     takes each blob as it lands (GetAsync's `then`) and decodes it in
//     SubmitFn tasks on the same workers;
//   * garbage collection fans DELETEs out through DeleteAll();
//   * CommitPipeline streams WAL objects part-by-part via BeginStream().
//
// Every *Async call returns a std::future fulfilled by a worker thread.
// Dropping a future is safe: the operation still runs to completion (or is
// failed by Cancel()). Cancel() is terminal — queued operations fail with
// ABORTED, backoff sleeps are interrupted, and later submissions fail
// immediately; it is the crash-simulation (Kill) path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/object_store.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace ginja {

struct TransferOptions {
  // Worker threads == maximum operations in flight.
  int concurrency = 8;
  // Total attempts per operation (first try included).
  int max_attempts = 5;
  // Backoff before retry r is initial * multiplier^(r-1), capped at max,
  // scaled by a uniform jitter factor in [1 - jitter, 1 + jitter].
  std::uint64_t backoff_initial_us = 100'000;
  double backoff_multiplier = 2.0;
  std::uint64_t backoff_max_us = 5'000'000;
  double backoff_jitter = 0.2;
  std::uint64_t seed = 0x6a09'e667'f3bc'c908ull;
};

// The shared retry schedule: jittered exponential backoff on transient
// errors. Extracted from TransferManager so every retry loop in the repo —
// the manager's workers and the commit pipeline's uploaders — draws delays
// from one policy instead of re-implementing its own. Thread-safe: any
// number of threads may call NextBackoffUs concurrently.
class RetryPolicy {
 public:
  // `retries` (optional) is bumped once per NextBackoffUs call, i.e. once
  // per failed attempt that will be retried.
  explicit RetryPolicy(const TransferOptions& options,
                       Counter* retries = nullptr)
      : options_(options), rng_(options.seed), retries_(retries) {}

  int max_attempts() const { return options_.max_attempts < 1 ? 1 : options_.max_attempts; }

  // Transient errors worth retrying; NOT_FOUND and CORRUPTION are answers,
  // not failures, and retrying them would only hide real damage.
  static bool Retryable(ErrorCode code) {
    return code == ErrorCode::kUnavailable || code == ErrorCode::kIoError;
  }

  // Backoff before the retry that follows failed attempt `attempt`
  // (1-based): initial * multiplier^(attempt-1), capped at backoff_max_us,
  // scaled by a uniform jitter factor in [1 - jitter, 1 + jitter].
  std::uint64_t NextBackoffUs(int attempt);

 private:
  TransferOptions options_;
  std::mutex mu_;  // guards rng_
  SplitMix64 rng_;
  Counter* retries_;
};

// The backoff sleep of every retry loop: sleeps `micros` of model time in
// 20 ms slices and returns false as soon as `cancelled()` holds (checked
// before each slice and at the end), so a Cancel or Kill interrupts it
// within one slice.
bool SleepUnlessCancelled(Clock& clock, std::uint64_t micros,
                          const std::function<bool()>& cancelled);

// Per-tenant scope for operations submitted to a *shared* TransferManager.
// A fleet runs one manager (one worker pool, one global in-flight window)
// for all tenants; each tenant tags its operations with an account so that
//   * usage is attributed (ops/bytes per tenant),
//   * one tenant can be cancelled (its queued ops fail with ABORTED, its
//     backoff sleeps are interrupted) without touching the others — the
//     per-tenant analogue of TransferManager::Cancel(), and
//   * a tenant's shutdown can WaitIdle() until none of its operations are
//     queued or executing, without draining the whole pool.
class TransferAccount {
 public:
  explicit TransferAccount(std::string id) : id_(std::move(id)) {}

  const std::string& id() const { return id_; }

  // Terminal for this account only: queued operations fail with ABORTED
  // when a worker picks them up, in-flight retries stop at the next
  // backoff check. Other accounts are unaffected.
  void Cancel() {
    cancelled_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  // Blocks until no operation of this account is queued or executing.
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return pending_ == 0; });
  }

  std::uint64_t ops_completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  std::uint64_t ops_failed() const {
    return failed_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_uploaded() const {
    return bytes_uploaded_.load(std::memory_order_relaxed);
  }

 private:
  friend class TransferManager;

  void OnEnqueue() {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  void OnDone(const Status& status, std::size_t uploaded) {
    if (status.ok()) {
      completed_.fetch_add(1, std::memory_order_relaxed);
      bytes_uploaded_.fetch_add(uploaded, std::memory_order_relaxed);
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
  }

  std::string id_;
  std::atomic<bool> cancelled_{false};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> bytes_uploaded_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  int pending_ = 0;  // queued or executing operations (guarded by mu_)
};

using TransferAccountPtr = std::shared_ptr<TransferAccount>;

// Routing for one submission on a shared manager: which store the
// operation runs against (null = the manager's own store; a fleet tenant
// passes its TenantNamespace-wrapped stack) and which account it bills
// to (null = unaccounted). Default-constructed == the classic
// single-tenant behaviour.
struct TransferRoute {
  ObjectStorePtr store;
  TransferAccountPtr account;
};

struct TransferStats {
  Counter gets;              // successful operations
  Counter puts;
  Counter deletes;
  Counter retries;           // failed attempts that were retried
  Counter failed_ops;        // operations that returned an error
  Counter bytes_downloaded;
  Counter bytes_uploaded;
  // Streamed uploads (StreamSession).
  Counter streams_opened;
  Counter streams_finished;  // streams whose Finish published the object
  Counter stream_parts;      // parts durably staged
  // Model-time latency of successful operations, retries included.
  Histogram get_latency_us;
  Histogram put_latency_us;
  Histogram delete_latency_us;
  // Per-part latency (submit -> part durable) and the stream's first-byte
  // latency (stream open -> part 0 durable).
  Histogram part_put_latency_us;
  Histogram first_byte_latency_us;
  // Operations currently executing, and the high-water mark.
  std::atomic<int> inflight{0};
  std::atomic<int> peak_inflight{0};
};

class TransferManager;

// One streamed object upload driven through a TransferManager's workers.
//
// AppendPart is thread-safe and non-blocking: parts are staged under the
// session lock and fed to the backend's ObjectWriter strictly one at a
// time in dense index order (ObjectWriter is not thread-safe, and parts
// must land in order), reordering out-of-order submissions. Each writer
// call runs as one pool operation under the shared retry policy, so a
// transient store error retries with the same jittered backoff as every
// other transfer. Finish(total_parts, name) publishes the object once all
// parts < total_parts are durable; the supplied callback (and returned
// future) fire with the publish status.
//
// A permanent part failure kills the session: every staged and subsequent
// callback fires with that failure and Finish resolves with it. Abort()
// does the same with ABORTED; the underlying writer is reaped (backend
// abort) when the session is destroyed. Obtain sessions only from
// TransferManager::BeginStream, and drop them before the manager.
class StreamSession : public std::enable_shared_from_this<StreamSession> {
 public:
  // Stages part `index` (dense from 0). `done` fires exactly once, from a
  // worker thread, with the part's durability status. An index at or
  // below the durable frontier completes immediately with Ok.
  void AppendPart(std::uint32_t index, Bytes part,
                  std::function<void(Status)> done = nullptr);

  // Declares the stream complete at `total_parts` parts and publishes it
  // under `final_name` once they are all durable. Call at most once.
  std::future<Status> Finish(std::uint32_t total_parts, std::string final_name,
                             std::function<void(Status)> done = nullptr);

  // Fails everything still pending with ABORTED. Idempotent.
  void Abort();

  // Whether part `index` lies within `window` parts of the durable
  // frontier — the producer-side backpressure signal. The frontier's next
  // part is always admitted, so producers staging parts out of order can
  // never fill the window with parts that wait on one still unstaged. A
  // dead session admits everything (AppendPart fails it at once).
  bool WithinWindow(std::uint32_t index, std::uint32_t window) const;

 private:
  friend class TransferManager;

  StreamSession(TransferManager* manager, TransferRoute route,
                std::string staging_hint);

  // Submits the next runnable writer operation, if any. At most one is in
  // flight per session; completion re-enters Pump from the worker.
  void Pump();
  Status EnsureWriter();  // worker-side, lazy BeginStreaming
  void OnPartDone(std::uint32_t index, std::uint64_t started_us,
                  std::size_t bytes, const Status& status,
                  const std::function<void(Status)>& done);
  void OnFinishDone(const Status& status);
  // Marks the session dead and returns every callback owed the failure;
  // the caller invokes them outside mu_.
  std::vector<std::function<void(Status)>> FailLocked(const Status& status);

  TransferManager* manager_;
  TransferRoute route_;
  std::string staging_hint_;
  std::uint64_t opened_us_;
  ObjectWriterPtr writer_;  // touched only by the single in-flight op

  mutable std::mutex mu_;
  std::map<std::uint32_t, std::pair<Bytes, std::function<void(Status)>>>
      pending_;
  std::uint32_t next_index_ = 0;  // durable frontier: parts < this landed
  bool op_inflight_ = false;
  bool failed_ = false;
  Status failure_ = Status::Ok();
  bool finish_requested_ = false;
  bool finish_resolved_ = false;
  std::uint32_t total_parts_ = 0;
  std::string final_name_;
  std::function<void(Status)> finish_done_;
  std::promise<Status> finish_promise_;
};

using StreamSessionPtr = std::shared_ptr<StreamSession>;

class TransferManager {
 public:
  // `clock` supplies backoff sleeps and latency timestamps (model time);
  // when null a RealClock is used.
  TransferManager(ObjectStorePtr store, TransferOptions options,
                  std::shared_ptr<Clock> clock = nullptr);
  ~TransferManager();

  TransferManager(const TransferManager&) = delete;
  TransferManager& operator=(const TransferManager&) = delete;

  // Every submission is routed: the operation runs against `route.store`
  // (the manager's own store when null) and is attributed to
  // `route.account`. This is how N namespaced tenants share one pool and
  // one in-flight window; `{}` is the plain single-tenant route.
  //
  // `then` (optional) takes the fetched blob on the worker once the GET
  // succeeded, and the future resolves (with an empty blob) only after it
  // returned — so work on each object can start the moment it lands, not
  // when the caller gets to its future. It must never wait on the caller:
  // on a shared manager it holds a worker every tenant needs.
  //
  // `done` (optional) fires exactly once, for every outcome, after the
  // future became ready: the completion signal a window counts by.
  std::future<Result<Bytes>> GetAsync(TransferRoute route, std::string name,
                                      std::function<void(Bytes)> then = nullptr,
                                      std::function<void(Status)> done = nullptr);
  std::future<Status> PutAsync(TransferRoute route, std::string name,
                               Bytes data,
                               std::function<void(Status)> done = nullptr);
  std::future<Status> DeleteAsync(TransferRoute route, std::string name);

  // Callback variants: `done` fires exactly once from a worker thread
  // with the final status (after retries), sparing callers a future they
  // would only poll. The callback must not block for long — it runs on
  // the pool and stalls a worker while it does.
  void PutAsyncCb(TransferRoute route, std::string name, Bytes data,
                  std::function<void(Status)> done);
  void DeleteAsyncCb(TransferRoute route, std::string name,
                     std::function<void(Status)> done);

  // Runs an arbitrary store-touching closure on the pool under the shared
  // retry policy (`fn` is re-invoked on retryable errors, so it must be
  // retry-safe). Building block for StreamSession's writer operations.
  std::future<Status> SubmitFn(TransferRoute route, std::function<Status()> fn,
                               std::function<void(Status)> done = nullptr);

  // Opens a streamed object upload (see StreamSession above).
  // `staging_hint` names the backend's in-progress upload and must be
  // unique among concurrently open streams (a TenantNamespace store makes
  // it so across tenants by scoping the hint).
  StreamSessionPtr BeginStream(TransferRoute route, std::string staging_hint);

  // Fans the deletes out across the pool and waits for all of them.
  // Returns one status per name, index-aligned.
  std::vector<Status> DeleteAll(TransferRoute route,
                                const std::vector<std::string>& names);

  // Terminal: fails queued operations with ABORTED, interrupts backoff
  // sleeps, and makes subsequent submissions fail immediately.
  void Cancel();
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  const TransferStats& stats() const { return stats_; }
  const TransferOptions& options() const { return options_; }

  // Registers the manager's stats as ginja_transfer_*{component=...}.
  // The registration is undone automatically by the destructor (or by an
  // explicit second call with a different registry, which re-homes it).
  void RegisterMetrics(MetricsRegistry* registry, std::string component);

 private:
  friend class StreamSession;

  struct Op {
    enum class Kind { kGet, kPut, kDelete, kFn } kind = Kind::kGet;
    std::string name;
    Bytes data;                               // PUT payload, owned by the op
    std::function<Status()> fn;               // body for kFn
    std::function<void(Bytes)> then;          // kGet: takes the fetched blob
    std::promise<Result<Bytes>> get_result;   // fulfilled for kGet
    std::promise<Status> status_result;       // fulfilled otherwise
    // Optional completion hook, any kind; invoked after the promise.
    std::function<void(Status)> done;
    // Per-op routing: store override + billing account (see TransferRoute).
    ObjectStorePtr store;
    TransferAccountPtr account;
  };

  void WorkerLoop();
  void Execute(Op& op);
  // Fails the op and settles its account (exactly one of Fail/Execute
  // completes each enqueued op).
  static void Fail(Op& op, const Status& status);
  bool Enqueue(Op op);  // false (op already failed) when cancelled

  ObjectStorePtr store_;
  TransferOptions options_;
  std::shared_ptr<Clock> clock_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Op> queue_;
  bool stop_ = false;
  std::atomic<bool> cancelled_{false};

  std::vector<std::thread> workers_;
  TransferStats stats_;
  RetryPolicy retry_;  // declared after stats_: it feeds stats_.retries
  MetricsRegistry* registry_ = nullptr;  // set by RegisterMetrics
};

// The completion signal RunInOrderWindow hands to `issue(i, done)`: the
// issuer arranges for it to run exactly once, after item i's future became
// ready, whatever the outcome. It converts to GetAsync's and PutAsync's
// `done`, which fire for every outcome, failures and cancellation
// included.
class WindowDone {
 public:
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<unsigned char> complete;  // per item
    std::size_t incomplete = 0;           // issued, `done` not yet run
    // Set when completions issue: issues what has become admissible,
    // entered and left with `mu` held.
    std::function<void(std::unique_lock<std::mutex>&)> refill;
  };

  WindowDone(Sync* sync, std::size_t item) : sync_(sync), item_(item) {}

  void operator()() const {
    // Everything under the lock: the window's Sync lives on its caller's
    // stack, and the caller may return the moment it sees the count drop.
    std::unique_lock<std::mutex> lock(sync_->mu);
    sync_->complete[item_] = 1;
    --sync_->incomplete;
    sync_->cv.notify_all();
    if (sync_->refill) sync_->refill(lock);
  }
  void operator()(const Status&) const { (*this)(); }

 private:
  Sync* sync_;
  std::size_t item_;
};

// What bounds a RunInOrderWindow.
struct WindowBounds {
  // K: operations issued and not yet complete.
  std::size_t window = 1;
  // Costs of the issued, unreaped items past the next one to reap; 0
  // issues nothing past it, zero-cost items included.
  std::size_t ahead_budget = std::numeric_limits<std::size_t>::max();
  // Whether the thread that completes an operation issues the next items
  // itself (then `issue` must be cheap and may run on any thread, though
  // never twice at once), so a slot frees the moment its operation ends
  // even while the caller is busy in a reap. Otherwise only the caller
  // issues, between reaps.
  bool issue_on_completion = false;
};

// The one caller-side transfer window. Issues items 0..count-1 in index
// order and hands each item's future to `reap(i, future)` on the calling
// thread, strictly in index order.
//
// bounds.window (K) counts the operations issued and not yet complete, so
// a slow head never idles the other slots: `issue(i, done)` returns item
// i's future and must make `done` (a WindowDone) run once that future is
// ready, and a new item is issued whenever one completes, not when the
// head is reaped. What runs ahead of the reap is bounded in bytes instead:
// the next item to reap is always admitted, and any later item j only
// while the costs of the issued, unreaped items past the next one, plus
// cost(j), stay within bounds.ahead_budget. `peak_ahead` (optional)
// receives the most such bytes held at once.
//
// The first reap that returns non-OK stops further issuing; everything
// already issued is waited out before that status is returned, so no
// transfer this call started outlives it.
template <typename Cost, typename Issue, typename Reap>
Status RunInOrderWindow(std::size_t count, const WindowBounds& bounds,
                        Cost&& cost, Issue&& issue, Reap&& reap,
                        std::size_t* peak_ahead = nullptr) {
  using Future = decltype(issue(std::size_t{0}, std::declval<WindowDone>()));
  const std::size_t window = std::max<std::size_t>(1, bounds.window);
  std::vector<std::size_t> costs(count);
  for (std::size_t j = 0; j < count; ++j) costs[j] = cost(j);
  WindowDone::Sync sync;
  sync.complete.assign(count, 0);
  // All guarded by sync.mu.
  std::deque<Future> futures;  // items [head, stored)
  std::size_t head = 0;        // the next item to reap
  std::size_t next = 0;        // the next item to issue
  std::size_t stored = 0;      // items whose future is in `futures`
  std::size_t ahead = 0;       // costs of the issued items past `head`
  std::size_t peak = 0;
  bool issuing = false;        // one thread at a time runs `issue`
  bool stopped = false;
  auto admissible = [&] {
    return !stopped && next < count && sync.incomplete < window &&
           (next == head || (bounds.ahead_budget > 0 &&
                             costs[next] <= bounds.ahead_budget - ahead));
  };
  // Issues what is admissible, unless another thread already is: that
  // one re-checks after each issue, so no freed slot goes unused.
  auto issue_admissible = [&](std::unique_lock<std::mutex>& lock) {
    if (issuing) return;
    issuing = true;
    while (admissible()) {
      const std::size_t j = next++;
      const std::size_t c = j == head ? 0 : costs[j];
      ahead += c;
      peak = std::max(peak, ahead);
      ++sync.incomplete;
      lock.unlock();
      Future f = issue(j, WindowDone(&sync, j));
      lock.lock();
      futures.push_back(std::move(f));
      ++stored;
    }
    issuing = false;
    sync.cv.notify_all();
  };
  if (bounds.issue_on_completion) sync.refill = issue_admissible;
  auto finish = [&](std::unique_lock<std::mutex>& lock, Status st) {
    stopped = true;
    // Every WindowDone has run and no thread is issuing: none outlives
    // `sync` or this frame.
    sync.cv.wait(lock, [&] { return sync.incomplete == 0 && !issuing; });
    if (peak_ahead != nullptr) *peak_ahead = peak;
    return st;
  };

  std::unique_lock<std::mutex> lock(sync.mu);
  for (std::size_t i = 0; i < count; ++i) {
    for (;;) {
      issue_admissible(lock);
      if (i < stored && sync.complete[i]) break;
      // Wait for the head, or (when only this thread issues) for a slot.
      sync.cv.wait(lock, [&] {
        return (i < stored && sync.complete[i]) ||
               (!bounds.issue_on_completion && !issuing && admissible());
      });
    }
    Future f = std::move(futures.front());
    futures.pop_front();
    lock.unlock();
    Status st = reap(i, std::move(f));
    lock.lock();
    if (!st.ok()) return finish(lock, std::move(st));
    head = i + 1;
    if (head < next) ahead -= costs[head];  // the new head is not ahead
  }
  return finish(lock, Status::Ok());
}

// The same window with no byte bound, issued from the caller only.
template <typename Issue, typename Reap>
Status RunInOrderWindow(std::size_t count, std::size_t window, Issue&& issue,
                        Reap&& reap) {
  return RunInOrderWindow(
      count, WindowBounds{window}, [](std::size_t) { return std::size_t{0}; },
      issue, reap);
}

}  // namespace ginja
