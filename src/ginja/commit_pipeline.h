// The commit pipeline — paper Algorithm 2 / Figure 3.
//
// Intercepted WAL writes enter through Submit, which stages each one into
// the open batch. The write that makes B coalesces the batch into WAL
// objects (page rewrites to the same offset collapse — the key cost
// optimisation) and hands them to the uploaders before it returns; upload
// jobs run in parallel on the FleetRuntime's uploader pool. The Unlocker,
// the pipeline's only control thread, removes batches from the pending
// window *in timestamp order* as their uploads are acknowledged, which is
// what bounds data loss to S even with out-of-order parallel uploads, and
// closes a partial batch once TB has passed.
//
// A write blocks (stalling the DBMS inside its intercepted syscall) while
// more than S writes are unconfirmed, or while the oldest unconfirmed
// write has been pending longer than TS.
//
// Ingestion front end (DESIGN.md "Low-latency commit ingestion"): Submit
// reads the clock, then stamps the write's seq and stages it under
// stage_mu_, so staging order is submit order; the S/TS predicate reads
// three atomics after the lock is released. The DBMS's WAL writer
// serialises its page writes, so writes arrive one at a time and the
// staging lock is uncontended; Submit stays safe from any number of
// threads all the same. Lock order: stage_mu_, then window_mu_.
//
// Execution resources are never owned here: upload jobs go to a
// FleetRuntime's DRR scheduler and streamed parts, tails and tail deletes
// to its shared TransferManager, billed to this pipeline's account. A
// pipeline built without `config.runtime` makes a private one-tenant
// runtime (MakeStandaloneRuntime); a fleet member shares the fleet's.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cloud/object_store.h"
#include "cloud/transfer.h"
#include "common/blocking_queue.h"
#include "common/clock.h"
#include "common/codec/envelope.h"
#include "common/stats.h"
#include "db/layout.h"
#include "ginja/cloud_view.h"
#include "ginja/coalesce.h"
#include "ginja/config.h"
#include "ginja/fleet_runtime.h"
#include "ginja/payload.h"
#include "obs/obs.h"

namespace ginja {

// One intercepted WAL write, annotated by the processor with the WAL-stream
// range it covers (used for fuzzy-checkpoint-safe garbage collection).
struct WalWrite {
  std::string file;
  std::uint64_t offset = 0;
  Bytes data;
  std::uint64_t max_lsn = 0;  // exclusive end of the covered stream range
};

struct CommitPipelineStats {
  Counter writes_submitted;
  Counter batches_uploaded;
  Counter objects_uploaded;
  Counter bytes_uploaded;          // enveloped bytes
  Counter blocked_waits;           // times a Submit had to block
  Counter upload_retries;
  Counter batches_closed_full;     // batches closed because B writes were ready
  Counter batches_closed_deadline; // batches closed by the TB deadline or Stop
  // Streaming commit path (all zero when streaming_commit is off).
  Counter streams_opened;          // streamed WAL objects begun
  Counter parts_uploaded;          // stream segments durably appended
  Counter tail_objects_uploaded;   // early-ack WALTAIL/ PUTs
  Counter tail_objects_deleted;    // tails deleted after their object folded
  Counter writes_early_acked;      // writes acknowledged via tails
  Meter object_logical_bytes;      // pre-envelope object sizes
  // Stream open to the first data segment being durable (model-time us):
  // how long until the first byte of a batch is recoverable.
  Histogram put_first_byte_us;
  // Per-write commit latency in model-time microseconds: Submit enqueue to
  // the write's batch being fully acknowledged by the cloud. Quantiles via
  // commit_latency_us.Snapshot().
  Histogram commit_latency_us;
};

class CommitPipeline {
 public:
  CommitPipeline(ObjectStorePtr store, std::shared_ptr<CloudView> view,
                 std::shared_ptr<Clock> clock, const GinjaConfig& config,
                 std::shared_ptr<Envelope> envelope);
  ~CommitPipeline();

  CommitPipeline(const CommitPipeline&) = delete;
  CommitPipeline& operator=(const CommitPipeline&) = delete;

  void Start();
  // Closes the staged remainder, blocks until every pending write is
  // uploaded, then joins the unlocker. Writes submitted once Stop (or
  // Kill) has begun are dropped.
  void Stop();
  // Abandons pending writes (simulates a primary-site crash).
  void Kill();

  // Called from the DBMS thread (via the processor). Implements Alg. 2
  // lines 4–7: stage the write (closing the batch if it is the B-th), then
  // block while S/TS would be violated. Safe to call from any number of
  // threads concurrently.
  void Submit(WalWrite write);

  // Blocks until the queue is empty (all writes confirmed).
  void Drain();

  std::size_t PendingWrites() const;

  // Exclusive end of the WAL-stream range that is durably recoverable from
  // the cloud: advanced by the Unlocker as *consecutive* batches are
  // acknowledged. The checkpoint pipeline withholds DB objects until this
  // frontier covers their page contents (see DESIGN.md, "prefix window").
  Lsn UploadedWalFrontier() const {
    return frontier_lsn_.load(std::memory_order_acquire);
  }

  // Invoked (off-lock, from the Unlocker thread) once per frontier advance
  // — per retired batch, or per early-acked segment prefix — with
  // UploadedWalFrontier() already at the new value, even when one ack
  // retires several batches at once. The checkpoint pipeline hooks this to
  // wake its WAL-coverage wait instead of polling. Set before Start().
  void SetFrontierListener(std::function<void()> fn) {
    frontier_listener_ = std::move(fn);
  }

  const CommitPipelineStats& stats() const { return stats_; }

 private:
  static constexpr std::uint64_t kNoTrace = ~std::uint64_t{0};

  // A staged write plus its sequencer stamp. `data` is emptied as soon as
  // a later write to the same page supersedes it.
  struct Slot {
    std::uint64_t seq = 0;
    // When the write was staged: read under stage_mu_ for a write the
    // tracer sampled (traced), else the enqueue time, so an untraced
    // Submit reads the clock once.
    std::uint64_t staged_us = 0;
    bool traced = false;
    std::string_view file;  // interned in names_
    std::uint64_t offset = 0;
    Lsn max_lsn = 0;
    Bytes data;
  };
  struct Batch {
    std::uint64_t seq = 0;
    std::size_t item_count = 0;       // writes covered (grows while open)
    std::size_t objects_total = 0;
    std::size_t objects_acked = 0;
    Lsn max_lsn = 0;                  // frontier value once fully acked
    // Streaming fields (window_mu_). A streamed batch is `open` from stream
    // open to stream close: the unlocker must not retire it while open even
    // if every object so far has acked. Each sealed segment appends one
    // entry to seg_writes (writes it carries) and seg_max_lsn (cumulative
    // max over segments 0..i); seg_tail_acked marks segments whose tail
    // objects all landed. tail_prefix is the dense acked-segment prefix,
    // writes_completed the writes already retired early through it.
    bool open = false;
    std::size_t writes_completed = 0;
    std::vector<std::uint32_t> seg_writes;
    std::vector<Lsn> seg_max_lsn;
    std::vector<char> seg_tail_acked;
    std::uint32_t tail_prefix = 0;
  };
  struct UploadJob {
    // kObject is the buffered path: envelope + one blocking PUT. A streamed
    // batch instead emits one kStreamSegment job per sealed segment
    // (envelope + AppendPart, plus tail PUTs under early_ack) and a final
    // kStreamFinish job that publishes the object under its name.
    enum class Kind { kObject, kStreamSegment, kStreamFinish };
    Kind kind = Kind::kObject;
    std::uint64_t batch_seq = 0;
    std::string name;
    // Entries travel unencoded and borrowed: each ref points at one of the
    // `data` buffers (heap allocations moved, never copied, out of the
    // submitted writes) and at a pipeline-lifetime interned file name. The
    // uploader frames them as a scatter-gather view and envelopes straight
    // from these buffers.
    std::vector<FileEntryRef> entries;
    std::vector<Bytes> data;
    std::uint64_t nonce = 0;
    // Trace id of the batch's first sampled write (kNoTrace when none) and
    // the batch-close time, the kEncodeQueue span's start.
    std::uint64_t trace_seq = kNoTrace;
    std::uint64_t close_us = 0;
    // Streaming jobs only.
    StreamSessionPtr session;
    std::uint32_t seg_index = 0;     // kStreamSegment: 0-based segment
    std::uint32_t total_parts = 0;   // kStreamFinish: prologue + segments
    std::uint64_t ts = 0;            // the WAL object's timestamp
    Lsn seg_max_lsn = 0;             // cumulative max over segments 0..seg
    std::uint64_t stream_open_us = 0;
  };
  struct Ack {
    // kTailSeg acknowledges one segment's tail objects (early ack);
    // kObject acknowledges a whole uploaded object.
    enum class Kind { kObject, kTailSeg };
    Kind kind = Kind::kObject;
    std::uint64_t batch_seq = 0;
    std::uint32_t seg_index = 0;   // kTailSeg only
    bool uploaded = false;
    std::uint64_t trace_seq = kNoTrace;
    std::uint64_t put_end_us = 0;  // kAck span start
  };

  void UnlockerLoop();

  // Hands a formed job to the runtime's DRR scheduler, under this
  // pipeline's queue and weighted by the job's logical bytes.
  void EnqueueUpload(UploadJob job);
  // One upload job end to end (encode → PUT/stream op → ack), run on a
  // scheduler worker with that worker's reusable buffers.
  void ExecuteUploadJob(UploadJob job, Bytes& framing, Bytes& enveloped);
  // Removes this pipeline's scheduler queue, dropping queued jobs unrun
  // when `discard_queued`; waits out jobs already running. Idempotent.
  void ReleaseUploadQueue(bool discard_queued);
  // The runtime's shared manager, for streamed parts, tails and tail
  // deletes; every operation carries StreamRoute().
  TransferManager& Transfers() const { return *config_.runtime->transfers(); }
  TransferRoute StreamRoute() const { return {store_, account_}; }

  // Alg. 2's blocking predicate over the sequencer counters (lock-free).
  bool ShouldBlock(std::uint64_t now_us) const;
  std::uint64_t Unconfirmed() const;

  // Batch formation, all under stage_mu_. Each close takes every staged
  // write: the B-th write (streaming: a segment's worth) closes at once,
  // so staged_ never holds more than one batch or segment. CloseReady
  // closes a full batch (streaming: seals a full segment and closes a
  // stream at B) and, with `flush` (TB passed, or Stop), a partial one
  // too. Callers check stopping_ under the same lock first.
  void CloseReady(std::uint64_t now_us, bool flush);
  // The unlocker's TB check: closes an overdue partial batch.
  void CloseOnDeadline();
  // The close step shared by both upload shapes: lists the staged writes'
  // coalesced survivors in (file, offset) order into survivors_, records
  // the kBatchClose spans, and returns the first sampled write's seq
  // (kNoTrace when none).
  std::uint64_t ListSurvivors(std::uint64_t now_us);
  void FormBatch(std::uint64_t now_us, bool closed_full);
  // Streaming: seals ready segments into upload jobs, opening and closing
  // streams as the B / size / deadline rules dictate.
  void StreamPass(std::uint64_t now_us, bool flush);
  void OpenStream(std::uint64_t now_us);
  void SealSegment(std::uint64_t now_us);
  void CloseStream(std::uint64_t now_us, bool closed_full);
  // Uploader-side steps. EncodeJob frames and envelopes a kObject or
  // kStreamSegment job's entries (kEncodeQueue/kEncode spans). PublishObject
  // reports a WAL object's final status — a buffered PUT's or a finished
  // stream's — to the view, the kPut span from `put_start_us`, and the
  // Unlocker.
  void EncodeJob(const UploadJob& job, Bytes& framing, Bytes& enveloped);
  void PublishObject(const UploadJob& job, std::uint64_t put_start_us,
                     const Status& st);
  void UploadStreamSegment(UploadJob job, Bytes& framing, Bytes& enveloped);
  void FinishStream(UploadJob job);
  // Deletes a tail object that its published WAL object supersedes, in the
  // background; a failed delete is re-swept by checkpoint GC.
  void DeleteFoldedTail(const TailObjectId& tail);

  // Registers stats + DR-exposure gauges into config_.obs (no-op when the
  // config carries no observability bundle).
  void RegisterMetrics();
  // Per-tenant label set for every registered series: {tenant=<id>} for a
  // fleet member, empty standalone — so a shared fleet registry keeps each
  // tenant's RPO/latency series distinct.
  MetricLabels Labels() const {
    return config_.tenant_id.empty()
               ? MetricLabels{}
               : MetricLabels{{"tenant", config_.tenant_id}};
  }
  bool Tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  static constexpr std::uint64_t kNoOldest = ~std::uint64_t{0};

  ObjectStorePtr store_;
  std::shared_ptr<CloudView> view_;
  std::shared_ptr<Clock> clock_;
  GinjaConfig config_;
  std::shared_ptr<Envelope> envelope_;

  // -- submit path (DBMS threads) --------------------------------------------
  // Sequencer: seq of the next Submit == count of writes ever submitted.
  // Written only under stage_mu_ (a plain load and store suffice); atomic
  // because the S/TS predicate and the gauges read it without the lock.
  std::atomic<std::uint64_t> submit_seq_{0};
  // Submit calls that have *returned* to the DBMS. The RPO-exposure gauge
  // is returned - completed: writes the database believes are committed but
  // the cloud has not yet confirmed — the writes a disaster would lose.
  // During an outage with continuous submits it reaches exactly S and holds
  // (Alg. 2 blocks the S+1'th returner).
  std::atomic<std::uint64_t> returned_count_{0};
  // Writes whose batch has been fully acknowledged (consecutive prefix).
  std::atomic<std::uint64_t> completed_count_{0};
  // Enqueue time of the oldest staged-but-unacknowledged write, or
  // kNoOldest.
  std::atomic<std::uint64_t> oldest_pending_us_{kNoOldest};

  // Set under stage_mu_ (Kill sets them just before taking it), so a
  // Submit or TB close that saw them clear under the lock has finished its
  // EnqueueUpload before either releases the scheduler queue.
  std::atomic<bool> stopping_{false};
  std::atomic<bool> killed_{false};
  // Set when Stop() ran to completion: the destructor then lets queued
  // folded-tail deletes drain instead of Kill() cancelling them.
  std::atomic<bool> stopped_clean_{false};

  std::mutex block_mu_;                 // protects nothing: CV discipline only
  std::condition_variable unblock_cv_;  // woken on batch completion / kill

  // -- staging (stage_mu_: Submit, the unlocker's TB close, Stop) ------------
  // Held by Submit to stage a write and, for the B-th, to close the batch;
  // released before the S/TS wait, so a blocked writer never keeps the
  // unlocker from closing a partial batch on TB.
  std::mutex stage_mu_;
  std::vector<Slot> staged_;            // the open batch (or segment)
  // Coalesces staged_ as it fills: (interned file, offset) -> index of the
  // page's latest write.
  CoalesceTable coalesce_;
  NameInterner names_;
  struct SurvivorRef {
    std::string_view file;
    std::uint64_t offset = 0;
    std::uint32_t index = 0;  // into staged_
  };
  std::vector<SurvivorRef> survivors_;  // reused across batches
  std::uint64_t last_close_us_ = 0;     // TB runs from the last close
  std::uint64_t next_batch_seq_ = 0;

  // The stream currently filling (streaming_commit only). One stream ==
  // one batch == one WAL object; closed streams keep uploading through
  // their session while the next stream fills.
  struct OpenStreamState {
    StreamSessionPtr session;
    std::uint64_t ts = 0;
    std::uint64_t batch_seq = 0;
    std::uint32_t next_seg = 0;     // segments sealed so far
    std::size_t writes = 0;         // writes sealed into segments
    std::size_t logical_bytes = 0;  // pre-envelope payload bytes so far
    std::string first_file;         // name fields of the eventual WAL object
    std::uint64_t first_offset = 0;
    Lsn max_lsn = 0;                // cumulative over sealed segments
    std::uint64_t opened_us = 0;
    std::uint64_t trace_seq = kNoTrace;  // first sampled write in the stream
  };
  std::unique_ptr<OpenStreamState> open_stream_;

  // -- pending window (staged by Submit, retired by the unlocker) ------------
  mutable std::mutex window_mu_;
  std::deque<Batch> batches_;                 // in seq order
  std::deque<std::uint64_t> pending_times_;   // enqueue times, seq order
  // Mirrors batches_.size() so Stop() can wait for every batch's object to
  // publish (early acks retire *writes* before the object lands) without
  // taking window_mu_ under block_mu_.
  std::atomic<std::size_t> batches_inflight_{0};

  BlockingQueue<Ack> ack_queue_;

  std::thread unlocker_;
  std::atomic<Lsn> frontier_lsn_{0};
  // Set once an upload permanently fails (only possible at shutdown/kill):
  // the frontier must never advance past the resulting gap.
  std::atomic<bool> frontier_broken_{false};
  std::function<void()> frontier_listener_;
  CommitPipelineStats stats_;
  // Borrowed from config_.obs (which co-owns the bundle); null when the
  // pipeline runs unobserved.
  WriteTracer* tracer_ = nullptr;

  // This pipeline's queue in the runtime's DRR upload scheduler, from
  // Start() until Stop()/Kill() releases it.
  UploadScheduler::Tenant* sched_tenant_ = nullptr;
  // Billing/cancellation scope for this pipeline's operations on the
  // runtime's shared TransferManager: Kill() cancels the account (never
  // the manager, which may serve other tenants), and the destructor
  // WaitIdle()s it so no callback referencing this pipeline survives
  // destruction.
  TransferAccountPtr account_;
  // Retry schedule for buffered PUTs, shared by every scheduler worker that
  // runs this pipeline's jobs (thread-safe).
  RetryPolicy retry_;
};

}  // namespace ginja
