#include "ginja/commit_pipeline.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <utility>

#include "obs/log.h"

namespace ginja {

namespace {
// Poll interval of the unlocker's TB check; wall time, so TB works with
// any Clock scale.
constexpr auto kPollInterval = std::chrono::milliseconds(1);
// Stream-segment nonces live in their own subspace, disjoint from WAL
// object nonces (the raw ts) and DB part nonces (bit 63 | seq | part):
// tag | ts << 16 | seg. A tail object reuses its segment's envelope bytes
// verbatim — same nonce, same ciphertext — so the fold needs no re-encode
// and never reuses a CTR keystream on different plaintext. The segment
// index owns the low 16 bits, so a stream closes at kMaxStreamSegments
// rather than let segment 2^16 collide with the next ts's segment 0.
constexpr std::uint64_t kStreamNonceTag = 0xE5ull << 56;
constexpr std::uint32_t kMaxStreamSegments = 1u << 16;
// Parts a stream may run ahead of its durable frontier before the
// uploader waits: bounds producer run-ahead and the memory pinned per
// open stream.
constexpr std::uint32_t kStreamPartWindow = 8;
// Poll slice while an uploader waits for stream-part-window space.
constexpr std::uint64_t kWindowPollUs = 500;
}  // namespace

CommitPipeline::CommitPipeline(ObjectStorePtr store,
                               std::shared_ptr<CloudView> view,
                               std::shared_ptr<Clock> clock,
                               const GinjaConfig& config,
                               std::shared_ptr<Envelope> envelope)
    : store_(std::move(store)),
      view_(std::move(view)),
      clock_(std::move(clock)),
      config_(config),
      envelope_(std::move(envelope)),
      account_(std::make_shared<TransferAccount>(config.tenant_id)),
      retry_(MakeTransferOptions(config, 1), &stats_.upload_retries) {
  if (!config_.runtime) {
    config_.runtime = MakeStandaloneRuntime(store_, clock_, config_);
  }
  last_close_us_ = clock_->NowMicros();
  if (config_.obs) {
    tracer_ = &config_.obs->tracer;
    RegisterMetrics();
  }
}

CommitPipeline::~CommitPipeline() {
  if (config_.obs) config_.obs->registry.Unregister(this);
  // After a clean Stop() the only remaining work is background folded-tail
  // deletes; the WaitIdle below drains them. Kill() here would cancel them
  // for no benefit.
  if (!stopped_clean_.load(std::memory_order_acquire)) Kill();
  // The runtime's pools may outlive this pipeline (a fleet's always do):
  // wait out every operation that could still call back into it.
  account_->WaitIdle();
}

void CommitPipeline::RegisterMetrics() {
  MetricsRegistry& r = config_.obs->registry;
  r.RegisterCounter(this, "ginja_commit_writes_submitted_total", Labels(),
                    &stats_.writes_submitted);
  r.RegisterCounter(this, "ginja_commit_batches_uploaded_total", Labels(),
                    &stats_.batches_uploaded);
  r.RegisterCounter(this, "ginja_commit_objects_uploaded_total", Labels(),
                    &stats_.objects_uploaded);
  r.RegisterCounter(this, "ginja_commit_bytes_uploaded_total", Labels(),
                    &stats_.bytes_uploaded);
  r.RegisterCounter(this, "ginja_commit_blocked_waits_total", Labels(),
                    &stats_.blocked_waits);
  r.RegisterCounter(this, "ginja_commit_upload_retries_total", Labels(),
                    &stats_.upload_retries);
  r.RegisterCounter(this, "ginja_commit_batches_closed_full_total", Labels(),
                    &stats_.batches_closed_full);
  r.RegisterCounter(this, "ginja_commit_batches_closed_deadline_total", Labels(),
                    &stats_.batches_closed_deadline);
  r.RegisterCounter(this, "ginja_commit_streams_opened_total", Labels(),
                    &stats_.streams_opened);
  r.RegisterCounter(this, "ginja_commit_parts_uploaded_total", Labels(),
                    &stats_.parts_uploaded);
  r.RegisterCounter(this, "ginja_commit_tail_objects_uploaded_total", Labels(),
                    &stats_.tail_objects_uploaded);
  r.RegisterCounter(this, "ginja_commit_tail_objects_deleted_total", Labels(),
                    &stats_.tail_objects_deleted);
  r.RegisterCounter(this, "ginja_commit_writes_early_acked_total", Labels(),
                    &stats_.writes_early_acked);
  r.RegisterMeter(this, "ginja_commit_object_logical_bytes", Labels(),
                  &stats_.object_logical_bytes);
  r.RegisterHistogram(this, "ginja_commit_latency_us", Labels(),
                      &stats_.commit_latency_us);
  r.RegisterHistogram(this, "ginja_commit_put_first_byte_us", Labels(),
                      &stats_.put_first_byte_us);
  // -- DR exposure gauges (the paper's loss bound, live) ---------------------
  r.RegisterGauge(this, "ginja_rpo_exposure_writes", Labels(), [this] {
    const std::uint64_t completed =
        completed_count_.load(std::memory_order_acquire);
    const std::uint64_t returned =
        returned_count_.load(std::memory_order_acquire);
    // completed can transiently lead returned: a write may be acknowledged
    // before its own Submit call has returned.
    return completed >= returned ? 0.0
                                 : static_cast<double>(returned - completed);
  });
  r.RegisterGauge(this, "ginja_rpo_limit_writes", Labels(), [this] {
    return static_cast<double>(config_.safety);
  });
  r.RegisterGauge(this, "ginja_unconfirmed_writes", Labels(), [this] {
    return static_cast<double>(Unconfirmed());
  });
  r.RegisterGauge(this, "ginja_oldest_unacked_age_us", Labels(), [this] {
    const std::uint64_t oldest =
        oldest_pending_us_.load(std::memory_order_acquire);
    if (oldest == kNoOldest) return 0.0;
    const std::uint64_t now = clock_->NowMicros();
    return now > oldest ? static_cast<double>(now - oldest) : 0.0;
  });
  r.RegisterGauge(this, "ginja_wal_frontier_lsn", Labels(), [this] {
    return static_cast<double>(frontier_lsn_.load(std::memory_order_acquire));
  });
}

void CommitPipeline::Start() {
  // Uploads run on the runtime's worker pool, DRR-scheduled across its
  // tenants; only the control thread (the unlocker) is private.
  sched_tenant_ = config_.runtime->scheduler().Register(config_.tenant_id);
  unlocker_ = std::thread([this] { UnlockerLoop(); });
}

void CommitPipeline::Stop() {
  {
    std::lock_guard<std::mutex> lock(stage_mu_);
    if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
    // Flush the staged remainder. From here on Submit stages nothing, so
    // the pending window holds every write Stop waits for.
    CloseReady(clock_->NowMicros(), /*flush=*/true);
  }
  Drain();
  // Drain() returns at the ack frontier, but an early-acked batch is
  // acknowledged from its tail objects while the WAL object's Finish (and
  // the folded tails' deletes) are still in flight. A clean shutdown also
  // waits for every batch to retire — its object published — so no stream
  // is torn by the queue close below.
  {
    std::unique_lock<std::mutex> lock(block_mu_);
    unblock_cv_.wait(lock, [&] {
      return killed_.load(std::memory_order_acquire) ||
             batches_inflight_.load(std::memory_order_acquire) == 0;
    });
  }
  ack_queue_.Close();
  {
    std::lock_guard<std::mutex> lock(block_mu_);
  }
  unblock_cv_.notify_all();
  if (unlocker_.joinable()) unlocker_.join();
  // Every batch retired means the scheduler queue is empty; a clean
  // release just waits out any job still finishing on a worker. stopping_
  // was set under stage_mu_, so nothing can enqueue again.
  ReleaseUploadQueue(/*discard_queued=*/false);
  stopped_clean_.store(true, std::memory_order_release);
}

void CommitPipeline::Kill() {
  if (killed_.exchange(true, std::memory_order_acq_rel)) return;
  // A kill with unconfirmed writes is the disaster the tracer's flight
  // recorder exists for: dump the last spans before abandoning them.
  if (Tracing() && Unconfirmed() > 0 && config_.obs) {
    config_.obs->DumpFlightRecorder("commit_kill");
  }
  stopping_.store(true, std::memory_order_release);
  // Empty critical section: a Submit or TB close already past its stopping_
  // check finishes its EnqueueUpload before this returns, and every later
  // one sees the flag.
  {
    std::lock_guard<std::mutex> lock(stage_mu_);
  }
  {
    std::lock_guard<std::mutex> lock(block_mu_);
  }
  unblock_cv_.notify_all();
  ack_queue_.Close();
  // Abandon in-flight stream parts / tail PUTs; their callbacks fire with
  // ABORTED against the already-closed ack queue. Stop() deliberately does
  // NOT cancel — it drains. Only this pipeline's account is cancelled: the
  // runtime's manager may keep serving other tenants.
  account_->Cancel();
  if (unlocker_.joinable()) unlocker_.join();
  // Drop queued upload jobs unrun (the crash abandons them) and wait out
  // the ones a worker is already executing — they observe killed_ and bail
  // at their next check. Must follow the stage_mu_ section above: a
  // staging call past its check could enqueue into a released (freed)
  // queue handle.
  ReleaseUploadQueue(/*discard_queued=*/true);
}

void CommitPipeline::ReleaseUploadQueue(bool discard_queued) {
  if (auto* tenant = std::exchange(sched_tenant_, nullptr)) {
    config_.runtime->scheduler().Deregister(tenant, discard_queued);
  }
}

std::uint64_t CommitPipeline::Unconfirmed() const {
  // Read completed first: between the two loads both counters can only
  // grow, so a stale completed count makes the estimate *larger* — the S
  // bound errs toward blocking, never toward extra loss.
  const std::uint64_t completed =
      completed_count_.load(std::memory_order_acquire);
  const std::uint64_t submitted = submit_seq_.load(std::memory_order_acquire);
  return submitted - completed;
}

bool CommitPipeline::ShouldBlock(std::uint64_t now_us) const {
  if (Unconfirmed() > config_.safety) return true;
  const std::uint64_t oldest = oldest_pending_us_.load(std::memory_order_acquire);
  return oldest != kNoOldest && now_us - oldest >= config_.safety_timeout_us;
}

void CommitPipeline::Submit(WalWrite write) {
  const std::uint64_t enqueue_us = clock_->NowMicros();
  std::uint64_t seq = 0;
  std::uint64_t staged_us = enqueue_us;
  bool traced = false;
  {
    std::lock_guard<std::mutex> lock(stage_mu_);
    // A write racing Stop or Kill is dropped: the staged remainder has been
    // flushed (or abandoned) and the scheduler queue may be released.
    if (stopping_.load(std::memory_order_acquire)) return;
    // Stamping and staging under one lock makes staging order seq order,
    // so batches hold exactly the writes [k·B, (k+1)·B).
    seq = submit_seq_.load(std::memory_order_relaxed);
    submit_seq_.store(seq + 1, std::memory_order_release);
    if (Tracing() && tracer_->Sampled(seq)) {
      traced = true;
      staged_us = clock_->NowMicros();
    }
    // Aggregate (Alg. 2 lines 12-13) as the batch fills: a rewrite of a
    // staged page supersedes it (last write wins), so the earlier copy is
    // freed now, while it is hot, instead of at the close.
    if (staged_.empty()) coalesce_.Begin(/*expected=*/0);  // grows as needed
    const std::string_view file = names_.Intern(write.file);
    const std::uint32_t superseded = coalesce_.Upsert(
        file, write.offset, static_cast<std::uint32_t>(staged_.size()));
    if (superseded != CoalesceTable::kNew) {
      Bytes().swap(staged_[superseded].data);
    }
    staged_.push_back({seq, staged_us, traced, file, write.offset,
                       write.max_lsn, std::move(write.data)});
    {
      std::lock_guard<std::mutex> window(window_mu_);
      pending_times_.push_back(enqueue_us);
      oldest_pending_us_.store(pending_times_.front(),
                               std::memory_order_release);
    }
    // The B-th write closes its batch (streaming: a full segment seals)
    // before returning; a partial batch waits for the unlocker's TB check.
    CloseReady(staged_us, /*flush=*/false);
  }
  stats_.writes_submitted.Add();
  if (traced) {
    tracer_->Record(TraceStage::kSubmit, seq, enqueue_us, 0);
    tracer_->Record(TraceStage::kStaged, seq, enqueue_us,
                    staged_us - enqueue_us);
  }

  // Block while S/TS would be violated, off stage_mu_. The fast path is
  // lock-free and reuses the enqueue timestamp (TS is seconds-scale,
  // staging is microseconds). The slow path is event-driven (no
  // polling): while blocked, ShouldBlock can only flip to false through an
  // Unlocker completion, and every completion updates the counters *before*
  // signalling unblock_cv_ (with an empty block_mu_ critical section
  // ordering the two), so waiting without a timeout is safe. Time passing
  // alone never unblocks — it only ages the oldest write toward the TS
  // limit.
  if (ShouldBlock(enqueue_us)) {
    std::unique_lock<std::mutex> lock(block_mu_);
    bool blocked = false;
    while (!killed_.load(std::memory_order_acquire) &&
           ShouldBlock(clock_->NowMicros())) {
      if (!blocked) {
        blocked = true;
        stats_.blocked_waits.Add();  // counted on entry: observable mid-stall
      }
      unblock_cv_.wait(lock);
    }
  }
  // The write is now "committed" as far as the DBMS can tell — this is the
  // instant it joins the RPO-exposure window (see ginja_rpo_exposure_writes).
  returned_count_.fetch_add(1, std::memory_order_release);
}

void CommitPipeline::Drain() {
  std::unique_lock<std::mutex> lock(block_mu_);
  unblock_cv_.wait(lock, [&] {
    return killed_.load(std::memory_order_acquire) || Unconfirmed() == 0;
  });
}

std::size_t CommitPipeline::PendingWrites() const {
  return static_cast<std::size_t>(Unconfirmed());
}

void CommitPipeline::CloseReady(std::uint64_t now_us, bool flush) {
  if (config_.streaming_commit) {
    StreamPass(now_us, flush);
    return;
  }
  if (staged_.size() >= config_.batch) {
    FormBatch(now_us, /*closed_full=*/true);
  } else if (flush && !staged_.empty()) {
    FormBatch(now_us, /*closed_full=*/false);
  }
}

void CommitPipeline::CloseOnDeadline() {
  std::lock_guard<std::mutex> lock(stage_mu_);
  if (stopping_.load(std::memory_order_acquire)) return;
  // Read under the lock, so no close can postdate it.
  const std::uint64_t now = clock_->NowMicros();
  CloseReady(now, now - last_close_us_ >= config_.batch_timeout_us);
}

std::uint64_t CommitPipeline::ListSurvivors(std::uint64_t now_us) {
  // Only surviving pages are encoded (a B=1000 batch usually collapses to
  // a handful of pages). The reusable table replaces a per-batch
  // std::map: zero allocation at steady state.
  survivors_.clear();
  coalesce_.ForEach(
      [&](std::string_view file, std::uint64_t offset, std::uint32_t index) {
        survivors_.push_back({file, offset, index});
      });
  // (file, offset) order reproduces the old sorted-map iteration exactly,
  // keeping object contents byte-identical to the previous design.
  std::sort(survivors_.begin(), survivors_.end(),
            [](const SurvivorRef& a, const SurvivorRef& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.offset < b.offset;
            });
  std::uint64_t first_traced = kNoTrace;
  if (Tracing()) {
    for (const Slot& slot : staged_) {
      if (!slot.traced) continue;
      tracer_->Record(TraceStage::kBatchClose, slot.seq, slot.staged_us,
                      now_us >= slot.staged_us ? now_us - slot.staged_us : 0);
      if (first_traced == kNoTrace) first_traced = slot.seq;
    }
  }
  return first_traced;
}

void CommitPipeline::FormBatch(std::uint64_t now_us, bool closed_full) {
  // The batch's trace id is its first sampled write; every object of the
  // batch carries it, so the decomposition sees each object's PUT.
  const std::uint64_t trace_seq = ListSurvivors(now_us);

  // Per-file runs become objects, split at the object-size limit. Entry
  // refs borrow the submitted writes' own buffers (moved, never copied)
  // and pipeline-lifetime interned names; the uploader encodes straight
  // from them.
  struct PendingObject {
    std::vector<FileEntryRef> entries;
    std::vector<Bytes> data;
    std::string_view file;
    std::uint64_t first_offset = 0;
    std::uint64_t max_lsn = 0;
  };
  std::vector<PendingObject> objects;
  std::size_t i = 0;
  while (i < survivors_.size()) {
    std::size_t j = i;
    std::uint64_t run_max_lsn = 0;
    while (j < survivors_.size() && survivors_[j].file == survivors_[i].file) {
      run_max_lsn = std::max(run_max_lsn, staged_[survivors_[j].index].max_lsn);
      ++j;
    }
    const std::string_view file = survivors_[i].file;
    objects.emplace_back();
    PendingObject* current = &objects.back();
    current->file = file;
    current->first_offset = survivors_[i].offset;
    current->max_lsn = run_max_lsn;  // splits cover the same WAL range
    std::size_t bytes = 0;
    for (std::size_t k = i; k < j; ++k) {
      Slot& slot = staged_[survivors_[k].index];
      if (!current->entries.empty() &&
          bytes + slot.data.size() > config_.max_object_bytes) {
        objects.emplace_back();
        current = &objects.back();
        current->file = file;
        current->first_offset = slot.offset;
        current->max_lsn = run_max_lsn;
        bytes = 0;
      }
      bytes += slot.data.size();
      current->entries.push_back({file, slot.offset, View(slot.data)});
      current->data.push_back(std::move(slot.data));
    }
    i = j;
  }
  // Order objects by the WAL-stream range they cover so timestamps stay
  // monotone in LSN (the prefix-GC invariant).
  std::stable_sort(objects.begin(), objects.end(),
                   [](const PendingObject& a, const PendingObject& b) {
                     return a.max_lsn < b.max_lsn;
                   });

  Batch batch;
  batch.seq = next_batch_seq_++;
  batch.item_count = staged_.size();
  batch.objects_total = objects.size();
  for (const auto& obj : objects) {
    batch.max_lsn = std::max(batch.max_lsn, obj.max_lsn);
  }
  {
    std::lock_guard<std::mutex> lock(window_mu_);
    batches_.push_back(batch);
  }
  batches_inflight_.fetch_add(1, std::memory_order_release);
  (closed_full ? stats_.batches_closed_full : stats_.batches_closed_deadline)
      .Add();

  for (auto& obj : objects) {
    WalObjectId id;
    id.ts = view_->NextWalTs();
    id.filename = std::string(obj.file);
    id.offset = obj.first_offset;
    id.max_lsn = obj.max_lsn;

    UploadJob job;
    job.batch_seq = batch.seq;
    job.name = id.Encode();
    job.entries = std::move(obj.entries);
    job.data = std::move(obj.data);
    job.nonce = id.ts;
    job.trace_seq = trace_seq;
    job.close_us = now_us;
    EnqueueUpload(std::move(job));
  }
  staged_.clear();
  last_close_us_ = now_us;
}

void CommitPipeline::StreamPass(std::uint64_t now_us, bool flush) {
  // One stream == one batch == one WAL object, filled segment by segment.
  // A full stream_segment_writes' worth of staged writes seals a segment
  // immediately (capped at the B remaining in the batch); a flush (TB
  // deadline or stop) seals a partial one. The stream closes — its object
  // gets its final name and publishes — at B writes, at the object size
  // limit, at kMaxStreamSegments, or on a flush; leftover staged writes
  // then start the next stream on the following loop iteration.
  const std::size_t seg_writes =
      std::max<std::size_t>(1, config_.stream_segment_writes);
  while (true) {
    const std::size_t batch_remaining =
        config_.batch - (open_stream_ ? open_stream_->writes : 0);
    const std::size_t seg_target = std::min(seg_writes, batch_remaining);
    if (staged_.size() >= seg_target || (!staged_.empty() && flush)) {
      if (!open_stream_) OpenStream(now_us);
      SealSegment(now_us);
    } else {
      if (open_stream_ && flush) {
        CloseStream(now_us, /*closed_full=*/false);
      }
      return;
    }
    if (open_stream_ &&
        (open_stream_->writes >= config_.batch ||
         open_stream_->logical_bytes >= config_.max_object_bytes ||
         open_stream_->next_seg >= kMaxStreamSegments)) {
      CloseStream(now_us, /*closed_full=*/true);
    }
  }
}

void CommitPipeline::OpenStream(std::uint64_t now_us) {
  open_stream_ = std::make_unique<OpenStreamState>();
  open_stream_->ts = view_->NextWalTs();
  open_stream_->batch_seq = next_batch_seq_++;
  open_stream_->opened_us = now_us;
  open_stream_->session = Transfers().BeginStream(
      StreamRoute(), "WALSTREAM/" + std::to_string(open_stream_->ts));
  // Part 0 is the GNJ3 prologue: every prefix of the stream is a valid
  // (possibly torn) container from the first bytes on.
  open_stream_->session->AppendPart(0, Envelope::StreamPrologue());
  Batch batch;
  batch.seq = open_stream_->batch_seq;
  batch.objects_total = 1;
  batch.open = true;
  {
    std::lock_guard<std::mutex> lock(window_mu_);
    batches_.push_back(std::move(batch));
  }
  batches_inflight_.fetch_add(1, std::memory_order_release);
  stats_.streams_opened.Add();
}

void CommitPipeline::SealSegment(std::uint64_t now_us) {
  // Coalesce within the segment only (last write to a page wins, as in
  // FormBatch); a page rewritten in a *later* segment of the same stream
  // survives twice, and recovery's in-order apply makes the later copy
  // win — same end state, slightly more bytes. The stream's trace id is
  // its first sampled write.
  const std::uint64_t first_traced = ListSurvivors(now_us);
  const std::size_t take = staged_.size();
  assert(open_stream_->writes + take <= config_.batch);
  if (open_stream_->trace_seq == kNoTrace) {
    open_stream_->trace_seq = first_traced;
  }

  UploadJob job;
  job.kind = UploadJob::Kind::kStreamSegment;
  job.batch_seq = open_stream_->batch_seq;
  job.session = open_stream_->session;
  job.seg_index = open_stream_->next_seg;
  job.nonce =
      kStreamNonceTag | (open_stream_->ts << 16) | open_stream_->next_seg;
  job.ts = open_stream_->ts;
  job.stream_open_us = open_stream_->opened_us;
  job.close_us = now_us;

  Lsn seg_lsn = 0;
  for (const SurvivorRef& s : survivors_) {
    Slot& slot = staged_[s.index];
    seg_lsn = std::max(seg_lsn, slot.max_lsn);
    open_stream_->logical_bytes += slot.data.size();
    job.entries.push_back({s.file, slot.offset, View(slot.data)});
    job.data.push_back(std::move(slot.data));
  }
  if (open_stream_->next_seg == 0) {
    open_stream_->first_file = std::string(survivors_.front().file);
    open_stream_->first_offset = survivors_.front().offset;
  }
  open_stream_->max_lsn = std::max(open_stream_->max_lsn, seg_lsn);
  job.seg_max_lsn = open_stream_->max_lsn;  // cumulative: monotone in seg
  job.trace_seq = open_stream_->trace_seq;

  {
    std::lock_guard<std::mutex> lock(window_mu_);
    for (auto it = batches_.rbegin(); it != batches_.rend(); ++it) {
      if (it->seq != open_stream_->batch_seq) continue;
      it->item_count += take;
      it->seg_writes.push_back(static_cast<std::uint32_t>(take));
      it->seg_max_lsn.push_back(job.seg_max_lsn);
      it->seg_tail_acked.push_back(0);
      break;
    }
  }
  open_stream_->writes += take;
  ++open_stream_->next_seg;
  EnqueueUpload(std::move(job));
  staged_.clear();
}

void CommitPipeline::CloseStream(std::uint64_t now_us, bool closed_full) {
  // Only now is max_lsn final, so only now can the object be named; the
  // session publishes under it once every part is durable.
  WalObjectId id;
  id.ts = open_stream_->ts;
  id.filename = open_stream_->first_file;
  id.offset = open_stream_->first_offset;
  id.max_lsn = open_stream_->max_lsn;

  UploadJob job;
  job.kind = UploadJob::Kind::kStreamFinish;
  job.batch_seq = open_stream_->batch_seq;
  job.session = open_stream_->session;
  job.name = id.Encode();
  job.total_parts = open_stream_->next_seg + 1;  // + the prologue part
  job.trace_seq = open_stream_->trace_seq;
  job.close_us = now_us;
  {
    std::lock_guard<std::mutex> lock(window_mu_);
    for (auto it = batches_.rbegin(); it != batches_.rend(); ++it) {
      if (it->seq != open_stream_->batch_seq) continue;
      it->open = false;
      it->max_lsn = open_stream_->max_lsn;
      break;
    }
  }
  (closed_full ? stats_.batches_closed_full : stats_.batches_closed_deadline)
      .Add();
  EnqueueUpload(std::move(job));
  open_stream_.reset();
  last_close_us_ = now_us;
}

void CommitPipeline::EnqueueUpload(UploadJob job) {
  // The DRR cost is the job's logical payload bytes — what the PUT path
  // actually pays for. Stream-finish jobs carry no payload and weigh the
  // minimum. Boxed because std::function requires a copyable target and
  // the job owns the write buffers (moved, never copied).
  std::size_t cost = 0;
  for (const Bytes& d : job.data) cost += d.size();
  auto boxed = std::make_shared<UploadJob>(std::move(job));
  config_.runtime->scheduler().Enqueue(
      sched_tenant_, cost, [this, boxed](UploadScratch& scratch) {
        ExecuteUploadJob(std::move(*boxed), scratch.framing, scratch.enveloped);
      });
}

void CommitPipeline::ExecuteUploadJob(UploadJob job, Bytes& framing,
                                      Bytes& enveloped) {
  if (job.kind == UploadJob::Kind::kStreamSegment) {
    UploadStreamSegment(std::move(job), framing, enveloped);
    return;
  }
  if (job.kind == UploadJob::Kind::kStreamFinish) {
    FinishStream(std::move(job));
    return;
  }
  EncodeJob(job, framing, enveloped);
  // kPut covers first attempt → success, retries and backoff included:
  // it decomposes outage pain, not just the happy-path round-trip.
  const std::uint64_t first_attempt_us = clock_->NowMicros();
  Status st = Status::Ok();
  for (int attempt = 1;; ++attempt) {
    st = store_->Put(job.name, View(enveloped));
    if (st.ok() || killed_.load(std::memory_order_acquire) ||
        attempt >= retry_.max_attempts() ||
        !RetryPolicy::Retryable(st.code())) {
      break;
    }
    if (!SleepUnlessCancelled(*clock_, retry_.NextBackoffUs(attempt), [&] {
          return killed_.load(std::memory_order_acquire);
        })) {
      break;
    }
  }
  if (st.ok()) stats_.bytes_uploaded.Add(enveloped.size());
  PublishObject(job, first_attempt_us, st);
}

void CommitPipeline::EncodeJob(const UploadJob& job, Bytes& framing,
                               Bytes& enveloped) {
  const bool traced = job.trace_seq != kNoTrace && Tracing();
  std::uint64_t t_encode = 0;
  if (traced) {
    t_encode = clock_->NowMicros();
    tracer_->Record(TraceStage::kEncodeQueue, job.trace_seq, job.close_us,
                    t_encode >= job.close_us ? t_encode - job.close_us : 0);
  }
  const PayloadView payload = EncodeEntriesView(job.entries, framing);
  stats_.object_logical_bytes.Record(static_cast<double>(payload.size()));
  envelope_->EncodeInto(payload, job.nonce, enveloped);
  if (traced) {
    const std::uint64_t t_done = clock_->NowMicros();
    tracer_->Record(TraceStage::kEncode, job.trace_seq, t_encode,
                    t_done - t_encode);
  }
}

void CommitPipeline::PublishObject(const UploadJob& job,
                                   std::uint64_t put_start_us,
                                   const Status& st) {
  const std::uint64_t now = clock_->NowMicros();
  const bool traced = job.trace_seq != kNoTrace && Tracing();
  if (st.ok()) {
    stats_.objects_uploaded.Add();
    if (auto id = WalObjectId::Decode(job.name)) {
      view_->AddWal(*id);
      // A streamed object supersedes its ts's tails; delete them in the
      // background. A missed delete is re-swept by checkpoint GC.
      for (const TailObjectId& tail : view_->TailsForTs(id->ts)) {
        DeleteFoldedTail(tail);
      }
    }
    if (traced) {
      tracer_->Record(TraceStage::kPut, job.trace_seq, put_start_us,
                      now >= put_start_us ? now - put_start_us : 0);
    }
  } else if (!killed_.load(std::memory_order_acquire)) {
    // A permanently failed upload outside a kill breaks the recoverable
    // frontier for good — worth a structured record, not a silent drop.
    Log(LogLevel::kError, "commit", "upload permanently failed",
        {{"object", job.name}, {"status", st.ToString()}});
  }
  // Acknowledge even on permanent failure so Stop() can complete — but a
  // failed ack freezes the recoverable frontier (UnlockerLoop), so no
  // checkpoint can ever claim WAL coverage across the gap.
  Ack ack;
  ack.batch_seq = job.batch_seq;
  ack.uploaded = st.ok();
  // kAck only makes sense off a successful PUT's end time.
  ack.trace_seq = (traced && st.ok()) ? job.trace_seq : kNoTrace;
  ack.put_end_us = now;
  ack_queue_.ForcePut(std::move(ack));
}

void CommitPipeline::UploadStreamSegment(UploadJob job, Bytes& framing,
                                         Bytes& enveloped) {
  EncodeJob(job, framing, enveloped);
  const bool traced = job.trace_seq != kNoTrace && Tracing();

  // Bounded run-ahead: wait while this part is a full window ahead of the
  // stream's durable frontier. Uploaders stage a stream's segments out of
  // order, so the bound is on the distance from the frontier, not on the
  // count staged: a count-bound window can fill with later parts that all
  // wait on an earlier one whose uploader is itself waiting. Progress
  // comes from the transfer manager's workers, so polling here cannot
  // deadlock; a failed session admits every part, releasing this wait.
  while (!job.session->WithinWindow(job.seg_index + 1, kStreamPartWindow)) {
    if (killed_.load(std::memory_order_acquire)) return;
    clock_->SleepMicros(kWindowPollUs);
  }

  // Early acks: PUT the segment's envelope as a tail object. The
  // segment's writes acknowledge once it lands (the unlocker still
  // enforces the consecutive-segment rule); a failed tail simply leaves
  // the writes to ack with the finished object instead.
  if (config_.early_ack) {
    TailObjectId tid;
    tid.ts = job.ts;
    tid.seg = job.seg_index;
    tid.max_lsn = job.seg_max_lsn;
    Transfers().PutAsyncCb(
        StreamRoute(), tid.Encode(), Bytes(enveloped),
        [this, tid, seq = job.batch_seq, traced, trace_seq = job.trace_seq,
         close_us = job.close_us](Status st) {
          if (!st.ok()) return;
          view_->AddTail(tid);
          stats_.tail_objects_uploaded.Add();
          // A tail that lands after its object published was missed by
          // the fold's sweep (PublishObject); delete it here instead.
          if (view_->HasWal(tid.ts)) DeleteFoldedTail(tid);
          if (traced && Tracing()) {
            const std::uint64_t now = clock_->NowMicros();
            tracer_->Record(TraceStage::kTailPut, trace_seq, close_us,
                            now >= close_us ? now - close_us : 0);
          }
          Ack ack;
          ack.kind = Ack::Kind::kTailSeg;
          ack.batch_seq = seq;
          ack.seg_index = tid.seg;
          ack_queue_.ForcePut(std::move(ack));
        });
  }

  Bytes part;
  Envelope::AppendStreamSegment(part, View(enveloped));
  const std::uint32_t part_bytes = static_cast<std::uint32_t>(part.size());
  job.session->AppendPart(
      job.seg_index + 1, std::move(part),
      [this, seg = job.seg_index, traced, trace_seq = job.trace_seq,
       close_us = job.close_us, open_us = job.stream_open_us,
       part_bytes](Status st) {
        // A failure here permanently fails the session; the finish
        // callback reports it through the object ack.
        if (!st.ok()) return;
        const std::uint64_t now = clock_->NowMicros();
        stats_.parts_uploaded.Add();
        stats_.bytes_uploaded.Add(part_bytes);
        if (seg == 0) {
          stats_.put_first_byte_us.Record(
              static_cast<double>(now >= open_us ? now - open_us : 0));
        }
        if (traced && Tracing()) {
          tracer_->Record(TraceStage::kPartPut, trace_seq, close_us,
                          now >= close_us ? now - close_us : 0);
          if (seg == 0) {
            tracer_->Record(TraceStage::kPutFirstByte, trace_seq, open_us,
                            now >= open_us ? now - open_us : 0);
          }
        }
      });
}

void CommitPipeline::FinishStream(UploadJob job) {
  // kPut for a streamed object covers close -> published: the part
  // uploads overlapped the batch fill, only the tail is exposed. The
  // callback keeps the job but not the session, which owns the callback.
  const StreamSessionPtr session = std::move(job.session);
  const std::uint32_t total_parts = job.total_parts;
  std::string name = job.name;
  session->Finish(total_parts, std::move(name),
                  [this, job = std::move(job)](Status st) {
                    PublishObject(job, job.close_us, st);
                  });
}

void CommitPipeline::DeleteFoldedTail(const TailObjectId& tail) {
  Transfers().DeleteAsyncCb(StreamRoute(), tail.Encode(),
                            [this, tail](Status st) {
                              // Both the fold's sweep and a late tail's own
                              // check may delete it; count it once.
                              if (st.ok() && view_->RemoveTail(tail)) {
                                stats_.tail_objects_deleted.Add();
                              }
                            });
}

void CommitPipeline::UnlockerLoop() {
  // Frontier values this pass advanced through, in order (the unlocker is
  // the frontier's only writer, so `frontier` mirrors frontier_lsn_).
  std::vector<Lsn> advances;
  Lsn frontier = frontier_lsn_.load(std::memory_order_acquire);
  while (true) {
    std::optional<Ack> ack = ack_queue_.TakeFor(
        std::chrono::microseconds(kPollInterval).count());
    CloseOnDeadline();
    if (!ack) {
      if (ack_queue_.Closed() && ack_queue_.Empty()) return;
      continue;
    }
    const std::uint64_t now = clock_->NowMicros();
    advances.clear();
    std::uint64_t completed = 0;
    // Retires the n oldest pending writes, recording their commit latency.
    auto retire = [&](std::size_t n) {
      assert(pending_times_.size() >= n);
      for (std::size_t i = 0; i < n; ++i) {
        stats_.commit_latency_us.Record(
            static_cast<double>(now - pending_times_.front()));
        pending_times_.pop_front();
      }
      completed += n;
    };
    {
      std::lock_guard<std::mutex> lock(window_mu_);
      if (ack->kind == Ack::Kind::kObject) {
        if (!ack->uploaded) frontier_broken_.store(true);
        for (auto& batch : batches_) {
          if (batch.seq == ack->batch_seq) {
            ++batch.objects_acked;
            break;
          }
        }
      } else {
        // kTailSeg: the segment's tail objects all landed. A tail ack for
        // an already-retired batch (its object finished first) finds
        // nothing and is dropped.
        for (auto& batch : batches_) {
          if (batch.seq == ack->batch_seq) {
            if (ack->seg_index < batch.seg_tail_acked.size()) {
              batch.seg_tail_acked[ack->seg_index] = 1;
            }
            break;
          }
        }
      }
      // Remove completed batches from the head only — this is the
      // consecutive-timestamp rule that bounds loss to S despite parallel
      // out-of-order uploads (Alg. 2 lines 19-22). A streamed batch never
      // retires while its stream is still open.
      while (!batches_.empty() && !batches_.front().open &&
             batches_.front().objects_acked >= batches_.front().objects_total) {
        retire(batches_.front().item_count - batches_.front().writes_completed);
        // The recoverable WAL frontier advances only with the consecutive
        // prefix of *successfully* acknowledged batches.
        if (!frontier_broken_.load() && batches_.front().max_lsn > frontier) {
          frontier = batches_.front().max_lsn;
          advances.push_back(frontier);
        }
        batches_.pop_front();
        batches_inflight_.fetch_sub(1, std::memory_order_release);
        stats_.batches_uploaded.Add();
      }
      // Early acks retire the *head* batch's dense acked-segment prefix
      // before its object finishes. Head-only and prefix-only, so this is
      // still the consecutive rule — the loss bound S is untouched, acks
      // just arrive a finish round-trip sooner. The frontier may advance
      // to the prefix's cumulative max_lsn: those segments are recoverable
      // from their tail objects.
      if (config_.early_ack && !batches_.empty()) {
        Batch& head = batches_.front();
        while (head.tail_prefix < head.seg_tail_acked.size() &&
               head.seg_tail_acked[head.tail_prefix]) {
          ++head.tail_prefix;
        }
        std::size_t prefix_writes = 0;
        for (std::uint32_t s = 0; s < head.tail_prefix; ++s) {
          prefix_writes += head.seg_writes[s];
        }
        if (prefix_writes > head.writes_completed) {
          const std::size_t n = prefix_writes - head.writes_completed;
          retire(n);
          head.writes_completed = prefix_writes;
          stats_.writes_early_acked.Add(n);
          if (!frontier_broken_.load() &&
              head.seg_max_lsn[head.tail_prefix - 1] > frontier) {
            frontier = head.seg_max_lsn[head.tail_prefix - 1];
            advances.push_back(frontier);
          }
        }
      }
      oldest_pending_us_.store(
          pending_times_.empty() ? kNoOldest : pending_times_.front(),
          std::memory_order_release);
    }
    // Publish each advance in order, off window_mu_ (the listener takes the
    // checkpoint pipeline's mutex) but before the completions below, so a
    // caller that sees its writes confirmed also sees the frontier cover
    // them. One listener call per advanced batch or segment makes the
    // observed trace independent of how acks interleave across workers.
    for (const Lsn lsn : advances) {
      frontier_lsn_.store(lsn, std::memory_order_release);
      if (frontier_listener_) frontier_listener_();
    }
    if (completed > 0) {
      completed_count_.fetch_add(completed, std::memory_order_release);
    }
    if (ack->trace_seq != kNoTrace && Tracing()) {
      tracer_->Record(TraceStage::kAck, ack->trace_seq, ack->put_end_us,
                      now >= ack->put_end_us ? now - ack->put_end_us : 0);
      if (!advances.empty()) {
        tracer_->Record(TraceStage::kFrontier, ack->trace_seq, now, 0);
      }
    }
    // Empty critical section: orders the counter updates above before the
    // notify, so a Submit that just evaluated ShouldBlock under block_mu_
    // cannot miss this wakeup.
    {
      std::lock_guard<std::mutex> lock(block_mu_);
    }
    unblock_cv_.notify_all();
  }
}

}  // namespace ginja
