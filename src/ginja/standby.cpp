#include "ginja/standby.h"

#include <algorithm>
#include <map>

#include "common/codec/codec_pool.h"
#include "ginja/failover.h"
#include "ginja/fleet_runtime.h"
#include "ginja/object_id.h"
#include "obs/log.h"

namespace ginja {

namespace {

void MergeReport(RecoveryReport* into, const RecoveryReport& r) {
  into->objects_downloaded += r.objects_downloaded;
  into->bytes_downloaded += r.bytes_downloaded;
  into->wal_objects_applied += r.wal_objects_applied;
  into->tail_segments_applied += r.tail_segments_applied;
  into->db_objects_applied += r.db_objects_applied;
  into->files_written += r.files_written;
  into->chunks_downloaded += r.chunks_downloaded;
  into->chunks_reused += r.chunks_reused;
  into->recovered_to_ts = std::max(into->recovered_to_ts, r.recovered_to_ts);
  into->found_dump = into->found_dump || r.found_dump;
}

}  // namespace

StandbyReplica::StandbyReplica(ObjectStorePtr store, GinjaConfig config,
                               std::shared_ptr<Clock> clock,
                               StandbyOptions options)
    : store_(std::move(store)),
      config_(std::move(config)),
      clock_(std::move(clock)),
      options_(std::move(options)),
      envelope_(config_.envelope),
      image_(std::make_shared<MemFs>()) {
  obs_ = config_.obs ? config_.obs
         : config_.runtime
             ? config_.runtime->obs()
             : std::make_shared<Observability>(config_.trace);
  config_.obs = obs_;
  if (config_.runtime && config_.runtime->codec_pool()) {
    codec_pool_ = config_.runtime->codec_pool();
    envelope_.SetCodecPool(codec_pool_);
  } else if (config_.codec_threads > 1) {
    codec_pool_ = std::make_shared<CodecPool>(config_.codec_threads);
    envelope_.SetCodecPool(codec_pool_);
  }
  if (config_.runtime) {
    // A fleet standby rides the shared worker pool: its GETs route to the
    // tenant's namespaced stack and bill a per-standby account.
    route_.store = store_;
    route_.account = std::make_shared<TransferAccount>(
        config_.tenant_id.empty() ? options_.component : config_.tenant_id);
    transfers_ = config_.runtime->transfers().get();
  } else {
    // K workers keep the GET window full; the rest run the decode tasks
    // ApplyTailPlan hands out (fewer than codec_threads at once), so a decode
    // never holds a GET back.
    owned_transfers_ = std::make_shared<TransferManager>(
        store_,
        MakeTransferOptions(config_, config_.recovery_prefetch +
                                         std::max(1, config_.codec_threads)),
        clock_);
    owned_transfers_->RegisterMetrics(&obs_->registry, options_.component);
    transfers_ = owned_transfers_.get();
  }
}

StandbyReplica::~StandbyReplica() {
  Stop();
  obs_->registry.Unregister(this);
}

std::shared_ptr<MemFs> StandbyReplica::image() const {
  std::lock_guard<std::mutex> lock(mu_);
  return image_;
}

RecoveryReport StandbyReplica::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return report_;
}

std::uint64_t StandbyReplica::lag_objects() const {
  // newest_seen_ holds ts+1 (0 = nothing seen); next_ts_ is the frontier.
  // Caught up when every seen object is below the frontier.
  const std::uint64_t newest_plus1 =
      newest_seen_.load(std::memory_order_acquire);
  const std::uint64_t next = next_ts_.load(std::memory_order_acquire);
  return newest_plus1 > next ? newest_plus1 - next : 0;
}

std::uint64_t StandbyReplica::lag_micros() const {
  const std::uint64_t since = behind_since_us_.load(std::memory_order_acquire);
  if (since == 0 || lag_objects() == 0) return 0;
  const std::uint64_t now = clock_->NowMicros();
  return now > since ? now - since : 0;
}

void StandbyReplica::UpdateLag() {
  const std::uint64_t lag = lag_objects();
  std::uint64_t peak = peak_lag_objects_.load(std::memory_order_relaxed);
  while (lag > peak && !peak_lag_objects_.compare_exchange_weak(
                           peak, lag, std::memory_order_relaxed)) {
  }
  if (lag == 0) {
    behind_since_us_.store(0, std::memory_order_release);
  } else if (behind_since_us_.load(std::memory_order_acquire) == 0) {
    behind_since_us_.store(clock_->NowMicros(), std::memory_order_release);
  }
}

TailApplyContext StandbyReplica::MakeContext(VfsPtr target,
                                             std::size_t items) {
  TailApplyContext ctx;
  ctx.transfers = transfers_;
  ctx.route = route_;
  ctx.envelope = &envelope_;
  ctx.target = std::move(target);
  ctx.clock = clock_;
  ctx.tracer = &obs_->tracer;
  ctx.window =
      static_cast<std::size_t>(std::max(1, config_.recovery_prefetch));
  // Fetched ahead: K of the largest objects, the most the window held
  // when it counted items, so a plan of large objects still keeps K GETs
  // in flight while small ones run as far ahead as those bytes allow.
  // K = 1 fetches nothing ahead: the paper's serial download loop.
  ctx.fetch_budget =
      ctx.window > 1 ? ctx.window * config_.max_object_bytes : 0;
  // Room for two of the largest objects to decode ahead of the apply, or
  // many small WAL objects.
  ctx.decode_budget = 2 * config_.max_object_bytes;
  ctx.trace_id_base = trace_seq_;
  trace_seq_ += items;
  return ctx;
}

Status StandbyReplica::Start() {
  // Registered here, not at construction: a one-shot RecoverInto reader
  // (Ginja::Recover) is no standby and exports no standby series.
  MetricLabels labels;
  if (!config_.tenant_id.empty()) labels = {{"tenant", config_.tenant_id}};
  obs_->registry.RegisterGauge(
      this, "ginja_standby_lag_objects", labels,
      [this] { return static_cast<double>(lag_objects()); });
  obs_->registry.RegisterGauge(
      this, "ginja_standby_lag_micros", labels,
      [this] { return static_cast<double>(lag_micros()); });
  obs_->registry.RegisterCounter(this, "ginja_standby_objects_applied_total",
                                 labels, &objects_applied_);
  obs_->registry.RegisterCounter(this, "ginja_standby_resyncs_total",
                                 std::move(labels), &resyncs_);
  GINJA_RETURN_IF_ERROR(Rebuild(/*bootstrap=*/true));
  stop_.store(false);
  running_.store(true);
  thread_ = std::thread([this] { TailLoop(); });
  return Status::Ok();
}

void StandbyReplica::Stop() {
  if (!running_.exchange(false)) return;
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void StandbyReplica::TailLoop() {
  while (!stop_.load()) {
    std::size_t progressed = 0;
    Status st = resync_needed_ ? Rebuild(/*bootstrap=*/false)
                               : PollOnce(&progressed);
    if (!st.ok()) {
      // Transient cloud trouble: the next poll retries; a resync request
      // raised mid-poll is honoured on the next pass.
      Log(LogLevel::kWarn, "standby", "tail poll failed",
          {{"status", st.ToString()}});
    }
    if (progressed > 0) {
      gap_polls_ = 0;
    } else if (!resync_needed_ && lag_objects() > 0) {
      // Objects are visible past the frontier but the frontier object is
      // not: usually an upload landing out of order, permanently a GC'd
      // frontier (the standby fell behind retention).
      if (++gap_polls_ >= std::max(1, options_.resync_after_gap_polls)) {
        resync_needed_ = true;
        gap_polls_ = 0;
      }
    } else {
      gap_polls_ = 0;
    }
    // Sleep in small slices so Stop() is responsive under scaled clocks.
    std::uint64_t remaining = options_.poll_interval_us;
    while (remaining > 0 && !stop_.load()) {
      const std::uint64_t slice = std::min<std::uint64_t>(remaining, 20'000);
      clock_->SleepMicros(slice);
      remaining -= slice;
    }
  }
}

Status StandbyReplica::ApplyItems(const std::vector<TailPlanItem>& items,
                                  std::size_t* progressed) {
  if (items.empty()) return Status::Ok();
  std::shared_ptr<MemFs> target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    target = image_;
  }
  TailApplyContext ctx = MakeContext(target, items.size());
  ctx.fetch_stage = TraceStage::kTailFetch;
  ctx.decode_stage = TraceStage::kTailDecode;
  ctx.apply_stage = TraceStage::kTailApply;
  RecoveryReport r;
  TailApplyResult applied = ApplyTailPlan(items, ctx, &r);
  {
    std::lock_guard<std::mutex> lock(mu_);
    MergeReport(&report_, r);
  }
  objects_applied_.Add(applied.items_applied);
  *progressed += applied.items_applied;
  // Advance the frontier over the applied prefix.
  for (std::size_t i = 0; i < applied.items_applied; ++i) {
    const TailPlanItem& item = items[i];
    if (item.is_tail) {
      if (auto id = TailObjectId::Decode(item.name)) {
        tail_seg_cursor_ = id->seg + 1;
      }
      next_ts_.store(item.wal_ts, std::memory_order_release);
    } else {
      next_ts_.store(item.wal_ts + 1, std::memory_order_release);
      tail_seg_cursor_ = 0;
    }
  }
  if (!applied.db_failure.ok()) return applied.db_failure;
  if (applied.wal_truncated && applied.items_applied < items.size()) {
    const TailPlanItem& failed = items[applied.items_applied];
    if (!failed.is_tail &&
        applied.wal_failure.code() == ErrorCode::kNotFound) {
      // The frontier WAL object vanished between LIST and GET: garbage
      // collection raced past the tail. Only a full re-list (which picks
      // up the covering checkpoint) can move forward.
      resync_needed_ = true;
    }
    // A vanished *tail* object is the stream-close fold: the finished WAL
    // object supersedes it and the next poll applies that instead. Other
    // failures are transient; the next poll retries from the frontier.
  }
  return Status::Ok();
}

Status StandbyReplica::PollOnce(std::size_t* progressed) {
  ++polls_;
  const std::uint64_t next = next_ts_.load(std::memory_order_acquire);
  // Cursor derived from the next *expected* ts — see the header caveat on
  // unpadded timestamps. Periodically fall back to the full prefix so a
  // digit rollover with a GC'd boundary object cannot stall the tail.
  const bool full_scan =
      options_.full_list_every_polls > 0 &&
      polls_ % static_cast<std::uint64_t>(options_.full_list_every_polls) == 0;
  auto listing = full_scan
                     ? store_->List("WAL/")
                     : store_->List("WAL/", "WAL/" + std::to_string(next));
  if (!listing.ok()) return listing.status();
  std::optional<std::uint64_t> newest;
  std::vector<TailPlanItem> items =
      ContinueWalPlan(*listing, next, options_.open_at_ts, &newest);
  if (newest && options_.open_at_ts && *newest > *options_.open_at_ts) {
    // A time-travel standby ignores objects past its cap: they are not
    // lag, they are the future it was asked not to have.
    newest = *options_.open_at_ts;
  }
  if (newest && *newest + 1 > newest_seen_.load(std::memory_order_acquire)) {
    newest_seen_.store(*newest + 1, std::memory_order_release);
  }
  GINJA_RETURN_IF_ERROR(ApplyItems(items, progressed));

  // Early-ack streaming: the acked segment prefix of the (unfinished)
  // frontier object is applied as it grows, keeping lag sub-batch.
  const std::uint64_t frontier = next_ts_.load(std::memory_order_acquire);
  if (config_.early_ack && !resync_needed_ &&
      (!options_.open_at_ts || frontier <= *options_.open_at_ts)) {
    auto tails =
        store_->List("WALTAIL/" + std::to_string(frontier) + "_");
    if (!tails.ok()) return tails.status();
    std::map<std::uint32_t, std::vector<Listed<TailObjectId>>> segs;
    for (const auto& meta : *tails) {
      auto id = TailObjectId::Decode(meta.name);
      if (id && id->ts == frontier) segs[id->seg].push_back({*id, meta.size});
    }
    GINJA_RETURN_IF_ERROR(ApplyItems(
        BuildTailSegmentItems(segs, frontier, tail_seg_cursor_), progressed));
  }
  // On the periodic full scan, an idle pass also probes DB/ for a
  // checkpoint that folded timestamps past the frontier — the only way
  // the bucket gets ahead of the image with no WAL visible (the primary
  // checkpointed while we lagged and GC deleted the evidence).
  if (full_scan && *progressed == 0 && !resync_needed_ &&
      CheckpointAheadOfFrontier()) {
    resync_needed_ = true;
  }
  UpdateLag();
  return Status::Ok();
}

bool StandbyReplica::CheckpointAheadOfFrontier() {
  auto objects = store_->List("DB/");
  if (!objects.ok()) return false;
  const std::uint64_t next = next_ts_.load(std::memory_order_acquire);
  // Is some DB object set with next <= ts <= open_at_ts complete? The
  // planner plans a DB object iff a set in its listing is complete, so it
  // sees only the sets past the frontier. (Not the plan of the whole
  // listing: DB ts is not monotone in seq across a Reboot whose GC took
  // every WAL object.) ts 0 is ambiguous — a DB object uploaded before any
  // WAL existed also encodes 0 (see BuildTailPlan) — so it is never ahead.
  std::erase_if(*objects, [next](const ObjectMeta& meta) {
    auto id = DbObjectId::Decode(meta.name);
    return !id || id->ts == 0 || id->ts < next;
  });
  return !BuildTailPlan(*objects, options_.open_at_ts).items.empty();
}

Status StandbyReplica::FullPass(VfsPtr target, VfsPtr chunk_source,
                                RecoveryReport* r, std::uint64_t* resume_ts,
                                std::uint32_t* resume_segs) {
  auto objects = store_->List("");
  if (!objects.ok()) return objects.status();
  TailPlan plan = BuildTailPlan(*objects, options_.open_at_ts);
  if (plan.newest_wal_ts &&
      *plan.newest_wal_ts + 1 > newest_seen_.load(std::memory_order_acquire)) {
    newest_seen_.store(*plan.newest_wal_ts + 1, std::memory_order_release);
  }
  TailApplyContext ctx = MakeContext(std::move(target), plan.items.size());
  ctx.chunk_source = std::move(chunk_source);
  r->found_dump = r->found_dump || plan.found_dump;
  TailApplyResult applied = ApplyTailPlan(plan.items, ctx, r);
  if (!applied.db_failure.ok()) return applied.db_failure;
  if (plan.gap_after_plan) r->gap_detected = true;

  // The frontier the plan would leave us at — or, if the apply truncated
  // early (an object vanished mid-build), the truncation point itself, so
  // tailing re-fetches from there instead of skipping past it.
  if (resume_ts == nullptr) return Status::Ok();
  *resume_ts = plan.resume_ts;
  *resume_segs = plan.resume_tail_segs;
  if (applied.wal_truncated && applied.items_applied < plan.items.size()) {
    const TailPlanItem& failed = plan.items[applied.items_applied];
    *resume_ts = failed.wal_ts;
    *resume_segs = 0;
    if (failed.is_tail) {
      if (auto id = TailObjectId::Decode(failed.name)) *resume_segs = id->seg;
    }
  }
  return Status::Ok();
}

Status StandbyReplica::Rebuild(bool bootstrap) {
  // Into a fresh image; warm resync against delta dumps lets the outgoing
  // image donate chunks whose bytes still hash to the manifest's digest,
  // so only the chunks that actually changed are downloaded. Bootstrap
  // donates an empty image (nothing matches — a plain full recovery).
  auto fresh = std::make_shared<MemFs>();
  RecoveryReport r;
  std::uint64_t resume_ts = 0;
  std::uint32_t resume_segs = 0;
  GINJA_RETURN_IF_ERROR(
      FullPass(fresh, image(), &r, &resume_ts, &resume_segs));
  // Every applied plan item is exactly one dump/checkpoint part, WAL
  // object or tail segment.
  const std::uint64_t items_applied =
      r.db_objects_applied + r.wal_objects_applied + r.tail_segments_applied;

  {
    std::lock_guard<std::mutex> lock(mu_);
    image_ = std::move(fresh);
    MergeReport(&report_, r);
  }
  objects_applied_.Add(items_applied);
  next_ts_.store(resume_ts, std::memory_order_release);
  tail_seg_cursor_ = resume_segs;
  resync_needed_ = false;
  gap_polls_ = 0;
  if (!bootstrap) {
    resyncs_.Add();
    Log(LogLevel::kWarn, "standby", "full resync",
        {{"resume_ts", resume_ts}, {"objects", items_applied}});
  }
  UpdateLag();
  return Status::Ok();
}

Result<PromotionReport> StandbyReplica::Promote() {
  const std::uint64_t t0 = clock_->NowMicros();
  Stop();
  PromotionReport pr;
  // Fence first (paper-style takeover order): the epoch bump reaches the
  // bucket before any drained byte is trusted, so an old primary can no
  // longer publish behind our back. `ginja::` qualifies the free function
  // past this member's own name.
  auto epoch = ginja::Promote(*store_, envelope_);
  if (!epoch.ok()) return epoch.status();
  pr.epoch = *epoch;
  // The local token closes the heartbeat window: a FencedStore sharing it
  // rejects the zombie's already-in-flight AppendPart/Finish immediately.
  if (options_.fence) options_.fence->Raise(*epoch);

  const RecoveryReport before = report();
  const std::uint64_t resyncs_before = resyncs();
  // Drain the residual tail: everything the fenced primary managed to
  // publish. Two consecutive empty passes make the drain race-free against
  // PUTs that passed the fence check just before the epoch bump.
  int empty_passes = 0;
  int failures = 0;
  bool tried_resync = false;
  while (empty_passes < 2) {
    std::size_t progressed = 0;
    Status st;
    if (resync_needed_) {
      st = Rebuild(/*bootstrap=*/false);
      if (st.ok()) progressed = 1;  // fresh image — re-poll from its frontier
    } else {
      st = PollOnce(&progressed);
    }
    if (!st.ok()) {
      if (++failures > 5) return st;
      continue;
    }
    failures = 0;
    if (progressed > 0) {
      empty_passes = 0;
      continue;
    }
    ++empty_passes;
    if (empty_passes >= 2 && !tried_resync &&
        (lag_objects() > 0 || CheckpointAheadOfFrontier())) {
      // The bucket is ahead of an unreachable frontier: either WAL is
      // visible past a GC'd frontier object, or — with no WAL visible at
      // all — a checkpoint folded timestamps we never applied (promotion
      // raced the checkpointer + GC). One full resync picks up the
      // covering checkpoint; a hole that survives the resync is a
      // never-acknowledged upload and the drain stops at it.
      resync_needed_ = true;
      tried_resync = true;
      empty_passes = 0;
    }
  }

  const RecoveryReport after = report();
  pr.residual_wal_objects =
      after.wal_objects_applied - before.wal_objects_applied;
  pr.residual_tail_segments =
      after.tail_segments_applied - before.tail_segments_applied;
  pr.resynced = resyncs() > resyncs_before;
  pr.recovered_to_ts = after.recovered_to_ts;
  // Objects remain visible past the drained frontier: the tail is truncated
  // at a hole (a never-acknowledged upload) — the bounded S-write loss.
  pr.gap_detected = lag_objects() > 0;
  pr.rto_micros = clock_->NowMicros() - t0;
  promoted_.store(true, std::memory_order_release);
  Log(LogLevel::kInfo, "standby", "promoted",
      {{"epoch", pr.epoch},
       {"rto_us", pr.rto_micros},
       {"residual_wal", pr.residual_wal_objects},
       {"residual_tails", pr.residual_tail_segments},
       {"recovered_to_ts", pr.recovered_to_ts}});
  return pr;
}

}  // namespace ginja
