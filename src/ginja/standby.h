// StandbyReplica — a warm replica that tails the bucket continuously so
// failover costs milliseconds instead of a full re-download — and the one
// reader of restore points: the cold path is one pass of this class.
//
// A full pass is one LIST → BuildTailPlan → ApplyTailPlan into an empty
// image (paper Alg. 1 lines 23–40). Ginja::Recover is exactly one such
// pass into the caller's target (RecoverInto: no thread, no drain), so
// disaster recovery rebuilds the database from scratch and its RTO grows
// with database size. The warm path keeps a live materialized image on a
// standby machine by *tailing* the same objects recovery would read, as
// they appear:
//
//   * bootstrap: one full pass (Start), exactly a recovery into an empty
//     image;
//   * steady state: a poll loop LISTs `WAL/` with a start-after cursor (an
//     S3 ListObjectsV2 `start-after`), so each pass costs O(new objects),
//     applies the new consecutive-ts run, and — when the primary streams
//     with early acks — applies the acked `WALTAIL/` segment prefix of the
//     in-progress object too, keeping lag below one batch;
//   * resync: a full pass into a fresh image, swapped in once complete;
//   * promotion: fence the old primary (epoch bump via ginja::Promote +
//     an optional local FenceToken mirroring S3 conditional writes), drain
//     the residual tail, serve. RTO is O(lag), independent of DB size.
//
// Full passes trace into the recovery_fetch/recovery_decode/recovery_apply
// stages, tail polls into tail_fetch/tail_decode/tail_apply.
//
// Cursor caveat: WAL timestamps are encoded unpadded, so lexicographic
// order diverges from numeric order across digit-length changes
// ("WAL/10..." < "WAL/9..."). The cursor is therefore derived from the
// *next expected* ts — "WAL/<next_ts>" — never from the last key seen;
// names with ts >= next_ts and the same digit count sort after it, and the
// one unreachable case (a digit rollover whose boundary object was GC'd)
// is caught by the periodic full-prefix scan + resync fallback.
//
// Consistency: the standby applies only what recovery would apply —
// complete part-sets, consecutive-ts WAL runs, dense acked tail prefixes —
// so its image is at every moment *some* correct recovery point. A torn
// checkpoint upload or a GC racing the tail can only delay it (triggering
// a full resync into a fresh image), never corrupt it.
//
// Time travel: `open_at_ts` caps tailing at an arbitrary frontier, which
// turns the standby into an incrementally-maintained point-in-time
// restore — PITR is just a tail opened somewhere other than "now".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cloud/fenced_store.h"
#include "cloud/object_store.h"
#include "cloud/transfer.h"
#include "common/clock.h"
#include "common/codec/envelope.h"
#include "common/stats.h"
#include "fs/mem_fs.h"
#include "ginja/config.h"
#include "ginja/tail_apply.h"

namespace ginja {

struct StandbyOptions {
  // Tail poll cadence (model time).
  std::uint64_t poll_interval_us = 10'000;
  // Every Nth empty poll re-LISTs the whole WAL/ prefix instead of the
  // cursor view — the safety net for the unpadded-ts digit rollover and
  // for GC racing far ahead of the cursor.
  int full_list_every_polls = 16;
  // A cursor gap (objects visible past the frontier, frontier object
  // missing) tolerated for this many consecutive polls before a full
  // resync. Gaps are usually transient — parallel uploaders land ts N+1
  // before ts N — so this must comfortably exceed one upload round-trip's
  // worth of polls; a *permanent* gap means GC collected the frontier.
  int resync_after_gap_polls = 8;
  // Cap tailing at this WAL ts (inclusive): the time-travel knob.
  std::optional<std::uint64_t> open_at_ts;
  // Raised to the new epoch during Promote(); share it with a FencedStore
  // wrapped around the old primary's stack to reject its in-flight
  // mutations the instant promotion happens (S3 conditional writes).
  FenceTokenPtr fence;
  // Component label for the owned TransferManager's metrics.
  std::string component = "standby";
};

struct PromotionReport {
  std::uint64_t epoch = 0;          // the fencing epoch now owned
  std::uint64_t rto_micros = 0;     // Promote() entry → image serveable
  // Objects the residual drain applied after fencing (the actual lag paid
  // at promotion time).
  std::uint64_t residual_wal_objects = 0;
  std::uint64_t residual_tail_segments = 0;
  bool resynced = false;            // the drain fell back to a full re-list
  std::uint64_t recovered_to_ts = 0;
  bool gap_detected = false;        // tail truncated: bounded S-write loss
};

class StandbyReplica {
 public:
  // `store` is the bucket the primary replicates into (a fleet tenant
  // passes its namespaced stack). The config supplies envelope keys, codec
  // threads, prefetch window, retry policy, obs bundle, and fleet routing.
  // A null `clock` is allowed for RecoverInto only: the pass runs untraced.
  StandbyReplica(ObjectStorePtr store, GinjaConfig config,
                 std::shared_ptr<Clock> clock, StandbyOptions options = {});
  ~StandbyReplica();

  StandbyReplica(const StandbyReplica&) = delete;
  StandbyReplica& operator=(const StandbyReplica&) = delete;

  // Registers the lag gauges and counters, bootstraps the image (one full
  // pass) and starts the tail thread. Returns only after the bootstrap
  // applied.
  Status Start();

  // One full pass into `target` (capped at open_at_ts): the pass Start()
  // and every resync run, minus the image swap and frontier update. Starts
  // no thread and passes no chunk donor; `report` gains the pass's
  // counters, found_dump, and gap_detected when the visible tail is
  // truncated. Ginja::Recover is this call.
  Status RecoverInto(VfsPtr target, RecoveryReport* report) {
    return FullPass(std::move(target), nullptr, report, nullptr, nullptr);
  }

  // Stops tailing (idempotent). The image stays readable.
  void Stop();

  // Takeover: stops the tail, bumps `meta/epoch` (fencing any primary of
  // an older epoch at its next heartbeat), raises the local fence token
  // (rejecting the old primary's in-flight mutations immediately), drains
  // the residual tail, and returns. After this the image is the recovered
  // database — hand it to a DBMS and serve. O(lag), not O(DB size).
  Result<PromotionReport> Promote();

  // The live materialized image. Swapped atomically on resync; callers
  // hold their own shared_ptr. After Promote() it is the authoritative
  // recovered state.
  std::shared_ptr<MemFs> image() const;

  // Cumulative apply counters across bootstrap, tailing, and resyncs.
  RecoveryReport report() const;

  // Objects visible in the bucket but not yet applied (0 = caught up),
  // and how long the standby has continuously been behind.
  std::uint64_t lag_objects() const;
  std::uint64_t lag_micros() const;
  std::uint64_t peak_lag_objects() const {
    return peak_lag_objects_.load(std::memory_order_relaxed);
  }

  std::uint64_t resyncs() const { return resyncs_.Get(); }
  std::uint64_t objects_applied() const { return objects_applied_.Get(); }
  // Next WAL ts the tail expects (the applied frontier + 1).
  std::uint64_t next_ts() const {
    return next_ts_.load(std::memory_order_acquire);
  }
  bool promoted() const { return promoted_.load(std::memory_order_acquire); }

  ObservabilityPtr observability() const { return obs_; }

 private:
  void TailLoop();
  // One poll: cursor-list new WAL objects, apply the consecutive run, then
  // (early-ack) the acked tail-segment prefix of the frontier ts.
  // `progressed` counts plan items applied this pass.
  Status PollOnce(std::size_t* progressed);
  // Fetch+apply `items` into the current image, advancing the frontier
  // over the applied prefix; flags resync_needed_ on a GC'd frontier.
  Status ApplyItems(const std::vector<TailPlanItem>& items,
                    std::size_t* progressed);
  // LIST → plan → apply into `target`, offering `chunk_source` as the
  // delta-dump chunk donor. When `resume_ts` is set, it and `resume_segs`
  // receive where tailing continues: the plan's resume point, or the
  // truncation point when a WAL item failed.
  Status FullPass(VfsPtr target, VfsPtr chunk_source, RecoveryReport* r,
                  std::uint64_t* resume_ts, std::uint32_t* resume_segs);
  // A full pass into a FRESH image, swapped in only once complete — a
  // reader never sees a half-rebuilt image. `bootstrap` skips the resync
  // counter (Start's first build is not a resync).
  Status Rebuild(bool bootstrap);
  // True when a *complete* DB object set in the bucket folded WAL
  // timestamps at or past our frontier: the primary checkpointed writes we
  // never applied and GC may already have deleted their WAL objects — the
  // one way the bucket gets ahead of the image without any visible WAL
  // (lag reads 0). Answers false on listing errors (the caller retries).
  bool CheckpointAheadOfFrontier();
  TailApplyContext MakeContext(VfsPtr target, std::size_t items);
  void UpdateLag();

  ObjectStorePtr store_;
  GinjaConfig config_;
  std::shared_ptr<Clock> clock_;
  StandbyOptions options_;
  ObservabilityPtr obs_;

  Envelope envelope_;
  std::shared_ptr<CodecPool> codec_pool_;
  std::shared_ptr<TransferManager> owned_transfers_;
  TransferManager* transfers_ = nullptr;  // owned, or the fleet's shared one
  TransferRoute route_;

  mutable std::mutex mu_;  // guards image_ swap + report_
  std::shared_ptr<MemFs> image_;
  RecoveryReport report_;

  // Tail-thread state (read by accessors/gauges, written by the tail
  // thread — and by Promote()'s drain after the thread has joined).
  std::atomic<std::uint64_t> next_ts_{0};  // WAL ts are assigned from 0
  std::uint32_t tail_seg_cursor_ = 0;  // next unapplied WALTAIL seg of next_ts_
  // Newest WAL ts seen in any listing, stored as ts+1 (0 = none seen yet —
  // ts 0 itself is a valid timestamp).
  std::atomic<std::uint64_t> newest_seen_{0};
  std::atomic<std::uint64_t> behind_since_us_{0};
  std::atomic<std::uint64_t> peak_lag_objects_{0};
  bool resync_needed_ = false;
  int gap_polls_ = 0;
  std::uint64_t polls_ = 0;
  std::uint64_t trace_seq_ = 0;  // span-id base for the next applied plan

  Counter objects_applied_;
  Counter resyncs_;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> promoted_{false};
};

}  // namespace ginja
