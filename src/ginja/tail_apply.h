// Shared tail-apply machinery — the one place that decides which objects
// make up a restore point, and the one "fetch cloud objects in order,
// decode, write into a DB image" loop.
//
// Consumers of the plan (BuildTailPlan):
//   * StandbyReplica — the only reader of the bucket. A full pass (LIST →
//     plan → windowed apply) bootstraps and resyncs the warm image;
//     between passes ContinueWalPlan() increments against an incremental
//     LIST cursor, applied into the live image so promotion is O(lag), not
//     O(DB). Its DB/ probe for a checkpoint ahead of the frontier asks the
//     planner whether any set at or past the frontier is complete;
//   * Ginja::Recover — disaster recovery is one full pass of a standby
//     into an empty target (paper Alg. 1 lines 23–40);
//   * point-in-time recovery — the same plan opened at an arbitrary
//     frontier (`up_to_ts`), which is all time travel is;
//   * GC retention (RetentionPolicy::KeepSet) — a protected point keeps
//     exactly the objects its restore plan reads (paper §5.4).
//
// The plan is computable before the first GET because object names carry
// their recovery metadata (ts, redo LSN, part counts): a K-deep prefetch
// window changes *when* bytes arrive but never *what* is applied, and
// report counters advance at apply time so reports are K-invariant.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cloud/object_store.h"
#include "cloud/transfer.h"
#include "common/clock.h"
#include "common/codec/envelope.h"
#include "db/layout.h"
#include "fs/vfs.h"
#include "ginja/object_id.h"
#include "obs/trace.h"

namespace ginja {

struct RecoveryReport {
  std::uint64_t objects_downloaded = 0;
  std::uint64_t bytes_downloaded = 0;   // enveloped bytes
  std::uint64_t wal_objects_applied = 0;
  // Early-ack tail segments (WALTAIL/) applied from an unfinished streamed
  // WAL object — the acked prefix of the batch that was in flight.
  std::uint64_t tail_segments_applied = 0;
  std::uint64_t db_objects_applied = 0;
  std::uint64_t files_written = 0;
  // Delta-dump manifests (ginja/dedup.h): chunks fetched from the cloud vs
  // chunks satisfied from ctx.chunk_source by local hash verification.
  std::uint64_t chunks_downloaded = 0;
  std::uint64_t chunks_reused = 0;
  std::uint64_t recovered_to_ts = 0;    // highest WAL-object ts applied
  bool found_dump = false;
  bool gap_detected = false;            // WAL tail truncated at a ts gap
  std::uint64_t duration_micros = 0;    // model time
};

// One object to fetch and apply, in plan order.
struct TailPlanItem {
  std::string name;
  bool is_wal = false;
  bool is_tail = false;       // WALTAIL/ segment of an unfinished object
  std::uint64_t wal_ts = 0;
  // Replica tails holding the same segment bytes, tried in order when
  // the primary fails; empty for everything else.
  std::vector<std::string> fallbacks;
  // Delta-dump manifest: the payload lists CHUNK/ references which the
  // apply loop expands into windowed chunk fetches.
  bool is_manifest = false;
  // Enveloped bytes, from the listing (ObjectMeta::size): what the fetch
  // window charges against its lookahead budget and what a decode buffer
  // is prepaid from before the object lands. 0 when unknown.
  std::uint64_t size = 0;
};

// An id decoded from a listing, with the object's listed size (which
// becomes TailPlanItem::size).
template <typename Id>
struct Listed {
  Id id;
  std::uint64_t size = 0;
};

struct TailPlan {
  std::vector<TailPlanItem> items;
  bool found_dump = false;
  // True when the visible WAL tail is truncated: a ts gap past the planned
  // run, or a tails-only (unfinished) object ending the plan.
  bool gap_after_plan = false;
  Lsn last_redo_lsn = 0;      // redo point of the planned DB objects
  // Newest WAL-object ts visible in the listing (planned or not); feeds
  // the standby's lag gauge.
  std::optional<std::uint64_t> newest_wal_ts;
  // Where tailing continues after this plan: the ts after the last
  // consecutive full WAL object considered — or the unfinished streamed ts
  // itself when the plan ends in its tail segments (more segments, or the
  // folded object, may yet appear).
  std::uint64_t resume_ts = 0;
  // Next unapplied tail segment index of `resume_ts` (the standby resumes
  // its per-ts segment cursor here); 0 when the plan has no tail items.
  std::uint32_t resume_tail_segs = 0;
};

// Builds the bootstrap fetch plan from a full bucket listing: the latest
// *complete* dump, complete checkpoints newer than it, WAL objects past the
// planned redo LSN in consecutive-ts order, and the dense acked
// tail-segment prefix of at most one unfinished streamed object. With
// `up_to_ts`, only objects with ts <= the limit participate (PITR).
TailPlan BuildTailPlan(const std::vector<ObjectMeta>& objects,
                       std::optional<std::uint64_t> up_to_ts);

// Incremental continuation for a tailing standby: full WAL objects with
// ts >= next_ts out of a (cursor-)listing, in consecutive order starting
// exactly at next_ts; stops before the first gap. `newest_ts` (optional
// out) reports the newest WAL ts seen, applied or not, for lag tracking.
std::vector<TailPlanItem> ContinueWalPlan(
    const std::vector<ObjectMeta>& objects, std::uint64_t next_ts,
    std::optional<std::uint64_t> up_to_ts,
    std::optional<std::uint64_t>* newest_ts);

// The dense acked segment run of one streamed ts, as plan items with
// replica fallbacks. Segments below `from_seg` are skipped (already
// applied); a fresh run (from_seg 0) starts at the lowest surviving
// segment (GC only ever deletes a seg-prefix), a resumed one exactly at
// from_seg, and either ends at the first hole — what followed the hole
// was never acknowledged.
std::vector<TailPlanItem> BuildTailSegmentItems(
    const std::map<std::uint32_t, std::vector<Listed<TailObjectId>>>& segs,
    std::uint64_t ts, std::uint32_t from_seg);

// Everything ApplyTailPlan needs, parameterized so recovery and the warm
// standby share one loop but trace into their own stages.
struct TailApplyContext {
  TransferManager* transfers = nullptr;
  TransferRoute route;                  // default: the manager's own store
  const Envelope* envelope = nullptr;
  VfsPtr target;
  std::shared_ptr<Clock> clock;         // null => untraced
  WriteTracer* tracer = nullptr;        // null => untraced
  std::size_t window = 1;               // K GETs kept incomplete
  // Enveloped bytes (TailPlanItem::size, chunk lengths) that may be
  // fetched ahead of the item the apply is on; 0 fetches nothing ahead.
  std::size_t fetch_budget = 0;
  // Bytes of decoded payload the workers may hold ahead of the apply
  // (buffers kept for reuse included); 0 decodes everything on the caller.
  std::size_t decode_budget = 0;
  TraceStage fetch_stage = TraceStage::kRecoveryFetch;
  TraceStage decode_stage = TraceStage::kRecoveryDecode;
  TraceStage apply_stage = TraceStage::kRecoveryApply;
  std::uint64_t trace_id_base = 0;      // plan index offset for span ids
  // Optional local chunk donor for delta-dump manifests: a ref whose
  // (path, offset, length) bytes here hash to the ref's digest is copied
  // locally instead of fetched — the warm standby passes its previous
  // image so a resync downloads only the chunks that actually changed.
  VfsPtr chunk_source;
};

struct TailApplyResult {
  // Non-OK when a dump/checkpoint part failed — the page state would be
  // incomplete, so the whole recovery fails.
  Status db_failure = Status::Ok();
  // A WAL object/tail failure truncates the recoverable tail (same as a
  // gap); everything applied before it is still consistent.
  bool wal_truncated = false;
  Status wal_failure = Status::Ok();    // the status that truncated it
  std::size_t items_applied = 0;        // plan items consumed successfully
  // Decode-ahead: plan items a transfer worker decoded (applied or not —
  // a stopped apply leaves the ones after the stop unapplied), and the
  // most decoded bytes held ahead at once (never above ctx.decode_budget).
  std::size_t items_decoded_ahead = 0;
  std::size_t peak_ahead_bytes = 0;
  // The most enveloped bytes (TailPlanItem::size) issued for items past
  // the one the apply was on (never above ctx.fetch_budget).
  std::size_t peak_fetched_ahead_bytes = 0;
};

// Windowed, pipelined, ordered apply. `window` GETs are kept incomplete,
// however long the one the apply waits on takes, and the items fetched
// ahead of the apply are bounded by ctx.fetch_budget in listed bytes;
// the transfer workers decode landed objects into buffers of their own
// (fanning v2 chunks across the envelope's codec pool) while the calling
// thread applies earlier objects strictly in plan order. The decoded bytes
// held ahead are bounded by ctx.decode_budget, and an object whose decode
// has not begun when the apply reaches it is decoded by the caller (see
// DecodeAhead in tail_apply.cpp for when workers decode). Counters in `r`
// advance only as objects are applied, and a failed item stops the apply
// at the same place whatever was decoded after it, so the report and the
// image are identical for every window size.
TailApplyResult ApplyTailPlan(const std::vector<TailPlanItem>& plan,
                              const TailApplyContext& ctx, RecoveryReport* r);

}  // namespace ginja
