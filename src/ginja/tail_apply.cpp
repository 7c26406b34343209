#include "ginja/tail_apply.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <utility>

#include "common/codec/codec_pool.h"
#include "common/codec/sha1.h"
#include "ginja/dedup.h"
#include "ginja/payload.h"

namespace ginja {

TailPlan BuildTailPlan(const std::vector<ObjectMeta>& objects,
                       std::optional<std::uint64_t> up_to_ts) {
  TailPlan plan;

  std::vector<Listed<WalObjectId>> wal_objects;
  // ts -> seg -> replicas of that segment's tail object (streaming early
  // acks; see CommitPipeline). Only tails of a ts with *no* full WAL
  // object matter — the finished object supersedes its tails.
  std::map<std::uint64_t,
           std::map<std::uint32_t, std::vector<Listed<TailObjectId>>>>
      tails_by_ts;
  std::map<std::uint64_t, std::vector<Listed<DbObjectId>>>
      db_by_seq;
  for (const auto& meta : objects) {
    if (auto wal = WalObjectId::Decode(meta.name)) {
      if (!up_to_ts || wal->ts <= *up_to_ts) {
        wal_objects.push_back({*wal, meta.size});
      }
      continue;
    }
    if (auto tail = TailObjectId::Decode(meta.name)) {
      if (!up_to_ts || tail->ts <= *up_to_ts) {
        tails_by_ts[tail->ts][tail->seg].push_back({*tail, meta.size});
      }
      continue;
    }
    if (auto db = DbObjectId::Decode(meta.name)) {
      if (!up_to_ts || db->ts <= *up_to_ts) {
        db_by_seq[db->seq].push_back({*db, meta.size});
      }
    }
  }
  for (const auto& wal : wal_objects) tails_by_ts.erase(wal.id.ts);
  std::sort(wal_objects.begin(), wal_objects.end(),
            [](const auto& a, const auto& b) { return a.id.ts < b.id.ts; });
  if (!wal_objects.empty()) plan.newest_wal_ts = wal_objects.back().id.ts;

  // 1. Most recent *complete* dump (all parts present) — Alg. 1 lines
  // 27–29. A delta-dump manifest is a single-part dump: "all parts
  // present" degenerates to "the manifest is visible", and chunk
  // durability is implied (the manifest is PUT strictly after its chunks).
  std::optional<std::uint64_t> dump_seq;
  for (const auto& [seq, parts] : db_by_seq) {
    if (parts.empty() || (parts[0].id.type != DbObjectType::kDump &&
                          parts[0].id.type != DbObjectType::kManifest)) {
      continue;
    }
    if (parts.size() == parts[0].id.total_parts) dump_seq = seq;
  }
  // Highest WAL ts folded into a planned DB object: GC may have deleted
  // every WAL object up to here, so tailing must resume past it even when
  // no WAL object is visible at all.
  std::optional<std::uint64_t> folded_through_ts;
  auto plan_parts = [&](std::vector<Listed<DbObjectId>> parts) {
    std::sort(parts.begin(), parts.end(), [](const auto& a, const auto& b) {
      return a.id.part < b.id.part;
    });
    for (const auto& [id, size] : parts) {
      plan.items.push_back({id.Encode(), /*is_wal=*/false, /*is_tail=*/false,
                            0, {},
                            /*is_manifest=*/id.type == DbObjectType::kManifest,
                            size});
      plan.last_redo_lsn = std::max(plan.last_redo_lsn, id.redo_lsn);
      folded_through_ts =
          std::max(folded_through_ts.value_or(0), id.ts);
    }
  };
  if (dump_seq) {
    plan.found_dump = true;
    plan_parts(db_by_seq[*dump_seq]);
  }

  // 2. Incremental checkpoints newer than the dump, ascending — lines 30–36.
  // An incomplete part set (torn upload: the checkpointer died mid-PUT) is
  // skipped entirely; its parts are invisible until all of them land.
  for (const auto& [seq, parts] : db_by_seq) {
    if (dump_seq && seq <= *dump_seq) continue;
    if (parts.empty() || parts[0].id.type != DbObjectType::kCheckpoint) {
      continue;
    }
    if (parts.size() != parts[0].id.total_parts) continue;  // incomplete upload
    plan_parts(parts);
  }

  // 3. WAL objects the redo still needs (covered range past the planned
  // checkpoints' redo LSN — the LSN-safe form of the paper's
  // newerThan(maxCkptTs)), in ts order, truncated at the first gap: the
  // consecutive-timestamp rule that bounds loss to S (lines 37–40). The
  // gap position depends only on the name-derived ts sequence, so the
  // prefetcher never fetches past it.
  std::optional<std::uint64_t> previous_ts;
  for (const auto& [id, size] : wal_objects) {
    if (id.max_lsn <= plan.last_redo_lsn) continue;  // already in the pages
    if (previous_ts && id.ts != *previous_ts + 1) {
      plan.gap_after_plan = true;
      break;
    }
    plan.items.push_back({id.Encode(), /*is_wal=*/true, /*is_tail=*/false,
                          id.ts, {}, /*is_manifest=*/false, size});
    previous_ts = id.ts;
  }
  // Tailing resumes after the last consecutive full object considered: the
  // planned run's end, or — when every visible object is already covered by
  // the planned pages — after the newest visible one.
  if (previous_ts) {
    plan.resume_ts = *previous_ts + 1;
  } else if (!plan.gap_after_plan && plan.newest_wal_ts) {
    plan.resume_ts = *plan.newest_wal_ts + 1;
  }
  // A checkpoint that began after WAL ts k folded the stream through k;
  // the objects it covered may already be garbage-collected (possibly all
  // of them, when the checkpoint is the newest thing in the bucket), so
  // the resume point must clear the fold boundary regardless of what WAL
  // is still visible. ts 0 is ambiguous (a DB object uploaded before any
  // WAL existed also encodes 0) and is left to the gap→resync path.
  if (folded_through_ts && *folded_through_ts > 0) {
    plan.resume_ts = std::max(plan.resume_ts, *folded_through_ts + 1);
  }

  // 3b. Tail objects of the next unfinished streamed WAL object (early
  // acks): its acked segment prefix is recoverable even though the object
  // itself never finished. The candidate ts must keep timestamps
  // consecutive — previous_ts + 1, or the earliest un-covered tail ts when
  // no full WAL object was planned.
  std::optional<std::uint64_t> tail_ts;
  for (const auto& [ts, segs] : tails_by_ts) {
    Lsn ts_max = 0;
    for (const auto& [seg, replicas] : segs) {
      for (const auto& t : replicas) ts_max = std::max(ts_max, t.id.max_lsn);
    }
    if (ts_max <= plan.last_redo_lsn) continue;  // fully covered by the pages
    if (previous_ts && ts != *previous_ts + 1) continue;
    if (!previous_ts && plan.gap_after_plan) continue;
    tail_ts = ts;
    break;
  }
  if (tail_ts) {
    auto tail_items = BuildTailSegmentItems(tails_by_ts[*tail_ts], *tail_ts,
                                            /*from_seg=*/0);
    plan.resume_ts = *tail_ts;
    if (!tail_items.empty()) {
      if (auto last = TailObjectId::Decode(tail_items.back().name)) {
        plan.resume_tail_segs = last->seg + 1;
      }
    }
    for (auto& item : tail_items) plan.items.push_back(std::move(item));
    // A tails-only ts is by construction an incomplete object: the plan
    // stops here and the truncation is reported.
    plan.gap_after_plan = true;
  }

  return plan;
}

std::vector<TailPlanItem> ContinueWalPlan(
    const std::vector<ObjectMeta>& objects, std::uint64_t next_ts,
    std::optional<std::uint64_t> up_to_ts,
    std::optional<std::uint64_t>* newest_ts) {
  std::vector<Listed<WalObjectId>> wal_objects;
  for (const auto& meta : objects) {
    auto wal = WalObjectId::Decode(meta.name);
    if (!wal) continue;  // a cursor listing may overlap WALTAIL/ etc.
    if (newest_ts && (!*newest_ts || wal->ts > **newest_ts)) *newest_ts = wal->ts;
    if (wal->ts < next_ts) continue;  // unpadded ts: old names can trail the cursor
    if (up_to_ts && wal->ts > *up_to_ts) continue;
    wal_objects.push_back({*wal, meta.size});
  }
  std::sort(wal_objects.begin(), wal_objects.end(),
            [](const auto& a, const auto& b) { return a.id.ts < b.id.ts; });
  std::vector<TailPlanItem> items;
  std::uint64_t expected = next_ts;
  for (const auto& [id, size] : wal_objects) {
    if (id.ts != expected) break;  // the run must stay consecutive
    items.push_back({id.Encode(), /*is_wal=*/true, /*is_tail=*/false, id.ts,
                     {}, /*is_manifest=*/false, size});
    ++expected;
  }
  return items;
}

std::vector<TailPlanItem> BuildTailSegmentItems(
    const std::map<std::uint32_t, std::vector<Listed<TailObjectId>>>& segs,
    std::uint64_t ts, std::uint32_t from_seg) {
  std::vector<TailPlanItem> items;
  // GC only ever deletes a seg-*prefix* of tails (the cumulative max_lsn is
  // monotone in seg), so a fresh run starts at the lowest surviving
  // segment; a resumed one (from_seg > 0) exactly at from_seg, as cold
  // recovery would. A hole ends it — what followed was never acknowledged.
  std::optional<std::uint32_t> expected;
  if (from_seg > 0) expected = from_seg;
  for (const auto& [seg, replicas] : segs) {
    if (seg < from_seg) continue;
    if (!expected) expected = seg;
    if (seg != *expected) break;
    ++*expected;
    std::vector<Listed<TailObjectId>> sorted = replicas;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) {
                return a.id.replica < b.id.replica;
              });
    TailPlanItem item;
    item.name = sorted.front().id.Encode();
    item.is_wal = true;
    item.is_tail = true;
    item.wal_ts = ts;
    item.size = sorted.front().size;
    for (std::size_t k = 1; k < sorted.size(); ++k) {
      item.fallbacks.push_back(sorted[k].id.Encode());
    }
    items.push_back(std::move(item));
  }
  return items;
}

namespace {

// Decode-ahead for one ApplyTailPlan call: the per-item slots and the byte
// budget that bounds the decoded payloads held ahead of the apply.
//
// One slot per issued item, keyed from the apply's next item: item i's slot
// is slots_[i - next_]. A slot is appended as its item is issued (by the
// caller, or by the worker whose GET completion freed the window slot) and
// the front one dropped as the apply takes it. The window may run any
// number of items ahead (RunInOrderWindow bounds them in bytes, not
// items), and a deque leaves the other slots in place, so a worker can
// decode into one outside the lock. Landed blobs get budgeted buffers
// strictly in plan order: a blob that lands before an earlier one waits
// for it, so later objects never take the room the apply needs first. A
// blob with a buffer is decoded by a decode task on the transfer workers;
// fewer tasks run at once than the codec has threads, which leaves a core
// to the apply. Every state change (a blob landing, a decode finishing,
// the apply taking an item or returning its buffer) starts what has become
// admissible. The caller takes each slot when the apply reaches its item.
// If the item's decode has not begun — no room yet, or its task still
// queued — the caller decodes it itself; it only waits for a decode
// already running. No worker ever waits on the apply.
//
// Every object goes ahead once it has a buffer, small ones included. With
// the window issuing GETs as others complete, some GET is nearly always in
// flight, so holding small objects back while one is would leave the
// caller decoding almost every WAL object itself, and on a latency-bound
// restore that serial decode is what bounded the apply (EXPERIMENTS.md,
// "No head-of-line GETs").
//
// The budget counts buffer capacities: the buffers held by slots the apply
// has not taken yet, plus emptied buffers kept for reuse. The buffer the
// caller is applying is outside it — the one payload buffer a serial apply
// needs. Only the calling thread allocates buffers; workers only reuse
// kept ones. (A buffer malloc'd on a transfer worker lands in that thread's
// arena, and glibc keeps freed arena memory resident: repeated restores
// grew peak RSS by hundreds of MB that way; same section.) So that a blob
// landing while the caller is busy applying still finds a buffer, the
// caller prepays each of the next K items that has not landed yet (K
// bounds what one hand-out allocates ahead of any landing): a buffer sized
// from the item's listed bytes times the payload-to-blob ratio of the last
// object of its kind (WAL or DB) to land, plus a quarter; without
// compression the payload never outgrows the blob, and the buffer is the
// listed size.
// Only objects small beside the budget (an eighth of it) are prepaid: the
// many WAL objects that land while a large DB part is applied are what
// this is for, and a large object's estimate errs by megabytes, which
// either blocks the budget or is thrown away. A blob whose payload
// outgrows its prepaid buffer returns the buffer for reuse and waits for a
// fitting one like any other.
class DecodeAhead {
 public:
  struct Taken {
    Bytes payload;                // decoded, or the buffer to decode into
    Bytes blob;                   // the fetched blob when not decoded yet
    std::size_t blob_size = 0;
    bool decoded = false;
    Status status = Status::Ok(); // the decode's, when decoded
    std::optional<std::uint64_t> fetched_us;
    std::uint64_t decoded_us = 0;
  };

  DecodeAhead(const TailApplyContext& ctx, bool tracing)
      : ctx_(ctx), limit_(ctx.decode_budget),
        max_decoders_(ctx.envelope->codec_pool()
                          ? std::max(1, ctx.envelope->codec_pool()->threads() - 1)
                          : 1),
        compress_(ctx.envelope->options().compress),
        clock_(tracing ? ctx.clock.get() : nullptr) {
    expansion_[0] = expansion_[1] = compress_ ? 0 : 1;
  }

  // Waits out every decode task, so none outlives the plan.
  ~DecodeAhead() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return tasks_ == 0; });
  }

  // Worker side, as item i's GET continuation: parks the blob.
  void OnFetched(std::size_t i, Bytes blob) {
    const std::uint64_t now = clock_ ? clock_->NowMicros() : 0;
    auto size = ctx_.envelope->PayloadSize(View(blob));
    {
      std::lock_guard<std::mutex> lock(mu_);
      Slot& s = slots_[i - next_];
      s.blob_size = blob.size();
      s.blob = std::move(blob);
      if (clock_) s.fetched_us = now;
      if (!size.ok()) {
        // Unreadable headers: left to the caller, whose decode reports them.
        s.state = State::kCallerDecodes;
      } else {
        s.payload_size = *size;
        if (compress_ && s.blob_size > 0) {
          expansion_[s.wal] = 1.25 * static_cast<double>(*size) / s.blob_size;
        }
        if (s.charged > 0 && s.payload.capacity() < *size) {
          ahead_ -= s.charged;  // prepaid too little
          s.charged = 0;
          KeepLocked(std::exchange(s.payload, Bytes{}));
        }
        s.state = s.charged > 0 ? State::kCharged : State::kWaiting;
      }
    }
    Admit(/*may_allocate=*/false);
  }

  // Caller side, once item i's GET resolved: waits for a running decode,
  // then hands over the slot's payload (or blob). The taken buffer leaves
  // the budget; the caller pumps once its payload is decoded, so the
  // decodes the room admits never compete with its own.
  Taken Take(std::size_t i) {
    Taken out;
    {
      std::unique_lock<std::mutex> lock(mu_);
      Slot& s = slots_.front();  // item i: the apply takes items in order
      cv_.wait(lock, [&] { return s.state != State::kDecoding; });
      out.blob_size = s.blob_size;
      out.fetched_us = s.fetched_us;
      out.decoded_us = s.decoded_us;
      if (s.state == State::kDecoded) {
        out.decoded = true;
        out.status = s.status;
      } else {
        out.blob = std::move(s.blob);
      }
      if (s.state == State::kQueued) --decoders_;  // its task will find it taken
      if (s.charged > 0 || s.state == State::kDecoded) {
        ahead_ -= s.charged;
        out.payload = std::move(s.payload);
      } else {
        out.payload = SpareLocked();
      }
      slots_.pop_front();
      next_ = i + 1;
    }
    return out;
  }

  // Caller side: keeps an applied buffer for reuse if it fits.
  void Recycle(Bytes buf) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      KeepLocked(std::move(buf));
    }
    Pump();
  }

  // Issuer side (caller or worker, one at a time, in plan order): the
  // next item's GET is about to be issued.
  void OnIssued(const TailPlanItem& item) {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& s = slots_.emplace_back();
    s.listed = static_cast<std::size_t>(item.size);
    s.wal = item.is_wal;
  }

  // Caller side: starts the decodes that have become admissible.
  void Pump() { Admit(/*may_allocate=*/true); }

  std::size_t decoded_ahead() const {
    std::lock_guard<std::mutex> lock(mu_);
    return decoded_ahead_;
  }
  std::size_t peak_ahead() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_ahead_;
  }

 private:
  // A slot goes kFetching → kWaiting → kCharged (it holds a buffer) →
  // kQueued → kDecoding → kDecoded. kCallerDecodes: headers too damaged to
  // size a buffer by.
  enum class State {
    kFetching, kWaiting, kCallerDecodes, kCharged, kQueued, kDecoding, kDecoded
  };

  struct Slot {
    State state = State::kFetching;
    std::size_t listed = 0;        // enveloped bytes, from the plan
    bool wal = false;              // a WAL object (else a DB one)
    Bytes blob;
    std::size_t blob_size = 0;
    std::size_t payload_size = 0;
    Bytes payload;                 // charged to the budget while held here
    std::size_t charged = 0;       // its capacity when charged (or prepaid)
    Status status = Status::Ok();
    std::optional<std::uint64_t> fetched_us;
    std::uint64_t decoded_us = 0;
  };

  // Charges a buffer for `size` payload bytes of `s` to the budget; false
  // when there is none. Reuses the smallest kept buffer large enough but at
  // most twice the payload (a larger one would hold budget it does not
  // use); else, if `may_allocate`, allocates one, dropping kept buffers
  // (largest first) when only that makes room.
  bool ChargeLocked(Slot& s, std::size_t size, bool may_allocate) {
    auto fit = std::find_if(kept_.begin(), kept_.end(),
                            [&](const Bytes& b) { return b.capacity() >= size; });
    if (fit != kept_.end() && fit->capacity() / 2 <= size) {
      s.payload = std::move(*fit);
      kept_.erase(fit);
      kept_bytes_ -= s.payload.capacity();
    } else if (!may_allocate && size > 0) {
      return false;
    } else {
      while (ahead_ + kept_bytes_ + size > limit_ && !kept_.empty()) {
        kept_bytes_ -= kept_.back().capacity();
        kept_.pop_back();
      }
      if (ahead_ + kept_bytes_ + size > limit_) return false;
      s.payload.reserve(size);
    }
    s.charged = s.payload.capacity();
    ahead_ += s.charged;
    peak_ahead_ = std::max(peak_ahead_, ahead_);
    return true;
  }

  // Caller side: charges a buffer for a slot still fetching, sized from
  // its listed bytes; false when no size can be estimated, the object is
  // not small, or there is no room.
  bool PrepayLocked(Slot& s) {
    const double ratio = expansion_[s.wal];
    if (s.listed == 0 || ratio == 0) return false;
    const auto estimate =
        static_cast<std::size_t>(std::ceil(s.listed * ratio));
    if (estimate > limit_ / 8) return false;
    return ChargeLocked(s, estimate, /*may_allocate=*/true);
  }

  // Keeps an empty buffer for reuse if the budget has room for it.
  void KeepLocked(Bytes buf) {
    if (buf.capacity() == 0 ||
        ahead_ + kept_bytes_ + buf.capacity() > limit_) {
      return;
    }
    kept_bytes_ += buf.capacity();
    auto at = std::upper_bound(kept_.begin(), kept_.end(), buf.capacity(),
                               [](std::size_t cap, const Bytes& b) {
                                 return cap < b.capacity();
                               });
    kept_.insert(at, std::move(buf));
  }

  Bytes SpareLocked() {
    if (kept_.empty()) return {};
    Bytes buf = std::move(kept_.back());
    kept_.pop_back();
    kept_bytes_ -= buf.capacity();
    return buf;
  }

  // Decodes a kDecoding slot's blob into its charged buffer.
  void Decode(Slot& s) {
    Status st = ctx_.envelope->DecodeInto(View(s.blob), s.payload);
    const std::uint64_t now = clock_ ? clock_->NowMicros() : 0;
    std::lock_guard<std::mutex> lock(mu_);
    --decoders_;
    s.status = std::move(st);
    s.blob = Bytes{};  // spent
    s.decoded_us = now;
    s.state = State::kDecoded;
    ++decoded_ahead_;
    cv_.notify_all();
  }

  // Starts what has become admissible: charges buffers from the apply's
  // next item on, in plan order, until one gets none (a landed item its
  // payload, one of the next K still fetching a prepaid buffer when
  // `may_allocate`, anything else nothing), and queues a decode task for
  // each charged, landed item while fewer than max_decoders_ run.
  void Admit(bool may_allocate) {
    std::vector<std::size_t> queued;
    {
      std::lock_guard<std::mutex> lock(mu_);
      bool charging = true;
      for (std::size_t k = 0; k < slots_.size(); ++k) {
        Slot& s = slots_[k];
        if (charging && s.charged == 0) {
          if (s.state == State::kFetching) {
            charging = may_allocate && k < ctx_.window && PrepayLocked(s);
          } else if (s.state == State::kWaiting) {
            charging = ChargeLocked(s, s.payload_size, may_allocate);
            if (charging) s.state = State::kCharged;
          }
        }
        if (s.state != State::kCharged || decoders_ >= max_decoders_) continue;
        ++decoders_;
        ++tasks_;
        s.state = State::kQueued;
        queued.push_back(next_ + k);
      }
    }
    for (const std::size_t item : queued) {
      ctx_.transfers->SubmitFn(
          ctx_.route,
          [this, item] {
            Slot* s = nullptr;
            {
              std::lock_guard<std::mutex> lock(mu_);
              s = QueuedLocked(item);
              if (s == nullptr) return Status::Ok();  // the caller took it first
              s->state = State::kDecoding;
            }
            Decode(*s);  // the slot stays put: Take waits out kDecoding
            Admit(/*may_allocate=*/false);
            return Status::Ok();
          },
          [this, item](const Status& st) {
            // Fires once per task, after it ran or instead of it (the
            // manager or the account was cancelled): the caller then
            // decodes the item with the buffer it holds.
            std::lock_guard<std::mutex> lock(mu_);
            if (Slot* s = st.ok() ? nullptr : QueuedLocked(item)) {
              s->state = State::kCharged;
              --decoders_;
            }
            --tasks_;
            cv_.notify_all();
          });
    }
  }

  // Item `item`'s slot if it is still queued for a worker's decode.
  Slot* QueuedLocked(std::size_t item) {
    if (item < next_) return nullptr;
    Slot& s = slots_[item - next_];
    return s.state == State::kQueued ? &s : nullptr;
  }

  const TailApplyContext& ctx_;
  const std::size_t limit_;
  const std::size_t max_decoders_;
  const bool compress_;
  Clock* const clock_;  // null => untraced

  mutable std::mutex mu_;
  std::condition_variable cv_;  // a decode finished, or a task ended
  std::deque<Slot> slots_;      // items next_, next_ + 1, ... issued so far
  std::size_t next_ = 0;        // the apply's next item
  std::size_t tasks_ = 0;       // submitted tasks whose `done` has not fired
  std::size_t decoders_ = 0;    // tasks that will decode: queued, not taken
                                // by the caller first, or running
  std::vector<Bytes> kept_;     // ascending capacity
  std::size_t kept_bytes_ = 0;
  std::size_t ahead_ = 0;       // capacity of slot buffers not yet taken
  std::size_t peak_ahead_ = 0;
  // Payload bytes to prepay per listed byte of a DB [0] or WAL [1] object:
  // 1 without compression, else the ratio of the last of its kind to land
  // plus a quarter; 0 while unknown.
  double expansion_[2];
  std::size_t decoded_ahead_ = 0;
};

}  // namespace

TailApplyResult ApplyTailPlan(const std::vector<TailPlanItem>& plan,
                              const TailApplyContext& ctx, RecoveryReport* r) {
  TailApplyResult result;
  TransferManager& transfers = *ctx.transfers;
  const Envelope& envelope = *ctx.envelope;
  const bool tracing =
      ctx.tracer != nullptr && ctx.tracer->enabled() && ctx.clock != nullptr;
  // GETs are cheap to issue, so the worker that completes one issues the
  // next: a slot never waits for the apply to finish an item.
  const WindowBounds bounds{ctx.window, ctx.fetch_budget,
                            /*issue_on_completion=*/true};
  DecodeAhead ahead(ctx, tracing);

  auto count = [&](std::size_t blob_size) {
    ++r->objects_downloaded;
    r->bytes_downloaded += blob_size;
  };

  auto apply_entries = [&](ByteView payload) -> Status {
    auto entries = DecodeEntries(payload);
    if (!entries.ok()) return entries.status();
    for (const FileEntryRef& e : *entries) {
      GINJA_RETURN_IF_ERROR(
          ctx.target->Write(e.path, e.offset, e.data, /*sync=*/false));
      ++r->files_written;
    }
    return Status::Ok();
  };

  // A delta-dump manifest expands into chunk fetches: every ref is first
  // offered to ctx.chunk_source (hash-verified local reuse — the warm
  // standby's previous image), and the rest GET through the same window
  // (K incomplete, the fetched-ahead chunks bounded by the budget in
  // their listed lengths), verified against their content digest before
  // being written.
  // Any chunk failure fails the manifest, exactly like a missing dump part.
  auto apply_manifest = [&](ByteView payload) -> Status {
    auto refs = DecodeManifest(payload);
    if (!refs.ok()) return refs.status();

    std::vector<std::size_t> to_fetch;
    for (std::size_t k = 0; k < refs->size(); ++k) {
      const ChunkRef& ref = (*refs)[k];
      if (ctx.chunk_source != nullptr) {
        auto local = ctx.chunk_source->Read(ref.path, ref.offset, ref.length);
        if (local.ok() && local->size() == ref.length &&
            Sha1::Hash(View(*local)) == ref.digest) {
          GINJA_RETURN_IF_ERROR(ctx.target->Write(ref.path, ref.offset,
                                                  View(*local),
                                                  /*sync=*/false));
          ++r->files_written;
          ++r->chunks_reused;
          continue;
        }
      }
      to_fetch.push_back(k);
    }

    auto issue = [&](std::size_t k, WindowDone done) {
      const ChunkRef& ref = (*refs)[to_fetch[k]];
      return transfers.GetAsync(ctx.route,
                                ChunkObjectId{ref.digest, ref.length}.Encode(),
                                nullptr, std::move(done));
    };
    auto reap = [&](std::size_t k, std::future<Result<Bytes>> f) -> Status {
      const ChunkRef& ref = (*refs)[to_fetch[k]];
      Result<Bytes> fetched_chunk = f.get();
      if (!fetched_chunk.ok()) return fetched_chunk.status();
      count(fetched_chunk->size());
      // Chunks are enveloped under a per-chunk derived key (tweak = the
      // manifest's content digest); the digest check below catches a
      // wrong-key decode along with every other mismatch.
      auto chunk = envelope.DecodeDerived(
          View(*fetched_chunk), ByteView(ref.digest.data(), ref.digest.size()));
      if (!chunk.ok()) return chunk.status();
      if (chunk->size() != ref.length ||
          Sha1::Hash(View(*chunk)) != ref.digest) {
        return Status::Corruption("chunk bytes do not match the manifest digest");
      }
      GINJA_RETURN_IF_ERROR(ctx.target->Write(ref.path, ref.offset,
                                              View(*chunk), /*sync=*/false));
      ++r->files_written;
      ++r->chunks_downloaded;
      return Status::Ok();
    };
    return RunInOrderWindow(
        to_fetch.size(), bounds,
        [&](std::size_t k) { return std::size_t{(*refs)[to_fetch[k]].length}; },
        issue, reap);
  };

  std::vector<std::uint64_t> issue_times(tracing ? plan.size() : 0);
  auto issue = [&](std::size_t i, WindowDone done) {
    if (tracing) issue_times[i] = ctx.clock->NowMicros();
    ahead.OnIssued(plan[i]);
    return transfers.GetAsync(
        ctx.route, plan[i].name,
        [&ahead, i](Bytes blob) { ahead.OnFetched(i, std::move(blob)); },
        std::move(done));
  };
  // A non-OK return ends the plan: the result already says why.
  auto reap = [&](std::size_t i, std::future<Result<Bytes>> fetched) -> Status {
    const Result<Bytes> got = fetched.get();
    Status fetch_status = got.ok() ? Status::Ok() : got.status();
    Status st = fetch_status;
    // Taken even when the GET failed: the apply moves past the item.
    DecodeAhead::Taken taken = ahead.Take(i);
    std::uint64_t t_fetched = tracing ? ctx.clock->NowMicros() : 0;
    std::uint64_t t_decoded = t_fetched;
    if (got.ok()) {
      count(taken.blob_size);
      if (taken.decoded) {
        st = taken.status;
        if (tracing) t_decoded = taken.decoded_us;
      } else {
        st = envelope.DecodeInto(View(taken.blob), taken.payload);
        taken.blob = Bytes{};  // spent; free it before the writes
        if (tracing) t_decoded = ctx.clock->NowMicros();
      }
      if (tracing && taken.fetched_us) t_fetched = *taken.fetched_us;
    }
    ahead.Pump();  // the next items decode while this one is applied
    if (tracing) {
      const std::uint64_t issued = issue_times[i];
      // GET issued → blob in hand; overlap with other in-flight GETs means
      // the sum across objects can exceed the recovery wall time.
      ctx.tracer->Record(ctx.fetch_stage, ctx.trace_id_base + i, issued,
                         t_fetched >= issued ? t_fetched - issued : 0);
      ctx.tracer->Record(ctx.decode_stage, ctx.trace_id_base + i, t_fetched,
                         t_decoded >= t_fetched ? t_decoded - t_fetched : 0);
    }
    const std::uint64_t t_apply = tracing ? ctx.clock->NowMicros() : 0;
    if (st.ok()) {
      st = plan[i].is_manifest ? apply_manifest(View(taken.payload))
                               : apply_entries(View(taken.payload));
    }
    // Replica tails hold byte-identical segments; any one of them will do.
    for (const auto& alt : plan[i].fallbacks) {
      if (st.ok()) break;
      Result<Bytes> alt_blob = transfers.GetAsync(ctx.route, alt).get();
      if (!alt_blob.ok()) {
        st = fetch_status = alt_blob.status();
        continue;
      }
      count(alt_blob->size());
      st = envelope.DecodeInto(View(*alt_blob), taken.payload);
      if (st.ok()) st = apply_entries(View(taken.payload));
    }
    ahead.Recycle(std::move(taken.payload));
    if (tracing) {
      const std::uint64_t t_applied = ctx.clock->NowMicros();
      ctx.tracer->Record(ctx.apply_stage, ctx.trace_id_base + i, t_apply,
                         t_applied - t_apply);
    }
    if (!plan[i].is_wal) {
      // A failed dump/checkpoint part fails the whole recovery (the DB
      // page state would be incomplete) — as in the serial path.
      if (!st.ok()) {
        result.db_failure = st;
        return st;
      }
      ++r->db_objects_applied;
    } else if (!st.ok()) {
      // A corrupt/missing WAL object truncates the recoverable tail, the
      // same as a gap; everything before it is still consistent.
      r->gap_detected = true;
      result.wal_truncated = true;
      // Prefer the fetch-layer status (NOT_FOUND tells a standby the object
      // was GC'd under it and a resync is due) over a decode error.
      result.wal_failure = fetch_status.ok() ? st : fetch_status;
      return st;
    } else {
      if (plan[i].is_tail) {
        ++r->tail_segments_applied;
      } else {
        ++r->wal_objects_applied;
      }
      r->recovered_to_ts = plan[i].wal_ts;
    }
    ++result.items_applied;
    return Status::Ok();
  };
  RunInOrderWindow(
      plan.size(), bounds,
      [&](std::size_t i) { return static_cast<std::size_t>(plan[i].size); },
      issue, reap, &result.peak_fetched_ahead_bytes);
  result.items_decoded_ahead = ahead.decoded_ahead();
  result.peak_ahead_bytes = ahead.peak_ahead();
  return result;
}

}  // namespace ginja
