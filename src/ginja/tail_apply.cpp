#include "ginja/tail_apply.h"

#include <algorithm>
#include <future>

#include "common/codec/sha1.h"
#include "ginja/dedup.h"
#include "ginja/payload.h"

namespace ginja {

TailPlan BuildTailPlan(const std::vector<ObjectMeta>& objects,
                       std::optional<std::uint64_t> up_to_ts) {
  TailPlan plan;

  std::vector<WalObjectId> wal_objects;
  // ts -> seg -> replicas of that segment's tail object (streaming early
  // acks; see CommitPipeline). Only tails of a ts with *no* full WAL
  // object matter — the finished object supersedes its tails.
  std::map<std::uint64_t, std::map<std::uint32_t, std::vector<TailObjectId>>>
      tails_by_ts;
  std::map<std::uint64_t, std::vector<DbObjectId>> db_by_seq;
  for (const auto& meta : objects) {
    if (auto wal = WalObjectId::Decode(meta.name)) {
      if (!up_to_ts || wal->ts <= *up_to_ts) wal_objects.push_back(*wal);
      continue;
    }
    if (auto tail = TailObjectId::Decode(meta.name)) {
      if (!up_to_ts || tail->ts <= *up_to_ts) {
        tails_by_ts[tail->ts][tail->seg].push_back(*tail);
      }
      continue;
    }
    if (auto db = DbObjectId::Decode(meta.name)) {
      if (!up_to_ts || db->ts <= *up_to_ts) db_by_seq[db->seq].push_back(*db);
    }
  }
  for (const auto& id : wal_objects) tails_by_ts.erase(id.ts);
  std::sort(wal_objects.begin(), wal_objects.end(),
            [](const WalObjectId& a, const WalObjectId& b) { return a.ts < b.ts; });
  if (!wal_objects.empty()) plan.newest_wal_ts = wal_objects.back().ts;

  // 1. Most recent *complete* dump (all parts present) — Alg. 1 lines
  // 27–29. A delta-dump manifest is a single-part dump: "all parts
  // present" degenerates to "the manifest is visible", and chunk
  // durability is implied (the manifest is PUT strictly after its chunks).
  std::optional<std::uint64_t> dump_seq;
  for (const auto& [seq, parts] : db_by_seq) {
    if (parts.empty() || (parts[0].type != DbObjectType::kDump &&
                          parts[0].type != DbObjectType::kManifest)) {
      continue;
    }
    if (parts.size() == parts[0].total_parts) dump_seq = seq;
  }
  // Highest WAL ts folded into a planned DB object: GC may have deleted
  // every WAL object up to here, so tailing must resume past it even when
  // no WAL object is visible at all.
  std::optional<std::uint64_t> folded_through_ts;
  auto plan_parts = [&](std::vector<DbObjectId> parts) {
    std::sort(parts.begin(), parts.end(),
              [](const DbObjectId& a, const DbObjectId& b) { return a.part < b.part; });
    for (const auto& id : parts) {
      plan.items.push_back({id.Encode(), /*is_wal=*/false, /*is_tail=*/false,
                            0, {},
                            /*is_manifest=*/id.type == DbObjectType::kManifest});
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
    if (parts.empty() || parts[0].type != DbObjectType::kCheckpoint) continue;
    if (parts.size() != parts[0].total_parts) continue;  // incomplete upload
    plan_parts(parts);
  }

  // 3. WAL objects the redo still needs (covered range past the planned
  // checkpoints' redo LSN — the LSN-safe form of the paper's
  // newerThan(maxCkptTs)), in ts order, truncated at the first gap: the
  // consecutive-timestamp rule that bounds loss to S (lines 37–40). The
  // gap position depends only on the name-derived ts sequence, so the
  // prefetcher never fetches past it.
  std::optional<std::uint64_t> previous_ts;
  for (const auto& id : wal_objects) {
    if (id.max_lsn <= plan.last_redo_lsn) continue;  // already in the pages
    if (previous_ts && id.ts != *previous_ts + 1) {
      plan.gap_after_plan = true;
      break;
    }
    plan.items.push_back({id.Encode(), /*is_wal=*/true, /*is_tail=*/false,
                          id.ts, {}});
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
      for (const auto& t : replicas) ts_max = std::max(ts_max, t.max_lsn);
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
  std::vector<WalObjectId> wal_objects;
  for (const auto& meta : objects) {
    auto wal = WalObjectId::Decode(meta.name);
    if (!wal) continue;  // a cursor listing may overlap WALTAIL/ etc.
    if (newest_ts && (!*newest_ts || wal->ts > **newest_ts)) *newest_ts = wal->ts;
    if (wal->ts < next_ts) continue;  // unpadded ts: old names can trail the cursor
    if (up_to_ts && wal->ts > *up_to_ts) continue;
    wal_objects.push_back(*wal);
  }
  std::sort(wal_objects.begin(), wal_objects.end(),
            [](const WalObjectId& a, const WalObjectId& b) { return a.ts < b.ts; });
  std::vector<TailPlanItem> items;
  std::uint64_t expected = next_ts;
  for (const auto& id : wal_objects) {
    if (id.ts != expected) break;  // the run must stay consecutive
    items.push_back({id.Encode(), /*is_wal=*/true, /*is_tail=*/false, id.ts, {}});
    ++expected;
  }
  return items;
}

std::vector<TailPlanItem> BuildTailSegmentItems(
    const std::map<std::uint32_t, std::vector<TailObjectId>>& segs,
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
    std::vector<TailObjectId> sorted = replicas;
    std::sort(sorted.begin(), sorted.end(),
              [](const TailObjectId& a, const TailObjectId& b) {
                return a.replica < b.replica;
              });
    TailPlanItem item;
    item.name = sorted.front().Encode();
    item.is_wal = true;
    item.is_tail = true;
    item.wal_ts = ts;
    for (std::size_t k = 1; k < sorted.size(); ++k) {
      item.fallbacks.push_back(sorted[k].Encode());
    }
    items.push_back(std::move(item));
  }
  return items;
}

TailApplyResult ApplyTailPlan(const std::vector<TailPlanItem>& plan,
                              const TailApplyContext& ctx, RecoveryReport* r) {
  TailApplyResult result;
  TransferManager& transfers = *ctx.transfers;
  const bool tracing =
      ctx.tracer != nullptr && ctx.tracer->enabled() && ctx.clock != nullptr;
  // One decode buffer for the whole plan: every object decodes in place
  // into it (DecodeInto only grows it), its entries are written to the
  // target straight from views into it, and only then does the next object
  // overwrite it. It dies with this call, so it never outlives the plan.
  Bytes payload;
  // Counts a fetched object and decodes it into `payload`.
  auto decode = [&](const Result<Bytes>& blob) -> Status {
    if (!blob.ok()) return blob.status();
    ++r->objects_downloaded;
    r->bytes_downloaded += blob->size();
    return ctx.envelope->DecodeInto(View(*blob), payload);
  };

  auto apply_blob = [&](Result<Bytes> blob) -> Status {
    GINJA_RETURN_IF_ERROR(decode(blob));
    auto entries = DecodeEntries(View(payload));
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
  // standby's previous image), and the rest GET with the same K-deep
  // window, verified against their content digest before being written.
  // Any chunk failure fails the manifest, exactly like a missing dump part.
  auto apply_manifest = [&](Result<Bytes> blob) -> Status {
    GINJA_RETURN_IF_ERROR(decode(blob));
    auto refs = DecodeManifest(View(payload));
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

    auto issue = [&](std::size_t k) {
      const ChunkRef& ref = (*refs)[to_fetch[k]];
      return transfers.GetAsync(ctx.route,
                                ChunkObjectId{ref.digest, ref.length}.Encode());
    };
    auto reap = [&](std::size_t k, std::future<Result<Bytes>> f) -> Status {
      const ChunkRef& ref = (*refs)[to_fetch[k]];
      Result<Bytes> fetched_chunk = f.get();
      if (!fetched_chunk.ok()) return fetched_chunk.status();
      ++r->objects_downloaded;
      r->bytes_downloaded += fetched_chunk->size();
      // Chunks are enveloped under a per-chunk derived key (tweak = the
      // manifest's content digest); the digest check below catches a
      // wrong-key decode along with every other mismatch.
      auto chunk = ctx.envelope->DecodeDerived(
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
    return RunInOrderWindow(to_fetch.size(), ctx.window, issue, reap);
  };

  std::vector<std::uint64_t> issue_times(tracing ? plan.size() : 0);
  auto issue = [&](std::size_t i) {
    if (tracing) issue_times[i] = ctx.clock->NowMicros();
    return transfers.GetAsync(ctx.route, plan[i].name);
  };
  // A non-OK return ends the plan: the result already says why.
  auto reap = [&](std::size_t i, std::future<Result<Bytes>> blob) -> Status {
    Result<Bytes> fetched = blob.get();
    Status fetch_status = fetched.ok() ? Status::Ok() : fetched.status();
    std::uint64_t t_fetched = 0;
    if (tracing) {
      const std::uint64_t issued = issue_times[i];
      t_fetched = ctx.clock->NowMicros();
      // GET issued → blob in hand; overlap with other in-flight GETs means
      // the sum across objects can exceed the recovery wall time.
      ctx.tracer->Record(ctx.fetch_stage, ctx.trace_id_base + i, issued,
                         t_fetched >= issued ? t_fetched - issued : 0);
    }
    Status st = plan[i].is_manifest ? apply_manifest(std::move(fetched))
                                    : apply_blob(std::move(fetched));
    // Replica tails hold byte-identical segments; any one of them will do.
    for (const auto& alt : plan[i].fallbacks) {
      if (st.ok()) break;
      Result<Bytes> alt_blob = transfers.GetAsync(ctx.route, alt).get();
      if (!alt_blob.ok()) fetch_status = alt_blob.status();
      st = apply_blob(std::move(alt_blob));
    }
    if (tracing) {
      const std::uint64_t t_applied = ctx.clock->NowMicros();
      ctx.tracer->Record(ctx.apply_stage, ctx.trace_id_base + i, t_fetched,
                         t_applied - t_fetched);
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
  RunInOrderWindow(plan.size(), ctx.window, issue, reap);
  return result;
}

}  // namespace ginja
