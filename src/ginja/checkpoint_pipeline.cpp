#include "ginja/checkpoint_pipeline.h"

#include <algorithm>
#include <future>
#include <map>
#include <set>
#include <utility>

#include "obs/log.h"

namespace ginja {

namespace {
// Most parts one DB object may have: the part index fills the low 16 bits
// of the part's nonce, (1 << 63) | seq << 16 | part.
constexpr std::size_t kMaxDbParts = std::size_t{1} << 16;
}  // namespace

CheckpointPipeline::CheckpointPipeline(ObjectStorePtr store,
                                       std::shared_ptr<CloudView> view,
                                       std::shared_ptr<Clock> clock,
                                       const GinjaConfig& config,
                                       std::shared_ptr<Envelope> envelope,
                                       VfsPtr local_vfs, DbLayout layout)
    : store_(std::move(store)),
      view_(std::move(view)),
      clock_(std::move(clock)),
      config_(config),
      envelope_(std::move(envelope)),
      local_vfs_(std::move(local_vfs)),
      layout_(layout),
      account_(std::make_shared<TransferAccount>(config.tenant_id)),
      chunk_index_(std::make_shared<ChunkIndex>()) {
  if (!config_.runtime) {
    config_.runtime = MakeStandaloneRuntime(store_, clock_, config_);
  }
  if (config_.obs) {
    tracer_ = &config_.obs->tracer;
    RegisterMetrics();
  }
}

CheckpointPipeline::~CheckpointPipeline() {
  if (config_.obs) config_.obs->registry.Unregister(this);
  Kill();
  // The runtime's manager may outlive this pipeline; wait out any of this
  // account's operations still on the pool (Kill cancelled them, so queued
  // ones fail fast) before members they reference are destroyed.
  account_->WaitIdle();
}

void CheckpointPipeline::RegisterMetrics() {
  MetricsRegistry& r = config_.obs->registry;
  r.RegisterCounter(this, "ginja_checkpoint_checkpoints_uploaded_total", Labels(),
                    &stats_.checkpoints_uploaded);
  r.RegisterCounter(this, "ginja_checkpoint_dumps_uploaded_total", Labels(),
                    &stats_.dumps_uploaded);
  r.RegisterCounter(this, "ginja_checkpoint_db_objects_uploaded_total", Labels(),
                    &stats_.db_objects_uploaded);
  r.RegisterCounter(this, "ginja_checkpoint_bytes_uploaded_total", Labels(),
                    &stats_.bytes_uploaded);
  r.RegisterCounter(this, "ginja_gc_wal_objects_deleted_total", Labels(),
                    &stats_.wal_objects_deleted);
  r.RegisterCounter(this, "ginja_gc_wal_tails_deleted_total", Labels(),
                    &stats_.wal_tails_deleted);
  r.RegisterCounter(this, "ginja_gc_db_objects_deleted_total", Labels(),
                    &stats_.db_objects_deleted);
  r.RegisterCounter(this, "ginja_dedup_hit_bytes_total", Labels(),
                    &stats_.dedup_hit_bytes);
  r.RegisterCounter(this, "ginja_dedup_miss_bytes_total", Labels(),
                    &stats_.dedup_miss_bytes);
  r.RegisterCounter(this, "ginja_chunks_uploaded_total", Labels(),
                    &stats_.chunks_uploaded);
  r.RegisterCounter(this, "ginja_chunks_deleted_total", Labels(),
                    &stats_.chunks_deleted);
  r.RegisterGauge(this, "ginja_checkpoint_inflight_jobs", Labels(), [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(inflight_jobs_);
  });
}

void CheckpointPipeline::Start() {
  thread_ = std::thread([this] { CheckpointerLoop(); });
}

void CheckpointPipeline::Stop() {
  queue_.WaitEmpty();
  queue_.Close();
  if (thread_.joinable()) thread_.join();
}

void CheckpointPipeline::Kill() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    killed_ = true;
  }
  idle_cv_.notify_all();
  frontier_cv_.notify_all();
  // Abort queued/retrying transfers so the checkpointer's future waits
  // resolve and the thread can observe killed_. Only this account is
  // cancelled; the runtime's other tenants keep running.
  account_->Cancel();
  queue_.Close();
  if (thread_.joinable()) thread_.join();
}

void CheckpointPipeline::NotifyFrontier() {
  // Empty critical section: fences against the checkpointer evaluating its
  // wait predicate, so an advance between "predicate false" and "wait"
  // cannot lose the wakeup.
  { std::lock_guard<std::mutex> lock(mu_); }
  frontier_cv_.notify_all();
}

void CheckpointPipeline::OnCheckpointBegin() {
  std::lock_guard<std::mutex> lock(mu_);
  if (in_checkpoint_) return;
  in_checkpoint_ = true;
  collected_.clear();
  // Alg. 3 line 5: the DB object's timestamp is the last WAL-object ts
  // assigned before the checkpoint began.
  checkpoint_ts_ = view_->LastAssignedWalTs().value_or(0);
}

bool CheckpointPipeline::InCheckpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_checkpoint_;
}

void CheckpointPipeline::AddWrite(FileEntry entry) {
  // Keep the size cache exact instead of invalidating: an in-place page
  // rewrite changes nothing, an extending (or file-creating) write adds
  // exactly the bytes past the known end.
  {
    std::lock_guard<std::mutex> lock(size_mu_);
    if (size_valid_ && CountsTowardDbSize(entry.path)) {
      const std::uint64_t end = entry.offset + entry.data.size();
      std::uint64_t& known = size_file_end_[entry.path];
      if (end > known) {
        size_cached_ += end - known;
        known = end;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  collected_.push_back(std::move(entry));
}

bool CheckpointPipeline::CountsTowardDbSize(const std::string& path) const {
  if (layout_.flavor == DbFlavor::kPostgres &&
      layout_.Classify(path, 0) == FileKind::kWalSegment) {
    return false;  // pg_xlog segments are not database files
  }
  if (layout_.flavor == DbFlavor::kMySql && path.starts_with("ib_logfile")) {
    return false;  // the redo log (header aside) is not database data
  }
  return true;
}

std::uint64_t CheckpointPipeline::LocalDbSizeBytes() const {
  std::lock_guard<std::mutex> lock(size_mu_);
  if (size_valid_) return size_cached_;
  auto files = local_vfs_->ListFiles("");
  if (!files.ok()) return 0;  // transient: leave the cache invalid
  std::uint64_t total = 0;
  size_file_end_.clear();
  for (const auto& path : *files) {
    if (!CountsTowardDbSize(path)) continue;
    auto size = local_vfs_->FileSize(path);
    if (size.ok()) {
      total += *size;
      size_file_end_[path] = *size;
    }
  }
  size_cached_ = total;
  size_valid_ = true;
  return total;
}

void CheckpointPipeline::InvalidateLocalDbSizeCache() {
  std::lock_guard<std::mutex> lock(size_mu_);
  size_valid_ = false;
  size_file_end_.clear();
}

std::vector<FileEntry> CheckpointPipeline::BuildDumpEntries() const {
  // Paper §5.3: dumps contain every relevant database file except the WAL
  // segments. For MySQL the checkpoint header lives inside ib_logfile0, so
  // its header region is added explicitly.
  std::vector<FileEntry> entries;
  auto files = local_vfs_->ListFiles("");
  if (!files.ok()) return entries;
  for (const auto& path : *files) {
    if (layout_.flavor == DbFlavor::kPostgres && path.starts_with("pg_xlog/")) {
      continue;
    }
    if (layout_.flavor == DbFlavor::kMySql && path.starts_with("ib_logfile")) {
      if (path == "ib_logfile0") {
        auto header = local_vfs_->Read(
            path, 0, layout_.wal_header_pages * layout_.wal_page_size);
        if (header.ok() && !header->empty()) {
          entries.push_back({path, 0, std::move(*header)});
        }
      }
      continue;
    }
    auto content = local_vfs_->ReadAll(path);
    if (content.ok()) entries.push_back({path, 0, std::move(*content)});
  }
  return entries;
}

void CheckpointPipeline::OnCheckpointEnd(Lsn redo_lsn, Lsn wal_frontier) {
  DbObjectJob job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!in_checkpoint_) return;
    in_checkpoint_ = false;
    job.ts = checkpoint_ts_;
    job.redo_lsn = redo_lsn;
    job.wal_frontier = wal_frontier;
    job.entries = std::move(collected_);
    collected_.clear();
  }

  // Dump decision (Alg. 3 lines 9–13): when the DB objects in the cloud
  // reach `dump_threshold` × the local database size, replace them all.
  const std::uint64_t local_size = LocalDbSizeBytes();
  const bool need_dump =
      local_size > 0 &&
      static_cast<double>(view_->TotalDbBytes()) >=
          config_.dump_threshold * static_cast<double>(local_size);
  if (need_dump || view_->DbObjects().empty()) {
    // Building the dump happens synchronously on the DBMS thread, which is
    // what guarantees no local DB write races the dump snapshot (§5.3).
    job.type = DbObjectType::kDump;
    job.entries = BuildDumpEntries();
  } else {
    job.type = DbObjectType::kCheckpoint;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++inflight_jobs_;
  }
  queue_.Put(std::move(job));
}

void CheckpointPipeline::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return killed_ || inflight_jobs_ == 0; });
}

void CheckpointPipeline::CheckpointerLoop() {
  while (auto job = queue_.Take()) {
    // Mark the job done (and wake Drain) no matter how processing exits.
    struct JobGuard {
      CheckpointPipeline* self;
      ~JobGuard() {
        std::lock_guard<std::mutex> lock(self->mu_);
        --self->inflight_jobs_;
        self->idle_cv_.notify_all();
      }
    } guard{this};

    // Withhold the DB object until the acknowledged cloud WAL covers the
    // data its pages may contain; otherwise a disaster in this window
    // would recover pages "from the future" of the recoverable WAL,
    // breaking the transaction-history-prefix guarantee.
    if (wal_frontier_fn_ && job->wal_frontier > 0) {
      // Event-driven wait: the commit pipeline's Unlocker calls
      // NotifyFrontier() (via Ginja's listener wiring) on every frontier
      // advance, so no polling is needed; Kill() also signals.
      {
        std::unique_lock<std::mutex> lock(mu_);
        frontier_cv_.wait(lock, [&] {
          return killed_ || wal_frontier_fn_() >= job->wal_frontier;
        });
        if (killed_) continue;  // releases mu_ before the guard retakes it
      }

      // Re-derive the DB object's timestamp from the first WAL object
      // whose covered range reaches the checkpoint's content frontier.
      // The begin-time timestamp (Alg. 3 line 5) can lag the page
      // contents when aggregation races the checkpoint; using the
      // covering object keeps point-in-time inclusion exact ("this
      // checkpoint's data is part of the state as of ts").
      for (const auto& wal : view_->WalObjects()) {  // ascending ts
        if (wal.max_lsn >= job->wal_frontier) {
          job->ts = wal.ts;
          break;
        }
      }
    }
    // Alg. 3: upload the DB object, make it visible, and only then collect
    // garbage. A dump with dedup_dumps is CHUNK/ objects plus one manifest
    // instead of monolithic parts; incremental checkpoints keep parts —
    // their payload is already the delta.
    const std::uint64_t seq = view_->NextCheckpointSeq();
    const bool delta = config_.dedup_dumps && job->type == DbObjectType::kDump;
    std::vector<DbObjectId> ids;  // enter the view only once all landed
    std::vector<ChunkRef> refs;   // a delta dump's manifest content
    const Status st = delta ? PutDeltaDump(*job, seq, &ids, &refs)
                            : PutParts(*job, seq, &ids);
    if (!st.ok()) {
      // The object stays invisible to recovery (total_parts mismatch, or no
      // manifest); whatever landed is harmless, and landed chunks resume
      // the next attempt. The skip must not be silent (a kill abandons it
      // on purpose, no record needed).
      if (!Cancelled()) {
        Log(LogLevel::kWarn, "checkpoint", "incomplete upload, object skipped",
            {{"seq", seq}, {"status", st.ToString()}});
      }
      continue;  // leave old state; retry naturally later
    }

    for (const auto& id : ids) view_->AddDb(id);
    // Ref-before-release ordering: this manifest's chunks are pinned before
    // GC below can release any older manifest, so a chunk shared by
    // consecutive dumps never transiently reaches refcount zero.
    if (delta) chunk_index_->RegisterManifest(seq, refs);
    (job->type == DbObjectType::kDump ? stats_.dumps_uploaded
                                      : stats_.checkpoints_uploaded).Add();

    GarbageCollect(*job, seq);
  }
}

Status CheckpointPipeline::PutAll(
    std::size_t count, const std::function<Upload(std::size_t)>& make) {
  // Envelope encoding stays on this thread (the enveloped buffer is moved
  // into the op), while up to `transfer_concurrency` PUTs are incomplete.
  // Only incomplete PUTs hold their bytes, so the window needs no byte
  // bound.
  std::vector<Upload> sent(count);
  auto issue = [&](std::size_t i, WindowDone done) {
    Upload& u = sent[i] = make(i);
    u.bytes = u.enveloped.size();
    u.submit_us = Tracing() ? clock_->NowMicros() : 0;
    return Transfers().PutAsync(Route(), u.name, std::move(u.enveloped),
                                std::move(done));
  };
  auto reap = [&](std::size_t i, std::future<Status> put) -> Status {
    const Upload& u = sent[i];
    const Status st = put.get();
    if (!st.ok()) {
      if (st.code() != ErrorCode::kAborted) {
        Log(LogLevel::kWarn, "checkpoint", "upload failed",
            {{"object", u.name}, {"status", st.ToString()}});
      }
      return st;
    }
    (u.chunk ? stats_.chunks_uploaded : stats_.db_objects_uploaded).Add();
    stats_.bytes_uploaded.Add(u.bytes);
    if (u.chunk) chunk_index_->MarkPresent(u.chunk->digest, u.chunk->size);
    if (u.trace_id && Tracing()) {
      const std::uint64_t now = clock_->NowMicros();
      tracer_->Record(TraceStage::kCheckpointPart, *u.trace_id, u.submit_us,
                      now >= u.submit_us ? now - u.submit_us : 0);
    }
    return Status::Ok();
  };
  const auto window =
      static_cast<std::size_t>(std::max(1, config_.transfer_concurrency));
  return RunInOrderWindow(count, window, issue, reap);
}

Status CheckpointPipeline::PutParts(const DbObjectJob& job, std::uint64_t seq,
                                    std::vector<DbObjectId>* ids) {
  // Split the entries into parts at the object-size limit; large single
  // entries (e.g. a dumped multi-GB table file) are chunked. Parts hold
  // subspan refs into job.entries — no data is copied; the job outlives
  // every upload below.
  std::vector<std::vector<FileEntryRef>> parts;
  auto split = [&](std::size_t limit) {
    parts.clear();
    std::vector<FileEntryRef> current;
    std::size_t bytes = 0;
    for (const auto& entry : job.entries) {
      std::size_t pos = 0;
      do {
        const std::size_t chunk = std::min(limit, entry.data.size() - pos);
        if (bytes + chunk > limit && !current.empty()) {
          parts.push_back(std::move(current));
          current.clear();
          bytes = 0;
        }
        current.push_back({entry.path, entry.offset + pos,
                           View(entry.data).subspan(pos, chunk)});
        bytes += chunk;
        pos += chunk;
      } while (pos < entry.data.size());
    }
    if (!current.empty()) parts.push_back(std::move(current));
  };
  // max_object_bytes is a latency target (§5.2 fn. 3), but the part index
  // owns only the nonce's low 16 bits: an object that would need more
  // than kMaxDbParts parts doubles its part size until it fits, so no
  // two parts ever share an AES-CTR nonce. Smaller objects split exactly
  // as before.
  std::size_t part_limit = config_.max_object_bytes;
  split(part_limit);
  while (parts.size() > kMaxDbParts) split(part_limit *= 2);
  if (parts.empty()) parts.push_back({});  // degenerate empty checkpoint

  // A partial upload is invisible to recovery (total_parts mismatch).
  Bytes framing;  // reused per part; EncodeEntriesView keeps its capacity
  return PutAll(parts.size(), [&](std::size_t part) {
    const PayloadView payload = EncodeEntriesView(parts[part], framing);
    DbObjectId id;
    id.ts = job.ts;
    id.type = job.type;
    id.size = payload.size();
    id.seq = seq;
    id.redo_lsn = job.redo_lsn;
    id.part = static_cast<std::uint32_t>(part);
    id.total_parts = static_cast<std::uint32_t>(parts.size());
    ids->push_back(id);
    Upload u;
    u.name = id.Encode();
    // Nonce: unique per DB object part (seq/part disjoint from WAL ts
    // space by the high bit; part < kMaxDbParts fits its 16 bits).
    envelope_->EncodeInto(payload, (1ull << 63) | (seq << 16) | part,
                          u.enveloped);
    u.trace_id = (seq << 16) | part;
    return u;
  });
}

Status CheckpointPipeline::PutDeltaDump(const DbObjectJob& job,
                                        std::uint64_t seq,
                                        std::vector<DbObjectId>* ids,
                                        std::vector<ChunkRef>* refs) {
  // Chunk + hash the image, fanned across the shared codec pool (the
  // SHA-NI path per worker where the CPU has it).
  const std::uint64_t t_hash = Tracing() ? clock_->NowMicros() : 0;
  *refs = ChunkDumpEntries(job.entries, config_.dedup_chunk_bytes,
                           envelope_->codec_pool().get());
  if (Tracing()) {
    const std::uint64_t now = clock_->NowMicros();
    tracer_->Record(TraceStage::kChunkHash, seq, t_hash,
                    now >= t_hash ? now - t_hash : 0);
  }

  // Dedup pass: the first occurrence of a digest the cloud lacks uploads;
  // every other ref — already present, or repeated within this dump — is a
  // hit. Orphans from a previously torn upload count as hits here, which
  // is what makes torn delta dumps resumable.
  std::map<std::string, const FileEntry*> by_path;
  for (const auto& entry : job.entries) by_path[entry.path] = &entry;
  std::vector<std::size_t> missing;
  std::set<Sha1::Digest> scheduled;
  std::uint64_t logical_bytes = 0;
  for (std::size_t i = 0; i < refs->size(); ++i) {
    const ChunkRef& ref = (*refs)[i];
    logical_bytes += ref.length;
    if (chunk_index_->Contains(ref.digest) ||
        !scheduled.insert(ref.digest).second) {
      stats_.dedup_hit_bytes.Add(ref.length);
    } else {
      missing.push_back(i);
      stats_.dedup_miss_bytes.Add(ref.length);
    }
  }

  // Missing chunks PUT through the same window as monolithic parts. Each
  // landed chunk is durable whether or not this dump's manifest ever
  // lands, so PutAll marks it present immediately — a torn upload resumes.
  GINJA_RETURN_IF_ERROR(PutAll(missing.size(), [&](std::size_t k) {
    const ChunkRef& ref = (*refs)[missing[k]];
    const FileEntry& entry = *by_path.at(ref.path);
    const ByteView slice = View(entry.data).subspan(
        static_cast<std::size_t>(ref.offset - entry.offset), ref.length);
    Upload u;
    u.chunk = ChunkObjectId{ref.digest, ref.length};
    u.name = u.chunk->Encode();
    // Convergent derived-key envelope: key and nonce depend only on the
    // content digest, so identical plaintext chunks envelope to identical
    // ciphertext (deduplicable CHUNK/ names) while the per-chunk AES key
    // — derived from the full 160-bit digest — keeps a truncated-nonce
    // collision from ever reusing keystream across distinct chunks.
    u.enveloped = envelope_->EncodeDerived(
        slice, ChunkNonce(ref.digest),
        ByteView(ref.digest.data(), ref.digest.size()));
    u.trace_id = (seq << 16) | missing[k];
    return u;
  }));

  // Manifest strictly last — the delta-dump analogue of the all-parts-or-
  // invisible rule: recovery only trusts a dump whose manifest is visible,
  // and a visible manifest implies every chunk above was durable first.
  DbObjectId id;  // one part: part 0 of total_parts 1, the defaults
  id.ts = job.ts;
  id.type = DbObjectType::kManifest;
  id.size = logical_bytes;  // logical DB bytes: keeps the 150% rule exact
  id.seq = seq;
  id.redo_lsn = job.redo_lsn;
  ids->push_back(id);
  const Status st = PutAll(1, [&](std::size_t) {
    Upload u;
    u.name = id.Encode();
    u.enveloped = envelope_->Encode(View(EncodeManifest(*refs)),
                                    (1ull << 63) | (seq << 16));
    return u;
  });
  if (!st.ok()) {
    // The PUT ack may have been lost after the object landed. A one-part
    // manifest has no multi-part invisibility, so such a ghost would be
    // visible to recovery while unknown to the ChunkIndex — a later dump's
    // zero-ref sweep could then delete chunks only the ghost references,
    // leaving a visible-but-broken dump. Confirm its absence with a
    // DELETE; if even that fails, assume the worst and pin its chunks
    // until a reboot rebuild reconciles against the bucket.
    const Status confirmed_absent =
        Transfers().DeleteAll(Route(), {id.Encode()}).front();
    if (!confirmed_absent.ok()) chunk_index_->RegisterManifest(seq, *refs);
  }
  return st;
}

void CheckpointPipeline::GarbageCollect(const DbObjectJob& job,
                                        std::uint64_t uploaded_seq) {
  // Point-in-time retention (§5.4): under "keep every point" nothing is
  // deleted; otherwise objects a restore to a protected snapshot reads are
  // exempt from deletion.
  if (retention_ != nullptr && retention_->KeepsEveryPoint()) return;
  std::set<std::string> keep;
  if (retention_ != nullptr && !retention_->Empty()) {
    keep = retention_->KeepSet(view_->WalObjects(), view_->DbObjects(),
                               view_->TailObjects());
  }

  // WAL objects fully below the checkpoint's redo point are unreachable by
  // any future (non-PITR) recovery (Alg. 3 lines 23–25, LSN-safe variant).
  // A dump also supersedes every older DB object (Alg. 3 lines 26–29).
  // All victims are collected first and deleted in one wave; each one's
  // view update runs only once its DELETE succeeded, so a failed delete
  // is retried by the next GC pass.
  std::vector<Victim> victims;
  auto victim = [&](std::string name, std::function<void()> on_deleted) {
    if (keep.count(name) == 0) {
      victims.emplace_back(std::move(name), std::move(on_deleted));
    }
  };
  for (const auto& wal : view_->WalObjectsCoveredBy(job.redo_lsn)) {
    victim(wal.Encode(), [this, ts = wal.ts] {
      view_->RemoveWal(ts);
      stats_.wal_objects_deleted.Add();
    });
  }
  // Early-ack tails (streaming commit) die when the checkpoint covers
  // their cumulative range or their object's fold landed. Because the
  // cumulative max_lsn is monotone in seg, this always deletes a
  // seg-prefix per ts — the invariant recovery's dense-suffix rule needs.
  // A tail run a protected point's restore reads is kept whole.
  for (const auto& tail : view_->TailGarbage(job.redo_lsn)) {
    victim(tail.Encode(), [this, tail] {
      view_->RemoveTail(tail);
      stats_.wal_tails_deleted.Add();
    });
  }
  if (job.type == DbObjectType::kDump) {
    for (const auto& db : view_->DbObjects()) {
      if (db.seq >= uploaded_seq) continue;
      victim(db.Encode(), [this, db] {
        view_->RemoveDb(db);
        stats_.db_objects_deleted.Add();
        // A deleted manifest drops its chunk references; the chunks
        // themselves go in the second wave below, only once *no*
        // surviving manifest needs them. Manifests in the retention
        // keep-set were never victims, so their chunks keep their
        // references.
        if (db.type == DbObjectType::kManifest) {
          chunk_index_->ReleaseManifest(db.seq);
        }
      });
    }
  }
  DeleteWave(victims, "garbage collection incomplete");

  // Second wave: chunks no manifest references any more — superseded dump
  // content whose manifest DELETE was just confirmed, plus orphans from
  // torn uploads that nothing resumed. Runs strictly after the manifest
  // statuses above, so a chunk is only deleted when every manifest that
  // could reach it is provably gone (a failed manifest DELETE keeps its
  // references, keeping its chunks alive for the retry). It follows the
  // bucket, not dedup_dumps: chunks an earlier run left stay collectable
  // after the flag is turned off.
  std::vector<Victim> chunks;
  for (const auto& chunk : chunk_index_->ZeroRefChunks()) {
    chunks.emplace_back(chunk.Encode(), [this, digest = chunk.digest] {
      chunk_index_->RemoveChunk(digest);
      stats_.chunks_deleted.Add();
    });
  }
  DeleteWave(chunks, "chunk garbage collection incomplete");
}

void CheckpointPipeline::DeleteWave(const std::vector<Victim>& victims,
                                    const char* incomplete) {
  if (victims.empty()) return;
  std::vector<std::string> names;
  names.reserve(victims.size());
  for (const auto& [name, on_deleted] : victims) names.push_back(name);
  const std::vector<Status> statuses = Transfers().DeleteAll(Route(), names);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < victims.size(); ++i) {
    if (statuses[i].ok()) {
      victims[i].second();
    } else {
      ++failed;
    }
  }
  // Failed deletes stay in the view (or the index, as zero-ref chunks) and
  // are retried by the next GC pass — they cost storage dollars in the
  // meantime, so leave a trace.
  if (failed > 0 && !Cancelled()) {
    Log(LogLevel::kWarn, "checkpoint", incomplete,
        {{"failed_deletes", static_cast<std::uint64_t>(failed)},
         {"victims", static_cast<std::uint64_t>(victims.size())}});
  }
}

}  // namespace ginja
