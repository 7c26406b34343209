// The checkpoint pipeline — paper Algorithm 3 / the "Checkpointer" of Fig. 3.
//
// The processor feeds it the data-file writes it observes between the
// checkpoint-begin and checkpoint-end events (Table 1). At checkpoint end
// the collected writes are packaged as a DB object — an incremental
// checkpoint, or a full dump when the cloud-side DB volume reaches 150% of
// the local database size — and a background thread uploads it and then
// garbage-collects:
//   * WAL objects whose covered WAL-stream range lies entirely below the
//     checkpoint's redo LSN (a prefix in ts order; see object_id.h for why
//     the LSN rule rather than the paper's ts rule);
//   * on a dump, every older DB object.
// A RetentionPolicy (point-in-time recovery, §5.4) exempts what restores
// to protected points read; in its "keep every point" mode nothing is
// deleted.
//
// Part PUTs and GC DELETEs run on a FleetRuntime's shared TransferManager,
// billed to this pipeline's account; without `config.runtime` the pipeline
// makes a private one-tenant runtime (MakeStandaloneRuntime).
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/object_store.h"
#include "cloud/transfer.h"
#include "common/blocking_queue.h"
#include "common/clock.h"
#include "common/codec/envelope.h"
#include "common/stats.h"
#include "db/layout.h"
#include "fs/vfs.h"
#include "ginja/cloud_view.h"
#include "ginja/config.h"
#include "ginja/dedup.h"
#include "ginja/fleet_runtime.h"
#include "ginja/payload.h"
#include "ginja/pitr.h"

namespace ginja {

struct CheckpointPipelineStats {
  Counter checkpoints_uploaded;
  Counter dumps_uploaded;
  Counter db_objects_uploaded;   // parts (incl. manifests)
  Counter bytes_uploaded;        // enveloped
  Counter wal_objects_deleted;
  Counter wal_tails_deleted;   // superseded early-ack tail objects
  Counter db_objects_deleted;
  // Delta-dump dedup (ginja/dedup.h). Hit/miss split the dump's logical
  // bytes: hits were already in the cloud (not re-uploaded), misses were
  // PUT as new CHUNK/ objects.
  Counter dedup_hit_bytes;
  Counter dedup_miss_bytes;
  Counter chunks_uploaded;
  Counter chunks_deleted;        // refcount GC reclamations
};

class CheckpointPipeline {
 public:
  // `local_vfs` is read when building dumps and when sizing the local
  // database for the 150% rule.
  CheckpointPipeline(ObjectStorePtr store, std::shared_ptr<CloudView> view,
                     std::shared_ptr<Clock> clock, const GinjaConfig& config,
                     std::shared_ptr<Envelope> envelope, VfsPtr local_vfs,
                     DbLayout layout);
  ~CheckpointPipeline();

  CheckpointPipeline(const CheckpointPipeline&) = delete;
  CheckpointPipeline& operator=(const CheckpointPipeline&) = delete;

  void Start();
  void Stop();   // drains pending uploads
  void Kill();   // abandons them (crash simulation)

  // -- processor-facing API (called on the DBMS thread) -----------------------

  // First write of a checkpoint: captures the last uploaded-WAL timestamp
  // (Alg. 3 lines 4–5).
  void OnCheckpointBegin();
  bool InCheckpoint() const;
  // Every data-file write between begin and end (Alg. 3 lines 6–7).
  void AddWrite(FileEntry entry);
  // Last write of the checkpoint: packages a DB object and hands it to the
  // upload thread (Alg. 3 lines 8–16). `redo_lsn` is the checkpoint LSN the
  // processor parsed from the control-block write; it drives WAL GC.
  // `wal_frontier` is the highest WAL-stream position the flushed pages can
  // contain; the upload is withheld until the cloud's acknowledged WAL
  // covers it, so recovery always sees a transaction-history prefix.
  void OnCheckpointEnd(Lsn redo_lsn, Lsn wal_frontier = 0);

  // Provider of the commit pipeline's acknowledged WAL frontier.
  void SetWalFrontierFn(std::function<Lsn()> fn) { wal_frontier_fn_ = std::move(fn); }

  // Wakes the checkpointer's WAL-coverage wait. The frontier provider's
  // owner calls this whenever the frontier advances (wired to the commit
  // pipeline's frontier listener), replacing the old 1 ms poll loop.
  void NotifyFrontier();

  void Drain();

  // Selective point-in-time retention (§5.4): garbage collection keeps the
  // objects each protected snapshot needs, pruning everything in between.
  void SetRetentionPolicy(std::shared_ptr<RetentionPolicy> policy) {
    retention_ = std::move(policy);
  }

  // Bytes of all non-WAL database files on local disk (the 150% baseline).
  // Cached between checkpoints: the first call walks the VFS, later calls
  // return the cached total, kept exact by AddWrite (observed data-file
  // writes extend the per-file high-water marks incrementally) and dropped
  // by InvalidateLocalDbSizeCache on removals/truncations.
  std::uint64_t LocalDbSizeBytes() const;
  // Drops the size cache; the next LocalDbSizeBytes re-walks the VFS. The
  // processor calls this on non-write file events (remove/truncate).
  void InvalidateLocalDbSizeCache();

  // Shared chunk inventory for delta dumps (dedup_dumps). Ginja injects
  // one it owns (rebuilt from the bucket on Reboot); a directly-constructed
  // pipeline uses a private index. Call before Start().
  void SetChunkIndex(std::shared_ptr<ChunkIndex> index) {
    chunk_index_ = std::move(index);
  }

  const CheckpointPipelineStats& stats() const { return stats_; }

 private:
  struct DbObjectJob {
    DbObjectType type = DbObjectType::kCheckpoint;
    std::uint64_t ts = 0;
    Lsn redo_lsn = 0;
    Lsn wal_frontier = 0;  // upload gate: cloud WAL must reach this first
    std::vector<FileEntry> entries;
  };

  // One object of a DB object's upload: a part, a chunk or a manifest.
  struct Upload {
    std::string name;
    Bytes enveloped;                        // moved into the PUT
    std::optional<ChunkObjectId> chunk;     // MarkPresent the moment it lands
    std::optional<std::uint64_t> trace_id;  // its kCheckpointPart span
    std::size_t bytes = 0;                  // set by PutAll
    std::uint64_t submit_us = 0;            // set by PutAll
  };
  // A GC victim's name and what its confirmed DELETE settles.
  using Victim = std::pair<std::string, std::function<void()>>;

  void CheckpointerLoop();
  std::vector<FileEntry> BuildDumpEntries() const;
  // The one upload path: PUTs uploads 0..count-1 through the transfer
  // window, `make(i)` enveloping upload i on this thread while earlier
  // PUTs are in flight. Returns the first failure in upload order; nothing
  // is issued once it is reaped.
  Status PutAll(std::size_t count,
                const std::function<Upload(std::size_t)>& make);
  // The upload lists: a checkpoint's or monolithic dump's parts, or a
  // delta dump's (dedup_dumps) missing chunks and then, strictly last,
  // its manifest. `ids` are the DB objects to publish once all landed.
  Status PutParts(const DbObjectJob& job, std::uint64_t seq,
                  std::vector<DbObjectId>* ids);
  Status PutDeltaDump(const DbObjectJob& job, std::uint64_t seq,
                      std::vector<DbObjectId>* ids,
                      std::vector<ChunkRef>* refs);
  void GarbageCollect(const DbObjectJob& job, std::uint64_t uploaded_seq);
  // Deletes every victim in one fan-out and settles the ones that landed;
  // logs `incomplete` when some failed (the next GC pass retries them).
  void DeleteWave(const std::vector<Victim>& victims, const char* incomplete);
  // Whether `path` participates in the 150%-rule size walk (WAL segments
  // and the MySQL redo log do not).
  bool CountsTowardDbSize(const std::string& path) const;
  void RegisterMetrics();
  // {tenant=<id>} for a fleet member, empty standalone (see CommitPipeline).
  MetricLabels Labels() const {
    return config_.tenant_id.empty()
               ? MetricLabels{}
               : MetricLabels{{"tenant", config_.tenant_id}};
  }
  // The runtime's shared manager; every operation carries Route(): this
  // pipeline's store, billed to its account.
  TransferManager& Transfers() const { return *config_.runtime->transfers(); }
  TransferRoute Route() const { return {store_, account_}; }
  bool Cancelled() const { return account_->cancelled(); }
  bool Tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  ObjectStorePtr store_;
  std::shared_ptr<CloudView> view_;
  std::shared_ptr<Clock> clock_;
  GinjaConfig config_;
  std::shared_ptr<Envelope> envelope_;
  VfsPtr local_vfs_;
  DbLayout layout_;
  // Scopes Kill() cancellation and destructor quiescence to this
  // pipeline's operations on the runtime's manager.
  TransferAccountPtr account_;
  std::shared_ptr<RetentionPolicy> retention_;
  std::shared_ptr<ChunkIndex> chunk_index_;
  std::function<Lsn()> wal_frontier_fn_;

  // LocalDbSizeBytes cache (separate lock: AddWrite touches it outside
  // mu_, and the walk must not block checkpoint begin/end).
  mutable std::mutex size_mu_;
  mutable bool size_valid_ = false;
  mutable std::uint64_t size_cached_ = 0;
  // Observed end-of-file per counted path; lets in-place page rewrites
  // (the common case) keep the cache valid and extending writes adjust the
  // total exactly instead of invalidating.
  mutable std::map<std::string, std::uint64_t> size_file_end_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::condition_variable frontier_cv_;  // WAL-coverage gate (CheckpointerLoop)
  bool in_checkpoint_ = false;
  std::uint64_t checkpoint_ts_ = 0;
  std::vector<FileEntry> collected_;
  bool killed_ = false;
  std::uint64_t inflight_jobs_ = 0;  // enqueued or currently processing

  BlockingQueue<DbObjectJob> queue_;
  std::thread thread_;
  CheckpointPipelineStats stats_;
  WriteTracer* tracer_ = nullptr;  // borrowed from config_.obs; may be null
};

}  // namespace ginja
