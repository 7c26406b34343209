// Ginja — the disaster-recovery middleware facade (paper §5).
//
// Typical use:
//
//   auto fs    = std::make_shared<MemFs>();             // or LocalFs
//   auto icept = std::make_shared<InterceptFs>(fs, clock);
//   Database db(icept, DbLayout::Postgres());
//   db.Create(); ... create tables ...
//
//   Ginja ginja(fs, cloud, clock, DbLayout::Postgres(), config);
//   ginja.Boot();            // initial dump + WAL objects to the cloud
//   icept->SetListener(&ginja);   // from here every DBMS write is protected
//   ... run the workload; commits replicate per B/S ...
//   ginja.Stop();            // drain and detach (clean shutdown)
//
// After a disaster:
//
//   Ginja::Recover(cloud, config, layout, fresh_fs, &report);
//   Database db(fresh_fs_intercepted, layout); db.Open();  // DBMS redo
//
// Reboot() replaces Boot() when the cloud already mirrors the local files
// (clean restart). Recovery honours an optional timestamp limit when the
// config kept history (point-in-time recovery, §5.4).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "cloud/object_store.h"
#include "common/clock.h"
#include "db/layout.h"
#include "fs/intercept_fs.h"
#include "ginja/checkpoint_pipeline.h"
#include "ginja/cloud_view.h"
#include "ginja/commit_pipeline.h"
#include "ginja/config.h"
#include "ginja/pitr.h"
#include "ginja/processor.h"
#include "ginja/tail_apply.h"  // RecoveryReport

namespace ginja {

class Ginja : public FileEventListener {
 public:
  // `local_vfs` must be the *inner* file system (not the InterceptFs), so
  // Ginja's own reads do not re-enter interception.
  Ginja(VfsPtr local_vfs, ObjectStorePtr store, std::shared_ptr<Clock> clock,
        DbLayout layout, GinjaConfig config);
  ~Ginja() override;

  // Mode Boot (Alg. 1 lines 7–18): uploads one WAL object per local WAL
  // segment and a full dump, synchronously. Only after this returns may the
  // DBMS run on top.
  Status Boot();

  // Mode Reboot (Alg. 1 lines 19–22): rebuilds the cloudView by LIST; the
  // cloud is assumed to be in sync with the local files (clean stop).
  Status Reboot();

  // Mode Recovery (Alg. 1 lines 23–40): rebuilds the database files from
  // the cloud into `target` (normally an empty directory). It is one full
  // pass of a StandbyReplica opened at `up_to_ts` (standby.h): the plan
  // and apply loop a warm replica bootstraps with, with no tail thread and
  // no drain. With `up_to_ts`, only objects with ts <= limit are used
  // (point-in-time recovery; needs a protected point or a config that kept
  // history). A null `clock` runs untraced with duration_micros 0.
  static Status Recover(ObjectStorePtr store, const GinjaConfig& config,
                        const DbLayout& layout, VfsPtr target,
                        RecoveryReport* report = nullptr,
                        std::optional<std::uint64_t> up_to_ts = std::nullopt,
                        std::shared_ptr<Clock> clock = nullptr);

  // FileEventListener: entry point for InterceptFs.
  void OnFileEvent(const FileEvent& event) override;

  // Clean shutdown: drains both pipelines and joins every thread.
  void Stop();
  // Crash simulation: abandons pending uploads.
  void Kill();
  // Blocks until the commit queue is empty (everything acknowledged).
  void Drain();

  // -- point-in-time recovery (§5.4) -----------------------------------------

  // Waits for pending commits to reach the cloud, then protects the
  // current state as a restore point. Returns its WAL timestamp (pass it
  // to Recover's `up_to_ts` later), or nullopt if nothing was ever
  // uploaded. GC will keep exactly the objects this point needs.
  std::optional<std::uint64_t> ProtectCurrentState();
  RetentionPolicy& retention() { return *retention_; }
  std::vector<RestorePoint> RestorePoints() const {
    return ListRestorePoints(*view_, retention_.get());
  }

  // The metrics/tracing bundle: the one the config supplied, or the private
  // bundle Ginja created when the config carried none. Never null.
  ObservabilityPtr observability() const { return config_.obs; }

  const CommitPipelineStats& commit_stats() const { return commits_->stats(); }
  const CheckpointPipelineStats& checkpoint_stats() const {
    return checkpoints_->stats();
  }
  const CloudView& cloud_view() const { return *view_; }
  const Envelope& envelope() const { return *envelope_; }
  // Delta-dump chunk inventory (dedup_dumps); rebuilt from the bucket on
  // Reboot, populated by the checkpoint pipeline while running.
  const ChunkIndex& chunk_index() const { return *chunk_index_; }
  std::size_t PendingWrites() const { return commits_->PendingWrites(); }

 private:
  VfsPtr local_vfs_;
  ObjectStorePtr store_;
  std::shared_ptr<Clock> clock_;
  DbLayout layout_;
  GinjaConfig config_;

  std::shared_ptr<CloudView> view_;
  std::shared_ptr<RetentionPolicy> retention_;
  std::shared_ptr<ChunkIndex> chunk_index_;
  std::shared_ptr<Envelope> envelope_;
  std::unique_ptr<CommitPipeline> commits_;
  std::unique_ptr<CheckpointPipeline> checkpoints_;
  std::unique_ptr<DbIoProcessor> processor_;
  // Atomic: OnFileEvent reads these from DBMS threads while Stop/Kill
  // write them from the control thread.
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace ginja
