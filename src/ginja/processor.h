// Database I/O processors — the paper's PG/MySQL "Processor" boxes (Fig. 3).
//
// A processor turns the raw file events delivered by InterceptFs into the
// three semantic events of Table 1 and routes the data:
//
//                     PostgreSQL                 MySQL/InnoDB
//   update commit     write to pg_xlog/*         write to ib_logfile* data
//                     -> CommitPipeline          region -> CommitPipeline
//   checkpoint begin  sync write to pg_clog/*    sync write to a data file
//   checkpoint end    sync write to pg_control   sync write at offset
//                                                512/1536 of ib_logfile0
//
// Both personalities share the mechanics; the DbLayout carries the
// classification rules, so each concrete processor is the thin module the
// paper describes ("around 200 lines of code each", §6).
//
// The processor also annotates each WAL write with the WAL-stream range it
// covers (from the page header), and parses the redo LSN out of the
// control-block write — the two pieces of metadata the LSN-safe garbage
// collector needs (see object_id.h).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>

#include "db/layout.h"
#include "fs/intercept_fs.h"
#include "ginja/checkpoint_pipeline.h"
#include "ginja/commit_pipeline.h"

namespace ginja {

class DbIoProcessor : public FileEventListener {
 public:
  DbIoProcessor(DbLayout layout, CommitPipeline* commits,
                CheckpointPipeline* checkpoints);

  void OnFileEvent(const FileEvent& event) override;

  // Number of events that could not be attributed (unknown paths).
  std::uint64_t unclassified_events() const { return unclassified_.Get(); }

 private:
  void OnWalWrite(const FileEvent& event);
  void OnDataWrite(const FileEvent& event);
  void OnControlWrite(const FileEvent& event);

  // Logical WAL page for a (file, offset) write; tracks wrap epochs for the
  // circular MySQL log.
  std::uint64_t LogicalWalPage(const std::string& path, std::uint64_t offset);

  DbLayout layout_;
  CommitPipeline* commits_;
  CheckpointPipeline* checkpoints_;

  // Only the circular-log wrap-epoch bookkeeping needs a mutex; the
  // Postgres WAL path never takes it. Wrap detection relies on WAL writes
  // arriving one at a time in log order, which the engine's WAL writer
  // guarantees by serialising its page writes; the EngineStress test
  // WalWritesReachTheListenerOneAtATimeInLogOrder pins this.
  std::mutex wrap_mu_;
  std::uint64_t last_slot_ = 0;
  std::uint64_t epoch_ = 0;
  bool any_wal_write_ = false;
  // Highest WAL-stream position seen; checkpoint pages cannot contain
  // newer data, so this gates the DB-object upload (prefix guarantee).
  // CAS-max updated by WAL writers, read by the control-write path.
  std::atomic<Lsn> last_wal_frontier_{0};
  Counter unclassified_;
};

// Factory helpers matching the paper's per-DBMS processors.
std::unique_ptr<DbIoProcessor> MakePostgresProcessor(
    CommitPipeline* commits, CheckpointPipeline* checkpoints);
std::unique_ptr<DbIoProcessor> MakeMySqlProcessor(
    CommitPipeline* commits, CheckpointPipeline* checkpoints);

}  // namespace ginja
