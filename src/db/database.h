// Transactional storage engine with PostgreSQL / MySQL I/O personalities.
//
// A deliberately small ACID engine whose *file I/O* reproduces what the
// paper's Table 1 describes, because that I/O is Ginja's entire interface
// to the DBMS:
//   * commits do synchronous page-granular WAL writes (rewriting the
//     current partial page — the pattern Ginja's aggregation coalesces);
//   * PostgreSQL-personality checkpoints are periodic and full: sync write
//     to pg_clog (begin), dirty data pages, catalog, then a sync write to
//     global/pg_control (end), then old pg_xlog segments are removed;
//   * MySQL-personality checkpoints are fuzzy: small batches of sync data-
//     page writes at arbitrary times (begin), a checkpoint block at offset
//     512/1536 of ib_logfile0 (end), with the circular log forcing a flush
//     when it is about to wrap over un-checkpointed pages.
//
// Crash recovery follows ARIES-lite redo: load table pages, read the
// control block, replay committed WAL records after the checkpoint LSN,
// skipping records already reflected in a page (per-page flush LSNs).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "db/layout.h"
#include "db/table.h"
#include "db/wal.h"
#include "fs/vfs.h"

namespace ginja {

struct DbOptions {
  std::uint32_t default_buckets = 64;
  // A full/fuzzy checkpoint is triggered from the commit path when this
  // many WAL bytes accumulate since the last one (0 = manual only).
  std::uint64_t auto_checkpoint_wal_bytes = 0;
  // MySQL personality: dirty pages flushed per fuzzy batch.
  std::size_t fuzzy_batch_pages = 32;
};

class Database {
 public:
  // `redo_threads` is the K that Open loads and replays on, capped by the
  // table count; 0 takes the host's hardware threads.
  Database(VfsPtr vfs, DbLayout layout, DbOptions options = {},
           int redo_threads = 0);
  ~Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Initialises a fresh database directory (catalog + control block).
  Status Create();

  // Opens an existing directory: loads the catalog and table files, then
  // redoes the WAL from the checkpoint recorded in the control block.
  // This is both the clean-restart and the crash-recovery path. Tables load
  // and replay on K threads while the WAL is parsed; the result is the
  // same for every K.
  Status Open();

  // Must be called before the workload starts (catalog writes are not
  // WAL-logged; see DESIGN.md).
  Status CreateTable(const std::string& name, std::uint32_t buckets = 0);
  bool HasTable(const std::string& name) const;

  class Transaction {
   public:
    bool active() const { return active_; }

   private:
    friend class Database;
    std::vector<WalRecord> ops_;
    bool active_ = false;
  };

  Transaction Begin();
  // Buffers a row write/delete in the transaction (applied at Commit).
  Status Put(Transaction& txn, const std::string& table, const std::string& key,
             Bytes value);
  Status Delete(Transaction& txn, const std::string& table,
                const std::string& key);
  // Applies the writeset and durably appends it (plus a commit record) to
  // the WAL in one synchronous write sequence. Read-only txns are free.
  Status Commit(Transaction& txn);

  std::optional<Bytes> Get(const std::string& table,
                           const std::string& key) const;

  // Full checkpoint (PostgreSQL style; also used for clean shutdown and
  // for the forced flush when the circular log wraps).
  Status Checkpoint();
  // One fuzzy-checkpoint step (MySQL style): flush a batch of the oldest
  // dirty pages, then advance the checkpoint header.
  Status FuzzyFlush();

  Status CleanShutdown() { return Checkpoint(); }

  // -- introspection ----------------------------------------------------------
  Lsn WalEndLsn() const;
  Lsn CheckpointLsn() const;
  std::uint64_t CommittedTxns() const { return committed_txns_.Get(); }
  std::uint64_t ApproxDataBytes() const;
  std::vector<std::string> TableNames() const;
  std::uint64_t RowCount(const std::string& table) const;
  // The table's dirty buckets, oldest first (empty for an unknown table).
  std::vector<Table::DirtyPage> DirtyPages(const std::string& table) const;
  const DbLayout& layout() const { return layout_; }

 private:
  Status CheckpointLocked();
  Status FuzzyFlushLocked();
  Status WriteControlLocked(Lsn checkpoint_lsn);
  Status WriteCatalogLocked();
  Status WriteClogLocked();
  Result<ControlBlock> ReadControl();

  VfsPtr vfs_;
  DbLayout layout_;
  DbOptions options_;
  int redo_threads_;

  mutable std::mutex mu_;
  std::map<std::string, Table> tables_;
  std::unique_ptr<WalWriter> wal_;
  Lsn checkpoint_lsn_ = 0;
  std::uint64_t next_txn_id_ = 1;
  std::uint64_t control_counter_ = 0;
  std::uint64_t wal_bytes_since_checkpoint_ = 0;
  bool in_commit_path_checkpoint_ = false;
  Counter committed_txns_;
};

}  // namespace ginja
