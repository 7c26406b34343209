// Write-ahead log: record format, page-buffered writer, recovery reader.
//
// The WAL is a logical byte stream of records chopped into fixed-size pages
// (8 kB PostgreSQL / 512 B InnoDB), each page carrying a CRC, a used-byte
// count, and its logical page number (so circular reuse is detectable).
// An LSN is the record's byte offset in the logical stream, which makes the
// LSN ↔ (file, offset) mapping purely arithmetic via DbLayout.
//
// Commit behaviour matches what Ginja observes on real systems: a commit
// serialises its writeset plus a commit record, appends them to the current
// page buffer, and rewrites every touched page in place — so the *same*
// (file, offset) is written repeatedly as a page fills. That rewrite
// pattern is exactly what makes Ginja's aggregation (Alg. 2) pay off.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "db/layout.h"
#include "fs/vfs.h"

namespace ginja {

enum class WalRecordType : std::uint8_t {
  kPut = 1,
  kDelete = 2,
  kCommit = 3,
};

struct WalRecord {
  WalRecordType type = WalRecordType::kPut;
  std::uint64_t txn_id = 0;
  std::string table;  // empty for kCommit
  std::string key;
  Bytes value;        // empty for kDelete/kCommit
  Lsn lsn = 0;        // filled by the reader

  Bytes Serialize() const;
};

class WalWriter {
 public:
  // `start_lsn` is the end of the valid stream (0 for a fresh database).
  // `on_wrap_needed(oldest_needed_page)` is invoked when the circular log
  // is about to overwrite a page still required for recovery; the callee
  // (the engine) must advance the checkpoint before returning — InnoDB's
  // "log free space" forced flush.
  WalWriter(VfsPtr vfs, DbLayout layout, Lsn start_lsn,
            std::function<void()> on_wrap_needed = nullptr);

  // Appends the records and durably writes every touched WAL page (the
  // final page write carries sync=true: the paper's "update commit" event).
  // Returns the LSN just past the appended records.
  Result<Lsn> AppendAndSync(const std::vector<WalRecord>& records);

  Lsn EndLsn() const;

  // Oldest logical page that must be preserved for redo from `lsn`.
  std::uint64_t PageOfLsn(Lsn lsn) const { return lsn / layout_.WalPayloadSize(); }

  // Lets the engine garbage-collect whole segments below the checkpoint
  // (PostgreSQL recycling). Returns removed file names.
  std::vector<std::string> RemoveSegmentsBelow(Lsn checkpoint_lsn);

  // Informs the writer of the current checkpoint so the circular-wrap guard
  // knows which pages are still needed.
  void SetCheckpointLsn(Lsn lsn);

 private:
  Status FlushPage(std::uint64_t logical_page, bool sync);
  void EnsureWrapSafe(std::uint64_t logical_page);

  VfsPtr vfs_;
  DbLayout layout_;
  std::function<void()> on_wrap_needed_;

  mutable std::mutex mu_;
  Lsn end_lsn_;
  std::atomic<Lsn> checkpoint_lsn_{0};
  std::uint64_t current_page_;   // logical page holding end_lsn_
  Bytes current_payload_;        // payload bytes of the current page
};

class WalReader {
 public:
  WalReader(VfsPtr vfs, DbLayout layout);

  // Scans committed transactions starting at `from_lsn`, invoking
  // `on_record` for each kPut/kDelete of a *committed* transaction, in
  // commit order; the callee may move out of the record. Records of
  // transactions whose kCommit never made it to disk are discarded
  // (atomicity). The parse window holds one page plus any record that
  // spans into it, not the whole log. Returns the end of the valid stream,
  // or the error of a failed page read.
  Result<Lsn> Replay(Lsn from_lsn,
                     const std::function<void(WalRecord&)>& on_record);

 private:
  // Reads the payload of a logical page. Ok(nullopt) ends the log: the
  // page's file is missing, or the page is short, corrupt, or belongs to an
  // older wrap cycle. Any other read failure is returned as an error.
  Result<std::optional<Bytes>> ReadPagePayload(std::uint64_t logical_page);

  VfsPtr vfs_;
  DbLayout layout_;
};

}  // namespace ginja
