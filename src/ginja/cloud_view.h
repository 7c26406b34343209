// CloudView — Ginja's in-memory index of the objects it keeps in the cloud
// (paper Alg. 1 line 1). Rebuilt by LIST on reboot/recovery; updated by the
// commit and checkpoint pipelines during operation. Thread-safe: batch
// formation, Uploaders, Checkpointer, and processor all consult it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "ginja/object_id.h"

namespace ginja {

class CloudView {
 public:
  // -- WAL objects -----------------------------------------------------------

  // Reserves the next WAL timestamp (Alg. 2 line 14).
  std::uint64_t NextWalTs();
  // Last timestamp handed out, or nullopt before any (Alg. 3 line 5 reads
  // this at checkpoint begin).
  std::optional<std::uint64_t> LastAssignedWalTs() const;

  void AddWal(const WalObjectId& id);
  void RemoveWal(std::uint64_t ts);
  bool HasWal(std::uint64_t ts) const;
  std::vector<WalObjectId> WalObjects() const;  // ascending ts
  // WAL objects whose covered stream range ends at or before `lsn` — the
  // prefix that a checkpoint with redo LSN `lsn` makes garbage.
  std::vector<WalObjectId> WalObjectsCoveredBy(std::uint64_t lsn) const;

  // -- WAL tail objects (streaming early acks) ---------------------------------

  void AddTail(const TailObjectId& id);
  // False when the tail was not indexed (already removed).
  bool RemoveTail(const TailObjectId& id);
  std::vector<TailObjectId> TailObjects() const;  // ascending (ts, seg, replica)
  std::vector<TailObjectId> TailsForTs(std::uint64_t ts) const;
  // Tails that are safe to delete given a checkpoint redo LSN: those whose
  // cumulative max_lsn is covered, plus every tail of a ts whose full WAL
  // object has landed (the fold supersedes them regardless of lsn).
  std::vector<TailObjectId> TailGarbage(std::uint64_t redo_lsn) const;
  std::size_t TailCount() const;

  // -- DB objects --------------------------------------------------------------

  std::uint64_t NextCheckpointSeq();

  void AddDb(const DbObjectId& id);
  void RemoveDb(const DbObjectId& id);
  std::vector<DbObjectId> DbObjects() const;  // ascending (seq, part)
  // Sum of the logical sizes of all DB objects (the 150% dump rule input).
  std::uint64_t TotalDbBytes() const;

  // -- bulk --------------------------------------------------------------------

  // Parses an object name (from LIST) and indexes it; unknown names are
  // ignored and reported false.
  bool AddFromName(const std::string& name);
  void Clear();
  std::size_t WalCount() const;
  std::size_t DbCount() const;

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, WalObjectId> wal_;     // by ts
  // by (ts, seg, replica)
  std::map<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>,
           TailObjectId>
      tails_;
  std::map<std::pair<std::uint64_t, std::uint32_t>, DbObjectId> db_;  // by (seq, part)
  std::uint64_t next_wal_ts_ = 0;
  std::uint64_t next_seq_ = 0;
  bool any_wal_ts_ = false;
};

}  // namespace ginja
