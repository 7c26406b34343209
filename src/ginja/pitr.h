// Point-in-time recovery retention (paper §5.4).
//
// The paper's garbage collector deletes everything a new checkpoint
// supersedes. To keep the database restorable to earlier moments, §5.4
// modifies it: for a protected point T, keep what a restore to T needs —
// (1) the most recent dump d written before T, (2) the incremental
// checkpoints between d and T, and (3) the WAL objects between the last
// kept checkpoint and T.
//
// The keep set is exactly what the recovery plan reads: for each point,
// the objects BuildTailPlan (tail_apply.h) schedules for a restore to T.
// No second copy of the selection rules exists, so retention can never
// disagree with recovery — a torn dump or checkpoint (parts missing) is
// skipped by both, and the WAL a restore replays past it stays. The plan
// works from object *names* (every DB object carries its redo LSN and part
// count, every WAL object its max LSN), so retention survives reboots, and
// it prunes precisely *between* snapshots — the storage-cost trade-off the
// paper calls out is exactly the size of these keep-sets (approximately
// one dump + checkpoint chain per point).
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "ginja/cloud_view.h"

namespace ginja {

// A restore point the cloud can currently serve: the database state as of
// WAL-object timestamp `ts`.
struct RestorePoint {
  std::uint64_t ts = 0;
  bool is_snapshot = false;  // true when explicitly protected
};

// Thread-safe set of protected timestamps, shared between the operator
// (who calls Protect when taking a snapshot) and the checkpoint pipeline's
// garbage collector.
class RetentionPolicy {
 public:
  // Protects the state as of WAL timestamp `ts` ("keep the database state
  // on date-time T" — timestamps are Ginja's time axis).
  void Protect(std::uint64_t ts);
  void Release(std::uint64_t ts);
  std::vector<std::uint64_t> ProtectedTs() const;
  bool Empty() const;

  // Keep every point: garbage collection deletes nothing — no WAL, tail,
  // DB or chunk object — so the database stays restorable to any earlier
  // WAL timestamp, not only to protected ones.
  void KeepEveryPoint();
  bool KeepsEveryPoint() const;

  // Object names that garbage collection must NOT delete, given the
  // current cloud contents: the union over protected points T of every
  // object (and replica fallback) in BuildTailPlan(contents, T).
  std::set<std::string> KeepSet(
      const std::vector<WalObjectId>& wal_objects,
      const std::vector<DbObjectId>& db_objects,
      const std::vector<TailObjectId>& tail_objects = {}) const;

 private:
  mutable std::mutex mu_;
  std::set<std::uint64_t> protected_ts_;
  bool keep_every_point_ = false;
};

// Enumerates the moments a recovery can currently target: every WAL-object
// timestamp present in the cloud, with protected snapshots flagged.
std::vector<RestorePoint> ListRestorePoints(const CloudView& view,
                                            const RetentionPolicy* policy);

}  // namespace ginja
