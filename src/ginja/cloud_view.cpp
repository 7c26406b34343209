#include "ginja/cloud_view.h"

#include <algorithm>

namespace ginja {

std::uint64_t CloudView::NextWalTs() {
  std::lock_guard<std::mutex> lock(mu_);
  any_wal_ts_ = true;
  return next_wal_ts_++;
}

std::optional<std::uint64_t> CloudView::LastAssignedWalTs() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!any_wal_ts_ || next_wal_ts_ == 0) return std::nullopt;
  return next_wal_ts_ - 1;
}

void CloudView::AddWal(const WalObjectId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_[id.ts] = id;
  if (id.ts >= next_wal_ts_) {
    next_wal_ts_ = id.ts + 1;
    any_wal_ts_ = true;
  }
}

void CloudView::RemoveWal(std::uint64_t ts) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_.erase(ts);
}

bool CloudView::HasWal(std::uint64_t ts) const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.count(ts) > 0;
}

std::vector<WalObjectId> CloudView::WalObjects() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WalObjectId> out;
  out.reserve(wal_.size());
  for (const auto& [ts, id] : wal_) out.push_back(id);
  return out;
}

std::vector<WalObjectId> CloudView::WalObjectsCoveredBy(std::uint64_t lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WalObjectId> out;
  for (const auto& [ts, id] : wal_) {
    if (id.max_lsn <= lsn) out.push_back(id);
  }
  return out;
}

void CloudView::AddTail(const TailObjectId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  tails_[{id.ts, id.seg, id.replica}] = id;
  // A tail proves its ts was handed out; a reboot's LIST must never
  // reissue it for a new batch.
  if (id.ts >= next_wal_ts_) {
    next_wal_ts_ = id.ts + 1;
    any_wal_ts_ = true;
  }
}

bool CloudView::RemoveTail(const TailObjectId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  return tails_.erase({id.ts, id.seg, id.replica}) > 0;
}

std::vector<TailObjectId> CloudView::TailObjects() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TailObjectId> out;
  out.reserve(tails_.size());
  for (const auto& [key, id] : tails_) out.push_back(id);
  return out;
}

std::vector<TailObjectId> CloudView::TailsForTs(std::uint64_t ts) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TailObjectId> out;
  for (auto it = tails_.lower_bound({ts, 0, 0}); it != tails_.end(); ++it) {
    if (std::get<0>(it->first) != ts) break;
    out.push_back(it->second);
  }
  return out;
}

std::vector<TailObjectId> CloudView::TailGarbage(std::uint64_t redo_lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TailObjectId> out;
  for (const auto& [key, id] : tails_) {
    if (id.max_lsn <= redo_lsn || wal_.count(id.ts) > 0) out.push_back(id);
  }
  return out;
}

std::size_t CloudView::TailCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tails_.size();
}

std::uint64_t CloudView::NextCheckpointSeq() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_++;
}

void CloudView::AddDb(const DbObjectId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  db_[{id.seq, id.part}] = id;
  if (id.seq >= next_seq_) next_seq_ = id.seq + 1;
}

void CloudView::RemoveDb(const DbObjectId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  db_.erase({id.seq, id.part});
}

std::vector<DbObjectId> CloudView::DbObjects() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DbObjectId> out;
  out.reserve(db_.size());
  for (const auto& [key, id] : db_) out.push_back(id);
  return out;
}

std::uint64_t CloudView::TotalDbBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, id] : db_) total += id.size;
  return total;
}

bool CloudView::AddFromName(const std::string& name) {
  if (auto wal = WalObjectId::Decode(name)) {
    AddWal(*wal);
    return true;
  }
  if (auto tail = TailObjectId::Decode(name)) {
    AddTail(*tail);
    return true;
  }
  if (auto db = DbObjectId::Decode(name)) {
    AddDb(*db);
    return true;
  }
  return false;
}

void CloudView::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  wal_.clear();
  tails_.clear();
  db_.clear();
  next_wal_ts_ = 0;
  next_seq_ = 0;
  any_wal_ts_ = false;
}

std::size_t CloudView::WalCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.size();
}

std::size_t CloudView::DbCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return db_.size();
}

}  // namespace ginja
