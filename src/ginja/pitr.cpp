#include "ginja/pitr.h"

#include <algorithm>

#include "ginja/tail_apply.h"

namespace ginja {

void RetentionPolicy::Protect(std::uint64_t ts) {
  std::lock_guard<std::mutex> lock(mu_);
  protected_ts_.insert(ts);
}

void RetentionPolicy::Release(std::uint64_t ts) {
  std::lock_guard<std::mutex> lock(mu_);
  protected_ts_.erase(ts);
}

std::vector<std::uint64_t> RetentionPolicy::ProtectedTs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::uint64_t>(protected_ts_.begin(), protected_ts_.end());
}

bool RetentionPolicy::Empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return protected_ts_.empty();
}

void RetentionPolicy::KeepEveryPoint() {
  std::lock_guard<std::mutex> lock(mu_);
  keep_every_point_ = true;
}

bool RetentionPolicy::KeepsEveryPoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return keep_every_point_;
}

std::set<std::string> RetentionPolicy::KeepSet(
    const std::vector<WalObjectId>& wal_objects,
    const std::vector<DbObjectId>& db_objects,
    const std::vector<TailObjectId>& tail_objects) const {
  std::set<std::string> keep;
  const std::vector<std::uint64_t> points = ProtectedTs();
  if (points.empty()) return keep;
  std::vector<ObjectMeta> listing;
  listing.reserve(wal_objects.size() + db_objects.size() + tail_objects.size());
  for (const auto& id : wal_objects) listing.push_back({id.Encode(), 0});
  for (const auto& id : db_objects) listing.push_back({id.Encode(), 0});
  for (const auto& id : tail_objects) listing.push_back({id.Encode(), 0});
  for (const std::uint64_t point : points) {
    for (const TailPlanItem& item : BuildTailPlan(listing, point).items) {
      keep.insert(item.name);
      keep.insert(item.fallbacks.begin(), item.fallbacks.end());
    }
  }
  return keep;
}

std::vector<RestorePoint> ListRestorePoints(const CloudView& view,
                                            const RetentionPolicy* policy) {
  std::set<std::uint64_t> snapshots;
  if (policy != nullptr) {
    for (const auto ts : policy->ProtectedTs()) snapshots.insert(ts);
  }
  std::vector<RestorePoint> out;
  for (const auto& wal : view.WalObjects()) {
    out.push_back({wal.ts, snapshots.count(wal.ts) > 0});
  }
  // Snapshots whose WAL objects were already pruned by a later checkpoint
  // are still restorable via their kept DB objects.
  for (const auto ts : snapshots) {
    const bool listed = std::any_of(out.begin(), out.end(),
                                    [&](const RestorePoint& p) { return p.ts == ts; });
    if (!listed) out.push_back({ts, true});
  }
  std::sort(out.begin(), out.end(),
            [](const RestorePoint& a, const RestorePoint& b) { return a.ts < b.ts; });
  return out;
}

}  // namespace ginja
