#include "cloud/memory_store.h"

namespace ginja {

Status MemoryStore::Put(std::string_view name, ByteView data) {
  // Copy the payload (the expensive part for multi-MB objects) before
  // taking the map lock, so K concurrent PUTs — latency benches with the
  // Instant profile especially — serialize only on the map insert, not on
  // the memcpy.
  auto copy = std::make_shared<const StoredObject>(
      StoredObject{std::string(name), Bytes(data.begin(), data.end())});
  std::lock_guard<std::mutex> lock(mu_);
  objects_.insert_or_assign(copy->name, std::move(copy));
  return Status::Ok();
}

Result<Bytes> MemoryStore::Get(std::string_view name) {
  // Same asymmetry as Put: grab a reference under the lock, copy the
  // payload after releasing it. Values are immutable once inserted, so
  // the copy reads a stable blob even if the name is concurrently
  // overwritten or deleted.
  std::shared_ptr<const StoredObject> blob;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = objects_.find(name);
    if (it == objects_.end()) {
      return Status::NotFound(std::string(name));
    }
    blob = it->second;
  }
  return blob->data;
}

Result<std::vector<ObjectMeta>> MemoryStore::List(std::string_view prefix) {
  return List(prefix, {});
}

Result<std::vector<ObjectMeta>> MemoryStore::List(std::string_view prefix,
                                                  std::string_view start_after) {
  // Collect the matching range as shared_ptrs under the lock; build the
  // ObjectMeta name strings (one allocation + copy per object — the
  // expensive part of a fleet-wide recovery or GC LIST) after releasing
  // it. Each StoredObject carries its own name, so this stays correct even
  // if entries are concurrently deleted or overwritten. The scan starts at
  // upper_bound(start_after) — past every key the caller already consumed
  // — when a cursor is given and is ahead of the prefix start.
  std::vector<std::shared_ptr<const StoredObject>> matched;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = !start_after.empty() && start_after.compare(prefix) >= 0
                  ? objects_.upper_bound(start_after)
                  : objects_.lower_bound(prefix);
    for (; it != objects_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      if (!start_after.empty() && it->first <= start_after) continue;
      matched.push_back(it->second);
    }
  }
  std::vector<ObjectMeta> out;
  out.reserve(matched.size());
  for (const auto& object : matched) {
    out.push_back({object->name, object->data.size()});
  }
  return out;
}

Status MemoryStore::Delete(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  objects_.erase(std::string(name));
  return Status::Ok();
}

std::size_t MemoryStore::ObjectCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return objects_.size();
}

std::uint64_t MemoryStore::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [name, object] : objects_) total += object->data.size();
  return total;
}

void MemoryStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  objects_.clear();
}

}  // namespace ginja
