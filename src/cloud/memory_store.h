// In-memory object store: the reference backend for tests and simulation.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "cloud/object_store.h"

namespace ginja {

class MemoryStore : public ObjectStore {
 public:
  Status Put(std::string_view name, ByteView data) override;
  Result<Bytes> Get(std::string_view name) override;
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override;
  // Native cursor: seeks the ordered map past `start_after` instead of
  // scanning the whole prefix range — the standby's poll loop lists in
  // O(new objects), which BM_MemoryStoreListCursor quantifies.
  Result<std::vector<ObjectMeta>> List(std::string_view prefix,
                                       std::string_view start_after) override;
  Status Delete(std::string_view name) override;

  std::size_t ObjectCount() const;
  std::uint64_t TotalBytes() const;

  // Drops every object; used by tests simulating a fresh bucket.
  void Clear();

 private:
  // Values are shared immutable blobs so Get can copy the payload outside
  // mu_ — only the map lookup serializes (mirror of the Put-side copy).
  // The value carries its own name so List can also build its ObjectMeta
  // strings outside the lock: a collected shared_ptr stays valid even if
  // the map entry (and its key string) is concurrently erased.
  struct StoredObject {
    std::string name;
    Bytes data;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const StoredObject>, std::less<>>
      objects_;
};

}  // namespace ginja
