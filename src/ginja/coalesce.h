// Batch-formation scratch structures for the commit pipeline.
//
// Coalescing a batch (paper Alg. 2 lines 12-13: last write wins per
// (file, offset)) used to build a fresh std::map per batch — one
// red-black-tree node allocation per write on the hot path. CoalesceTable
// is the replacement: a reusable open-addressed hash table cleared by
// bumping an epoch tag, so steady-state aggregation does zero allocation.
// NameInterner backs the string_views handed to uploaders: WAL file names
// are copied once into chunked storage that never moves, so every
// FileEntryRef can borrow them for the pipeline's whole lifetime.
//
// Both are single-writer structures, used only under the pipeline's
// staging mutex; readers of the interned names synchronize through the
// upload queue hand-off.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace ginja {

// Interns file names into an arena of fixed chunks; returned views stay
// valid until destruction. Lookup is a linear scan, newest name first — a
// database writes one or two live WAL segments at a time, so the hit is
// almost always the last name interned and a hash index would cost more
// than it saves.
class NameInterner {
 public:
  std::string_view Intern(std::string_view name) {
    for (auto it = names_.rbegin(); it != names_.rend(); ++it) {
      if (*it == name) return *it;
    }
    const std::size_t need = name.size();
    if (chunks_.empty() || used_ + need > chunks_.back()->size()) {
      chunks_.push_back(std::make_unique<std::vector<char>>(
          need > kChunkBytes ? need : kChunkBytes));
      used_ = 0;
    }
    char* dst = chunks_.back()->data() + used_;
    std::memcpy(dst, name.data(), need);
    used_ += need;
    names_.emplace_back(dst, need);
    return names_.back();
  }

  std::size_t size() const { return names_.size(); }

 private:
  static constexpr std::size_t kChunkBytes = 4096;
  std::vector<std::unique_ptr<std::vector<char>>> chunks_;
  std::size_t used_ = 0;
  std::vector<std::string_view> names_;
};

// Open-addressed (file, offset) -> value map with last-write-wins upserts.
// Begin() readies it for a batch of `expected` inserts (it grows past
// that as needed); slots from earlier batches are invalidated by the epoch
// bump, not by clearing memory. The keyed string_views must stay alive
// until the next Begin().
class CoalesceTable {
 public:
  static constexpr std::uint32_t kNew = ~std::uint32_t{0};

  void Begin(std::size_t expected) {
    std::size_t want = 16;
    while (want < expected * 2) want <<= 1;
    if (want > slots_.size()) {
      slots_.assign(want, Slot{});
      epoch_ = 0;
    }
    ++epoch_;
    used_.clear();
  }

  // Returns the value the upsert replaced, or kNew for a new key.
  std::uint32_t Upsert(std::string_view file, std::uint64_t offset,
                       std::uint32_t value) {
    if ((used_.size() + 1) * 2 > slots_.size()) Grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Hash(file, offset) & mask;
    for (;;) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s.file = file;
        s.offset = offset;
        s.value = value;
        s.epoch = epoch_;
        used_.push_back(static_cast<std::uint32_t>(i));
        return kNew;
      }
      if (s.offset == offset && s.file == file) {
        return std::exchange(s.value, value);  // last write wins
      }
      i = (i + 1) & mask;
    }
  }

  // Visits survivors in first-insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::uint32_t i : used_) {
      const Slot& s = slots_[i];
      fn(s.file, s.offset, s.value);
    }
  }

  std::size_t Size() const { return used_.size(); }

 private:
  struct Slot {
    std::string_view file;
    std::uint64_t offset = 0;
    std::uint32_t value = 0;
    std::uint64_t epoch = 0;
  };

  static std::size_t Hash(std::string_view file, std::uint64_t offset) {
    std::size_t h = std::hash<std::string_view>{}(file);
    h ^= (offset + 0x9E3779B97F4A7C15ull) + (h << 6) + (h >> 2);
    return h;
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    std::vector<std::uint32_t> live;
    live.swap(used_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    const std::uint64_t src_epoch = epoch_;
    ++epoch_;
    for (const std::uint32_t i : live) {
      Slot& s = old[i];
      if (s.epoch == src_epoch) Upsert(s.file, s.offset, s.value);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> used_;
  std::uint64_t epoch_ = 0;
};

}  // namespace ginja
