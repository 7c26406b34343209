#include "db/table.h"

#include <algorithm>
#include <cassert>

#include "common/codec/crc32.h"

namespace ginja {

namespace {

// Page header: crc32 over the rest, used bytes, flush LSN.
constexpr std::size_t kPageHeaderSize = 4 + 4 + 8;

std::uint64_t HashKey(std::string_view key) {
  // FNV-1a: stable across platforms (std::hash is not guaranteed stable).
  std::uint64_t h = 1469598103934665603ull;
  for (char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Table::Table(std::string name, std::uint32_t buckets, std::size_t page_size)
    : name_(std::move(name)), page_size_(page_size) {
  assert(buckets > 0);
  buckets_.resize(buckets);
  dirty_.assign(buckets, kClean);
}

std::uint32_t Table::BucketOf(std::string_view key) const {
  return static_cast<std::uint32_t>(HashKey(key) % buckets_.size());
}

void Table::MarkDirty(std::uint32_t b, Lsn lsn) {
  if (dirty_[b] != kClean) return;  // keeps its first-dirty LSN
  dirty_[b] = lsn;
  ++dirty_count_;
}

void Table::Put(const std::string& key, Bytes value, Lsn lsn) {
  const std::uint32_t b = BucketOf(key);
  auto& bucket = buckets_[b];
  auto it = bucket.find(key);
  if (it == bucket.end()) {
    approx_bytes_ += key.size() + value.size();
    ++row_count_;
    bucket.emplace(key, std::move(value));
  } else {
    approx_bytes_ += value.size();
    approx_bytes_ -= it->second.size();
    it->second = std::move(value);
  }
  MarkDirty(b, lsn);
  MaybeSplit();
}

bool Table::Delete(const std::string& key, Lsn lsn) {
  const std::uint32_t b = BucketOf(key);
  auto& bucket = buckets_[b];
  auto it = bucket.find(key);
  if (it == bucket.end()) return false;
  approx_bytes_ -= key.size() + it->second.size();
  --row_count_;
  bucket.erase(it);
  MarkDirty(b, lsn);
  return true;
}

std::optional<Bytes> Table::Get(const std::string& key) const {
  const auto& bucket = buckets_[BucketOf(key)];
  auto it = bucket.find(key);
  if (it == bucket.end()) return std::nullopt;
  return it->second;
}

std::vector<Table::DirtyPage> Table::DirtyPages() const {
  std::vector<DirtyPage> out;
  out.reserve(dirty_count_);
  for (std::uint32_t b = 0; b < dirty_.size(); ++b) {
    if (dirty_[b] != kClean) out.push_back({b, dirty_[b]});
  }
  std::sort(out.begin(), out.end(), [](const DirtyPage& a, const DirtyPage& b) {
    return a.first_dirty_lsn < b.first_dirty_lsn;
  });
  return out;
}

std::optional<Lsn> Table::OldestDirtyLsn() const {
  if (dirty_count_ == 0) return std::nullopt;
  return *std::min_element(dirty_.begin(), dirty_.end());
}

Bytes Table::SerializeBucket(std::uint32_t b, Lsn flush_lsn) {
  assert(b < buckets_.size());
  Bytes rows;
  for (const auto& [key, value] : buckets_[b]) {
    PutVarint(rows, key.size());
    Append(rows, View(ToBytes(key)));
    PutVarint(rows, value.size());
    Append(rows, View(value));
  }
  assert(kPageHeaderSize + rows.size() <= page_size_ &&
         "bucket overflow must have been split before serialization");

  Bytes page;
  page.reserve(page_size_);
  PutU32(page, 0);  // crc placeholder
  PutU32(page, static_cast<std::uint32_t>(rows.size()));
  PutU64(page, flush_lsn);
  Append(page, View(rows));
  page.resize(page_size_, 0);
  const std::uint32_t crc = Crc32(ByteView(page.data() + 4, page.size() - 4));
  page[0] = static_cast<std::uint8_t>(crc);
  page[1] = static_cast<std::uint8_t>(crc >> 8);
  page[2] = static_cast<std::uint8_t>(crc >> 16);
  page[3] = static_cast<std::uint8_t>(crc >> 24);
  return page;
}

void Table::MarkClean(std::uint32_t b) {
  if (dirty_[b] == kClean) return;
  dirty_[b] = kClean;
  --dirty_count_;
}

void Table::MaybeSplit() {
  // Estimate the worst-case serialized bucket size cheaply: if average
  // bytes-per-bucket crosses half the page payload, double the buckets.
  // Individual hot buckets are checked exactly at serialization time via
  // the assert; the conservative threshold keeps that assert unreachable
  // under uniform-ish hashing.
  const std::size_t payload = page_size_ - kPageHeaderSize;
  if (approx_bytes_ + row_count_ * 10 < buckets_.size() * payload / 4) return;

  std::vector<std::map<std::string, Bytes>> next(buckets_.size() * 2);
  for (auto& bucket : buckets_) {
    for (auto& [key, value] : bucket) {
      next[HashKey(key) % next.size()].emplace(key, std::move(value));
    }
  }
  buckets_ = std::move(next);
  // Everything is dirty after redistribution: the next checkpoint rewrites
  // the whole file. LSN 0 forces these pages to flush first.
  dirty_.assign(buckets_.size(), 0);
  dirty_count_ = buckets_.size();
}

Status Table::LoadFile(ByteView file) {
  assert(row_count_ == 0 && "LoadFile fills an empty table");
  // Pass 1: validate every page in file order and note where the written
  // ones are.
  struct PageRef {
    Lsn flush_lsn;
    std::size_t offset;
  };
  std::vector<PageRef> pages;
  pages.reserve(file.size() / page_size_);
  for (std::size_t off = 0; off + page_size_ <= file.size(); off += page_size_) {
    const std::uint8_t* page = file.data() + off;
    const std::uint32_t stored_crc = GetU32(page);
    const std::uint32_t used = GetU32(page + 4);
    if (used == 0 && stored_crc == 0) continue;  // never-written page
    if (used > page_size_ - kPageHeaderSize) {
      return Status::Corruption("table page used-count overflow");
    }
    if (Crc32(ByteView(page + 4, page_size_ - 4)) != stored_crc) {
      return Status::Corruption("table page crc mismatch");
    }
    pages.push_back({GetU64(page + 8), off});
  }

  // Pass 2: newest page first (stable, so equal LSNs keep file order); the
  // first copy of a key to reach its bucket is the one that stays.
  std::stable_sort(pages.begin(), pages.end(),
                   [](const PageRef& a, const PageRef& b) {
                     return a.flush_lsn > b.flush_lsn;
                   });
  for (const PageRef& ref : pages) {
    const std::uint8_t* page = file.data() + ref.offset;
    const ByteView payload(page + kPageHeaderSize, GetU32(page + 4));
    std::size_t pos = 0;
    while (pos < payload.size()) {
      auto klen = GetVarint(payload, pos);
      if (!klen || pos + *klen > payload.size()) {
        return Status::Corruption("table row key truncated");
      }
      const std::string_view key(reinterpret_cast<const char*>(payload.data() + pos),
                                 *klen);
      pos += *klen;
      auto vlen = GetVarint(payload, pos);
      if (!vlen || pos + *vlen > payload.size()) {
        return Status::Corruption("table row value truncated");
      }
      const std::uint8_t* value = payload.data() + pos;
      pos += *vlen;

      const bool inserted = buckets_[BucketOf(key)]
                                .try_emplace(std::string(key), value, value + *vlen)
                                .second;
      if (!inserted) continue;  // a newer copy of this row is already loaded
      ++row_count_;
      approx_bytes_ += key.size() + *vlen;
      MaybeSplit();
    }
  }
  return Status::Ok();
}

}  // namespace ginja
