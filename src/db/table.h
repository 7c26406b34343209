// Hash-bucketed heap tables with page-granular dirty tracking.
//
// Rows live in hash buckets; each bucket serialises into exactly one data
// page (8 kB PostgreSQL / 16 kB InnoDB) written at offset bucket×page_size
// of the table's file. When a bucket outgrows its page the table doubles
// its bucket count and redistributes (marking everything dirty — the next
// checkpoint rewrites the file). Every page header carries the flush LSN so
// the loader can resolve the duplicates a crash mid-redistribution can leave
// behind: LoadFile visits pages newest first and lets the buckets keep the
// first copy of each key, so no side map or row copy is needed.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "db/layout.h"
#include "fs/vfs.h"

namespace ginja {

class Table {
 public:
  Table(std::string name, std::uint32_t buckets, std::size_t page_size);

  const std::string& name() const { return name_; }
  std::uint32_t bucket_count() const { return static_cast<std::uint32_t>(buckets_.size()); }
  std::uint64_t row_count() const { return row_count_; }

  // Mutations record the LSN that caused them for fuzzy-checkpoint
  // accounting (first-dirty LSN per bucket).
  void Put(const std::string& key, Bytes value, Lsn lsn);
  bool Delete(const std::string& key, Lsn lsn);
  std::optional<Bytes> Get(const std::string& key) const;

  struct DirtyPage {
    std::uint32_t bucket;
    Lsn first_dirty_lsn;
  };
  // Dirty buckets, oldest first (InnoDB flush-list order).
  std::vector<DirtyPage> DirtyPages() const;
  bool IsDirty() const { return dirty_count_ > 0; }
  // Smallest first-dirty LSN over dirty buckets, or nullopt when clean.
  std::optional<Lsn> OldestDirtyLsn() const;

  // Serialises bucket `b` as one page stamped with `flush_lsn` and clears
  // its dirty mark. The caller writes the page at PageOffset(b).
  Bytes SerializeBucket(std::uint32_t b, Lsn flush_lsn);
  void MarkClean(std::uint32_t b);
  std::uint64_t PageOffset(std::uint32_t b) const { return static_cast<std::uint64_t>(b) * page_size_; }

  // Estimated bytes of live row data (keys+values) — used for the dump
  // threshold and the examples' size reporting.
  std::uint64_t ApproxDataBytes() const { return approx_bytes_; }

  // -- load path ------------------------------------------------------------

  // Fills this empty table from a table file image, touching each row once:
  // rows go straight from the page bytes into their buckets without
  // dirtying anything. Never-written (all-zero header) pages are skipped; a
  // bad used-count, CRC or row framing is Corruption. A crash mid-
  // redistribution can leave a key in two pages; the row from the page with
  // the larger flush LSN wins, and on equal LSNs the lower file offset.
  Status LoadFile(ByteView file);

 private:
  std::uint32_t BucketOf(std::string_view key) const;
  void MarkDirty(std::uint32_t b, Lsn lsn);
  void MaybeSplit();

  std::string name_;
  std::size_t page_size_;
  std::vector<std::map<std::string, Bytes>> buckets_;
  // Per bucket: its first-dirty LSN, or kClean.
  static constexpr Lsn kClean = ~Lsn{0};
  std::vector<Lsn> dirty_;
  std::size_t dirty_count_ = 0;
  std::uint64_t row_count_ = 0;
  std::uint64_t approx_bytes_ = 0;
};

}  // namespace ginja
