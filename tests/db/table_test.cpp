#include <gtest/gtest.h>

#include "db/table.h"

namespace ginja {
namespace {

TEST(Table, PutGetDelete) {
  Table t("t", 8, 8192);
  t.Put("k1", ToBytes("v1"), 10);
  t.Put("k2", ToBytes("v2"), 11);
  EXPECT_EQ(t.row_count(), 2u);
  ASSERT_TRUE(t.Get("k1").has_value());
  EXPECT_EQ(ToString(View(*t.Get("k1"))), "v1");
  EXPECT_FALSE(t.Get("k3").has_value());
  EXPECT_TRUE(t.Delete("k1", 12));
  EXPECT_FALSE(t.Delete("k1", 13));
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_FALSE(t.Get("k1").has_value());
}

TEST(Table, OverwriteKeepsRowCount) {
  Table t("t", 8, 8192);
  t.Put("k", ToBytes("v1"), 1);
  t.Put("k", ToBytes("v2-longer"), 2);
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(ToString(View(*t.Get("k"))), "v2-longer");
}

TEST(Table, DirtyTrackingRecordsFirstLsn) {
  Table t("t", 4, 8192);
  EXPECT_FALSE(t.IsDirty());
  t.Put("a", ToBytes("1"), 100);
  t.Put("a", ToBytes("2"), 200);  // same bucket: first-dirty stays 100
  ASSERT_TRUE(t.IsDirty());
  const auto dirty = t.DirtyPages();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].first_dirty_lsn, 100u);
  EXPECT_EQ(t.OldestDirtyLsn(), 100u);
}

TEST(Table, MarkCleanClearsDirty) {
  Table t("t", 4, 8192);
  t.Put("a", ToBytes("1"), 1);
  const auto dirty = t.DirtyPages();
  ASSERT_EQ(dirty.size(), 1u);
  t.MarkClean(dirty[0].bucket);
  EXPECT_FALSE(t.IsDirty());
  EXPECT_FALSE(t.OldestDirtyLsn().has_value());
}

// Lays `pages` out back to back as one table file image.
Bytes FileOf(const std::vector<Bytes>& pages) {
  Bytes file;
  for (const Bytes& page : pages) Append(file, View(page));
  return file;
}

TEST(Table, SerializeAndParseRoundTrip) {
  const std::size_t page_size = 8192;
  Table t("t", 2, page_size);
  for (int i = 0; i < 50; ++i) {
    t.Put("key" + std::to_string(i), ToBytes("value" + std::to_string(i)), 5);
  }
  // Build a file image: every bucket's page at bucket*page_size.
  Bytes file(t.bucket_count() * page_size, 0);
  for (std::uint32_t b = 0; b < t.bucket_count(); ++b) {
    const Bytes page = t.SerializeBucket(b, /*flush_lsn=*/42);
    std::copy(page.begin(), page.end(),
              file.begin() + static_cast<long>(t.PageOffset(b)));
  }
  Table loaded("t", 2, page_size);
  ASSERT_TRUE(loaded.LoadFile(View(file)).ok());
  EXPECT_EQ(loaded.row_count(), 50u);
  EXPECT_EQ(loaded.ApproxDataBytes(), t.ApproxDataBytes());
  EXPECT_FALSE(loaded.IsDirty());  // loading dirties nothing
  for (int i = 0; i < 50; ++i) {
    auto v = loaded.Get("key" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(ToString(View(*v)), "value" + std::to_string(i));
  }
}

TEST(Table, ParseSkipsNeverWrittenPages) {
  const std::size_t page_size = 8192;
  Table t("t", 4, page_size);
  t.Put("only", ToBytes("row"), 1);
  Bytes file(4 * page_size, 0);  // three pages remain all-zero
  const auto dirty = t.DirtyPages();
  ASSERT_EQ(dirty.size(), 1u);
  const Bytes page = t.SerializeBucket(dirty[0].bucket, 7);
  std::copy(page.begin(), page.end(),
            file.begin() + static_cast<long>(t.PageOffset(dirty[0].bucket)));
  Table loaded("t", 4, page_size);
  ASSERT_TRUE(loaded.LoadFile(View(file)).ok());
  EXPECT_EQ(loaded.row_count(), 1u);
  EXPECT_EQ(ToString(View(*loaded.Get("only"))), "row");
}

TEST(Table, ParseRejectsCorruptPage) {
  const std::size_t page_size = 8192;
  Table t("t", 1, page_size);
  t.Put("k", ToBytes("v"), 1);
  Bytes file = t.SerializeBucket(0, 1);
  file[100] ^= 0xFF;
  Table loaded("t", 1, page_size);
  const Status st = loaded.LoadFile(View(file));
  EXPECT_EQ(st.code(), ErrorCode::kCorruption);
}

TEST(Table, LoadFileRejectsCorruptPageAfterValidOnes) {
  // Every page is checked before any row is trusted: a bad CRC on the last
  // page fails the load even though the pages before it are valid.
  const std::size_t page_size = 8192;
  Table t("t", 4, page_size);
  for (int i = 0; i < 40; ++i) t.Put("k" + std::to_string(i), ToBytes("v"), 1);
  std::vector<Bytes> pages;
  for (std::uint32_t b = 0; b < t.bucket_count(); ++b) {
    pages.push_back(t.SerializeBucket(b, 9));
  }
  pages.back()[page_size - 1] ^= 0x01;
  Table loaded("t", 4, page_size);
  const Status st = loaded.LoadFile(View(FileOf(pages)));
  EXPECT_EQ(st.code(), ErrorCode::kCorruption);
}

TEST(Table, DuplicateKeysResolvedByFlushLsn) {
  // Simulates the file state after a crash mid-redistribution: the same key
  // appears in two pages; the one with the larger flush LSN must win.
  const std::size_t page_size = 8192;
  Table old_location("t", 1, page_size);
  old_location.Put("k", ToBytes("stale"), 1);
  Table new_location("t", 1, page_size);
  new_location.Put("k", ToBytes("fresh"), 2);
  const Bytes stale_page = old_location.SerializeBucket(0, /*flush_lsn=*/10);
  const Bytes fresh_page = new_location.SerializeBucket(0, /*flush_lsn=*/20);

  // In both page orders.
  for (const Bytes& file : {FileOf({stale_page, fresh_page}),
                            FileOf({fresh_page, stale_page})}) {
    Table loaded("t", 1, page_size);
    ASSERT_TRUE(loaded.LoadFile(View(file)).ok());
    EXPECT_EQ(loaded.row_count(), 1u);
    EXPECT_EQ(loaded.ApproxDataBytes(), 1u + 5u);
    EXPECT_EQ(ToString(View(*loaded.Get("k"))), "fresh");
  }
}

TEST(Table, LoadFileTieGoesToLowestOffset) {
  // Equal flush LSNs: the copy in the page at the lower file offset wins.
  const std::size_t page_size = 8192;
  Table first("t", 1, page_size);
  first.Put("k", ToBytes("first"), 1);
  first.Put("only-first", ToBytes("a"), 1);
  Table second("t", 1, page_size);
  second.Put("k", ToBytes("second"), 1);
  second.Put("only-second", ToBytes("b"), 1);
  const Bytes file = FileOf({first.SerializeBucket(0, 30), second.SerializeBucket(0, 30)});

  Table loaded("t", 1, page_size);
  ASSERT_TRUE(loaded.LoadFile(View(file)).ok());
  EXPECT_EQ(loaded.row_count(), 3u);
  EXPECT_EQ(ToString(View(*loaded.Get("k"))), "first");
  EXPECT_TRUE(loaded.Get("only-first").has_value());
  EXPECT_TRUE(loaded.Get("only-second").has_value());
}

TEST(Table, SplitsWhenBucketsFill) {
  Table t("t", 2, 1024);  // tiny pages force splits
  const std::uint32_t before = t.bucket_count();
  for (int i = 0; i < 200; ++i) {
    t.Put("key-" + std::to_string(i), Bytes(40, 'x'), 1);
  }
  EXPECT_GT(t.bucket_count(), before);
  EXPECT_EQ(t.row_count(), 200u);
  // Every row survives the redistribution.
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(t.Get("key-" + std::to_string(i)).has_value()) << i;
  }
  // Everything is dirty (the whole file must be rewritten).
  EXPECT_EQ(t.DirtyPages().size(), t.bucket_count());
}

TEST(Table, SerializeAllBucketsAfterSplitFits) {
  Table t("t", 2, 1024);
  for (int i = 0; i < 500; ++i) {
    t.Put("k" + std::to_string(i), Bytes(30, 'y'), 1);
  }
  for (std::uint32_t b = 0; b < t.bucket_count(); ++b) {
    const Bytes page = t.SerializeBucket(b, 1);
    EXPECT_EQ(page.size(), 1024u);
  }
}

TEST(Table, ApproxBytesTracksData) {
  Table t("t", 8, 8192);
  EXPECT_EQ(t.ApproxDataBytes(), 0u);
  t.Put("abc", Bytes(100, 'x'), 1);
  EXPECT_EQ(t.ApproxDataBytes(), 103u);
  t.Put("abc", Bytes(50, 'x'), 2);
  EXPECT_EQ(t.ApproxDataBytes(), 53u);
  t.Delete("abc", 3);
  EXPECT_EQ(t.ApproxDataBytes(), 0u);
}

}  // namespace
}  // namespace ginja
