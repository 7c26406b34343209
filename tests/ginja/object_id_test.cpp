#include <gtest/gtest.h>

#include "ginja/cloud_view.h"
#include "ginja/object_id.h"
#include "ginja/payload.h"

namespace ginja {
namespace {

TEST(WalObjectId, EncodeDecodeRoundTrip) {
  WalObjectId id;
  id.ts = 42;
  id.filename = "pg_xlog/000000010000000000000003";
  id.offset = 81920;
  id.max_lsn = 123456;
  const std::string name = id.Encode();
  EXPECT_TRUE(name.starts_with("WAL/42_"));
  auto back = WalObjectId::Decode(name);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ts, 42u);
  EXPECT_EQ(back->filename, id.filename);
  EXPECT_EQ(back->offset, 81920u);
  EXPECT_EQ(back->max_lsn, 123456u);
}

TEST(WalObjectId, SlashesEscaped) {
  WalObjectId id;
  id.filename = "pg_xlog/0001";
  const std::string name = id.Encode();
  // Only the WAL/ prefix may contain a slash (flat object keys otherwise).
  EXPECT_EQ(name.find('/', 4), std::string::npos);
}

TEST(WalObjectId, FilenameWithUnderscoresSurvives) {
  WalObjectId id;
  id.ts = 7;
  id.filename = "ib_logfile1";
  id.offset = 512;
  id.max_lsn = 99;
  auto back = WalObjectId::Decode(id.Encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->filename, "ib_logfile1");
}

TEST(WalObjectId, RejectsGarbage) {
  EXPECT_FALSE(WalObjectId::Decode("WAL/").has_value());
  EXPECT_FALSE(WalObjectId::Decode("WAL/notanumber_x_0_0").has_value());
  EXPECT_FALSE(WalObjectId::Decode("DB/1_dump_0_s0_l0_p0of1").has_value());
  EXPECT_FALSE(WalObjectId::Decode("").has_value());
}

TEST(DbObjectId, EncodeDecodeRoundTrip) {
  DbObjectId id;
  id.ts = 100;
  id.type = DbObjectType::kDump;
  id.size = 1234567;
  id.seq = 9;
  id.redo_lsn = 777;
  id.part = 2;
  id.total_parts = 5;
  auto back = DbObjectId::Decode(id.Encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ts, 100u);
  EXPECT_EQ(back->type, DbObjectType::kDump);
  EXPECT_EQ(back->size, 1234567u);
  EXPECT_EQ(back->seq, 9u);
  EXPECT_EQ(back->redo_lsn, 777u);
  EXPECT_EQ(back->part, 2u);
  EXPECT_EQ(back->total_parts, 5u);
}

TEST(DbObjectId, CheckpointType) {
  DbObjectId id;
  id.type = DbObjectType::kCheckpoint;
  auto back = DbObjectId::Decode(id.Encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, DbObjectType::kCheckpoint);
}

TEST(DbObjectId, RejectsBadPartCounts) {
  EXPECT_FALSE(DbObjectId::Decode("DB/1_dump_10_s0_l0_p3of2").has_value());
  EXPECT_FALSE(DbObjectId::Decode("DB/1_dump_10_s0_l0_p0of0").has_value());
  EXPECT_FALSE(DbObjectId::Decode("DB/1_blob_10_s0_l0_p0of1").has_value());
  EXPECT_FALSE(DbObjectId::Decode("DB/1_dump_10_s0_p0of1").has_value());  // missing redo lsn
}

// Only the spelling Encode() writes decodes: a second spelling of the same
// id would make recovery GET, and GC DELETE, a name that does not exist.
TEST(WalObjectId, RejectsNonCanonicalSpellings) {
  EXPECT_TRUE(WalObjectId::Decode("WAL/7_pg_xlog|0001_0_100").has_value());
  EXPECT_FALSE(WalObjectId::Decode("WAL/07_pg_xlog|0001_0_100").has_value());
  EXPECT_FALSE(WalObjectId::Decode("WAL/7_pg_xlog|0001_00_100").has_value());
  EXPECT_FALSE(WalObjectId::Decode("WAL/7_pg_xlog|0001_0_0100").has_value());
  EXPECT_FALSE(WalObjectId::Decode("WAL/_pg_xlog|0001_0_100").has_value());
  // A raw '/' would re-encode as '|'.
  EXPECT_FALSE(WalObjectId::Decode("WAL/7_pg_xlog/0001_0_100").has_value());
}

TEST(TailObjectId, RejectsNonCanonicalSpellings) {
  const auto ok = TailObjectId::Decode("WALTAIL/3_1_0_100");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->Encode(), "WALTAIL/3_1_0_100");
  // seg 2^32 + 1 must not wrap to seg 1.
  EXPECT_FALSE(TailObjectId::Decode("WALTAIL/3_4294967297_0_100").has_value());
  EXPECT_FALSE(TailObjectId::Decode("WALTAIL/3_0_4294967296_100").has_value());
  EXPECT_TRUE(TailObjectId::Decode("WALTAIL/3_4294967295_0_100").has_value());
  EXPECT_FALSE(TailObjectId::Decode("WALTAIL/03_1_0_100").has_value());
  EXPECT_FALSE(TailObjectId::Decode("WALTAIL/3_01_0_100").has_value());
}

TEST(DbObjectId, RejectsNonCanonicalSpellings) {
  EXPECT_TRUE(DbObjectId::Decode("DB/1_dump_10_s0_l0_p0of2").has_value());
  // 2^32 + 2 parts must not wrap to 2.
  EXPECT_FALSE(
      DbObjectId::Decode("DB/1_dump_10_s0_l0_p0of4294967298").has_value());
  EXPECT_FALSE(
      DbObjectId::Decode("DB/1_dump_10_s0_l0_p4294967296of4294967297").has_value());
  EXPECT_FALSE(DbObjectId::Decode("DB/01_dump_10_s0_l0_p0of2").has_value());
  EXPECT_FALSE(DbObjectId::Decode("DB/1_dump_010_s0_l0_p0of2").has_value());
  EXPECT_FALSE(DbObjectId::Decode("DB/1_dump_10_s00_l0_p0of2").has_value());
  EXPECT_FALSE(DbObjectId::Decode("DB/1_dump_10_s0_l00_p0of2").has_value());
  EXPECT_FALSE(DbObjectId::Decode("DB/1_dump_10_s0_l0_p00of2").has_value());
  EXPECT_FALSE(DbObjectId::Decode("DB/1_dump_10_s0_l0_p0of02").has_value());
  EXPECT_FALSE(DbObjectId::Decode("DB/1_dump__s0_l0_p0of2").has_value());
}

TEST(EscapePath, RoundTrip) {
  EXPECT_EQ(UnescapePath(EscapePath("a/b/c_d")), "a/b/c_d");
  EXPECT_EQ(EscapePath("a/b"), "a|b");
}

// -- payload --------------------------------------------------------------------

TEST(Payload, EncodeDecodeEntries) {
  std::vector<FileEntry> entries;
  entries.push_back({"pg_xlog/0001", 8192, ToBytes("page-content")});
  entries.push_back({"base/16384/t", 0, Bytes(1000, 0xAB)});
  entries.push_back({"empty", 5, {}});
  const Bytes payload = EncodeEntries(entries);
  auto back = DecodeEntries(View(payload));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 3u);
  EXPECT_EQ((*back)[0].path, "pg_xlog/0001");
  EXPECT_EQ((*back)[0].offset, 8192u);
  EXPECT_EQ(ToString((*back)[0].data), "page-content");
  EXPECT_EQ((*back)[1].data.size(), 1000u);
  EXPECT_TRUE((*back)[2].data.empty());
}

TEST(Payload, EmptyList) {
  auto back = DecodeEntries(View(EncodeEntries({})));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(Payload, RejectsTruncated) {
  std::vector<FileEntry> entries = {{"f", 0, Bytes(100, 1)}};
  Bytes payload = EncodeEntries(entries);
  payload.resize(payload.size() - 10);
  EXPECT_FALSE(DecodeEntries(View(payload)).ok());
}

// -- CloudView ---------------------------------------------------------------------

TEST(CloudView, TimestampsAreMonotone) {
  CloudView view;
  EXPECT_FALSE(view.LastAssignedWalTs().has_value());
  EXPECT_EQ(view.NextWalTs(), 0u);
  EXPECT_EQ(view.NextWalTs(), 1u);
  EXPECT_EQ(view.LastAssignedWalTs(), 1u);
}

TEST(CloudView, AddFromNameRebuildsIndex) {
  CloudView view;
  WalObjectId wal;
  wal.ts = 5;
  wal.filename = "pg_xlog/0001";
  wal.max_lsn = 100;
  DbObjectId db;
  db.seq = 3;
  db.ts = 4;
  db.size = 999;
  EXPECT_TRUE(view.AddFromName(wal.Encode()));
  EXPECT_TRUE(view.AddFromName(db.Encode()));
  EXPECT_FALSE(view.AddFromName("random-object"));
  EXPECT_EQ(view.WalCount(), 1u);
  EXPECT_EQ(view.DbCount(), 1u);
  EXPECT_EQ(view.TotalDbBytes(), 999u);
  // Counters resume past what was listed (reboot semantics).
  EXPECT_EQ(view.NextWalTs(), 6u);
  EXPECT_EQ(view.NextCheckpointSeq(), 4u);
}

TEST(CloudView, CoveredByIsPrefixInTs) {
  CloudView view;
  for (std::uint64_t i = 0; i < 5; ++i) {
    WalObjectId id;
    id.ts = i;
    id.filename = "f";
    id.max_lsn = (i + 1) * 100;  // monotone, as the pipeline guarantees
    view.AddWal(id);
  }
  const auto covered = view.WalObjectsCoveredBy(250);
  ASSERT_EQ(covered.size(), 2u);
  EXPECT_EQ(covered[0].ts, 0u);
  EXPECT_EQ(covered[1].ts, 1u);
}

TEST(CloudView, RemoveUpdatesCounts) {
  CloudView view;
  WalObjectId id;
  id.ts = 1;
  id.filename = "f";
  view.AddWal(id);
  view.RemoveWal(1);
  EXPECT_EQ(view.WalCount(), 0u);
  // The ts counter does not go backwards.
  EXPECT_EQ(view.NextWalTs(), 2u);
}

}  // namespace
}  // namespace ginja
