// Corruption fuzzing: random bit flips anywhere in the recovery inputs
// must never crash, hang, or silently yield wrong data — they are either
// detected (MAC/CRC) or truncate the recoverable tail cleanly.
#include <gtest/gtest.h>

#include "cloud/memory_store.h"
#include "common/codec/lzh.h"
#include "common/codec/lzss.h"
#include "common/rng.h"
#include "db/database.h"
#include "db/wal.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"
#include "ginja/ginja.h"

namespace ginja {
namespace {

class CorruptionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorruptionFuzz, CloudObjectBitFlipsAreDetectedOrTruncate) {
  SplitMix64 rng(GetParam());

  // Build a healthy backup.
  auto clock = std::make_shared<RealClock>();
  auto local = std::make_shared<MemFs>();
  auto intercept = std::make_shared<InterceptFs>(local, clock);
  auto store = std::make_shared<MemoryStore>();
  const DbLayout layout = DbLayout::Postgres();

  GinjaConfig config;
  config.batch = 4;
  config.safety = 64;
  config.batch_timeout_us = 10'000;
  Database db(intercept, layout);
  ASSERT_TRUE(db.Create().ok());
  ASSERT_TRUE(db.CreateTable("t").ok());
  Ginja ginja(local, store, clock, layout, config);
  ASSERT_TRUE(ginja.Boot().ok());
  intercept->SetListener(&ginja);
  for (int i = 0; i < 50; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Put(txn, "t", "k" + std::to_string(i),
                       ToBytes("v" + std::to_string(i)))
                    .ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }
  ginja.Stop();

  // Flip a random bit in a random object.
  auto objects = store->List("");
  ASSERT_TRUE(objects.ok());
  ASSERT_FALSE(objects->empty());
  const auto& victim = (*objects)[rng.NextBelow(objects->size())];
  auto blob = store->Get(victim.name);
  ASSERT_TRUE(blob.ok());
  if (blob->empty()) return;
  (*blob)[rng.NextBelow(blob->size())] ^=
      static_cast<std::uint8_t>(1u << rng.NextBelow(8));
  ASSERT_TRUE(store->Put(victim.name, View(*blob)).ok());

  // Recovery must terminate; a corrupt WAL object truncates the tail, a
  // corrupt DB object fails loudly — never a silent wrong answer.
  auto machine = std::make_shared<MemFs>();
  RecoveryReport report;
  Status st = Ginja::Recover(store, config, layout, machine, &report);
  if (!st.ok()) {
    EXPECT_EQ(st.code(), ErrorCode::kCorruption) << st.ToString();
    return;  // detected: good
  }
  if (victim.name.starts_with("WAL/")) {
    EXPECT_TRUE(report.gap_detected);  // tail truncated at the bad object
  }
  // Whatever was recovered must still be a valid, openable prefix.
  Database recovered(machine, layout);
  ASSERT_TRUE(recovered.Open().ok());
  int prefix = 0;
  while (recovered.Get("t", "k" + std::to_string(prefix)).has_value()) ++prefix;
  for (int i = prefix; i < 50; ++i) {
    EXPECT_FALSE(recovered.Get("t", "k" + std::to_string(i)).has_value());
  }
  for (int i = 0; i < prefix; ++i) {
    EXPECT_EQ(ToString(View(*recovered.Get("t", "k" + std::to_string(i)))),
              "v" + std::to_string(i));
  }
}

TEST_P(CorruptionFuzz, LocalWalBitFlipsTruncateReplayCleanly) {
  SplitMix64 rng(GetParam() ^ 0x5EED);
  const DbLayout layout =
      rng.NextBelow(2) == 0 ? DbLayout::Postgres() : DbLayout::MySql();
  auto fs = std::make_shared<MemFs>();
  Database db(fs, layout);
  ASSERT_TRUE(db.Create().ok());
  ASSERT_TRUE(db.CreateTable("t").ok());
  for (int i = 0; i < 60; ++i) {
    auto txn = db.Begin();
    ASSERT_TRUE(db.Put(txn, "t", "k" + std::to_string(i), Bytes(100, 'x')).ok());
    ASSERT_TRUE(db.Commit(txn).ok());
  }

  // Flip a bit in a random WAL file position.
  auto files = fs->ListFiles(layout.flavor == DbFlavor::kPostgres ? "pg_xlog/"
                                                                  : "ib_logfile");
  ASSERT_TRUE(files.ok());
  ASSERT_FALSE(files->empty());
  const std::string& victim = (*files)[rng.NextBelow(files->size())];
  auto content = fs->ReadAll(victim);
  ASSERT_TRUE(content.ok());
  (*content)[rng.NextBelow(content->size())] ^=
      static_cast<std::uint8_t>(1u << rng.NextBelow(8));
  ASSERT_TRUE(fs->Write(victim, 0, View(*content), false).ok());

  // Crash recovery must not crash and must yield a key prefix.
  Database recovered(fs, layout);
  Status st = recovered.Open();
  if (!st.ok()) return;  // detected corruption in table/catalog pages: fine
  int prefix = 0;
  while (recovered.Get("t", "k" + std::to_string(prefix)).has_value()) ++prefix;
  for (int i = prefix; i < 60; ++i) {
    EXPECT_FALSE(recovered.Get("t", "k" + std::to_string(i)).has_value());
  }
}

TEST_P(CorruptionFuzz, LzssNeverCrashesOnRandomInput) {
  SplitMix64 rng(GetParam() * 31 + 7);
  Bytes garbage(rng.NextInRange(1, 4096));
  for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.Next());
  // Must return either a valid buffer or nullopt — never crash/hang.
  (void)Lzss::Decompress(View(garbage));

  // And flipped-bit compressed streams must never round-trip wrongly *and*
  // claim the original size.
  Bytes data(512);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.NextBelow(4));
  Bytes compressed = Lzss::Compress(View(data));
  compressed[rng.NextBelow(compressed.size())] ^=
      static_cast<std::uint8_t>(1u << rng.NextBelow(8));
  auto result = Lzss::Decompress(View(compressed));
  if (result) {
    // A lucky flip may still decode; the envelope MAC exists precisely to
    // catch this. Here we only require sane output size.
    EXPECT_LE(result->size(), 16u * 1024u);
  }
}

TEST_P(CorruptionFuzz, LzhNeverCrashesOnRandomInput) {
  SplitMix64 rng(GetParam() * 37 + 11);
  Bytes garbage(rng.NextInRange(1, 4096));
  for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.Next());
  (void)Lzh::Decompress(View(garbage));
  // A garbage body behind a plausible size header and Huffman block header.
  Bytes framed;
  PutVarint(framed, 512);
  framed.push_back(0);
  PutVarint(framed, 512);
  PutVarint(framed, garbage.size());
  Append(framed, View(garbage));
  (void)Lzh::Decompress(View(framed));

  Bytes data(512);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.NextBelow(4));
  Bytes compressed = Lzh::Compress(View(data));
  compressed[rng.NextBelow(compressed.size())] ^=
      static_cast<std::uint8_t>(1u << rng.NextBelow(8));
  auto result = Lzh::Decompress(View(compressed));
  if (result) {
    EXPECT_LE(result->size(), compressed.size() * Lzh::kMaxExpansion);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionFuzz, ::testing::Range<std::uint64_t>(1, 11),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ginja
