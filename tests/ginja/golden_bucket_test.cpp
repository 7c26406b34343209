// Golden-bucket oracle: the exact bytes every upload mode leaves in the
// bucket, frozen as constants.
//
// A fixed, seeded workload runs through each mode the commit and checkpoint
// pipelines support, and the test compares the final bucket — sorted object
// names and the SHA-1 of each object's bytes — plus, for the commit modes
// whose acks are ordered, the trace of frontier values the unlocker
// published. Any refactor of who owns the upload threads, retries or
// transfer pools must leave all of it byte-identical.
//
// Determinism: one uploader, a TB that never fires (batches close only at
// B writes), and S == B, so at most one batch is ever unacknowledged and
// acks — hence frontier advances — arrive in batch order. 300 writes fill
// exactly 12 batches, so no stop-time flush is involved.
//
// Suite name starts with "Golden" so the sanitizer CI filters can pick it
// out.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/memory_store.h"
#include "common/codec/sha1.h"
#include "fs/mem_fs.h"
#include "ginja/checkpoint_pipeline.h"
#include "ginja/commit_pipeline.h"

namespace ginja {
namespace {

using Bucket = std::vector<std::pair<std::string, std::string>>;  // name, sha1

constexpr int kWrites = 300;

// Deterministic, partly compressible bytes: a repeating 13-byte motif
// perturbed by a seeded LCG every few bytes.
Bytes Pattern(std::size_t size, std::uint32_t seed) {
  Bytes out(size);
  std::uint32_t x = seed * 2654435761u + 1;
  for (std::size_t i = 0; i < size; ++i) {
    if (i % 5 == 0) x = x * 1664525u + 1013904223u;
    out[i] = static_cast<std::uint8_t>((i % 13) * 7 + (x >> 28));
  }
  return out;
}

GinjaConfig GoldenConfig() {
  GinjaConfig config;
  config.batch = 25;
  config.batch_timeout_us = 3'600'000'000;  // never fires
  config.safety = 25;
  config.uploader_threads = 1;
  config.envelope.compress = true;
  config.envelope.encrypt = true;
  config.envelope.password = "golden-bucket";
  return config;
}

Bucket Snapshot(ObjectStore& store) {
  Bucket bucket;
  auto objects = store.List("");
  EXPECT_TRUE(objects.ok());
  if (!objects.ok()) return bucket;
  for (const auto& meta : *objects) {
    auto blob = store.Get(meta.name);
    EXPECT_TRUE(blob.ok()) << meta.name;
    if (!blob.ok()) continue;
    const Sha1::Digest d = Sha1::Hash(View(*blob));
    bucket.emplace_back(meta.name, ToHex(ByteView(d.data(), d.size())));
  }
  std::sort(bucket.begin(), bucket.end());
  return bucket;
}

// Copy-pasteable rendering, so a mismatch prints the new constants.
std::string Render(const Bucket& bucket) {
  std::string out;
  for (const auto& [name, digest] : bucket) {
    out += "      {\"" + name + "\",\n       \"" + digest + "\"},\n";
  }
  return out;
}

std::string Render(const std::vector<Lsn>& trace) {
  std::string out;
  for (Lsn lsn : trace) out += std::to_string(lsn) + ", ";
  return out;
}

struct CommitRun {
  Bucket bucket;
  std::vector<Lsn> trace;
};

// The fixed submit trace: three WAL files, seven pages each, so batches
// coalesce page rewrites; max_lsn grows by 10 per write.
CommitRun RunCommit(const GinjaConfig& config) {
  CommitRun run;
  auto store = std::make_shared<MemoryStore>();
  {
    auto envelope = std::make_shared<Envelope>(config.envelope);
    CommitPipeline pipeline(store, std::make_shared<CloudView>(),
                            std::make_shared<RealClock>(), config, envelope);
    pipeline.SetFrontierListener(
        [&] { run.trace.push_back(pipeline.UploadedWalFrontier()); });
    pipeline.Start();
    for (int i = 0; i < kWrites; ++i) {
      WalWrite w;
      w.file = "pg_xlog/00000001000000000000000" + std::to_string(i % 3);
      w.offset = static_cast<std::uint64_t>(i % 7) * 8192;
      w.data = Pattern(512 + static_cast<std::size_t>(i % 5) * 64,
                       static_cast<std::uint32_t>(i));
      w.max_lsn = static_cast<std::uint64_t>(i + 1) * 10;
      pipeline.Submit(std::move(w));
    }
    pipeline.Stop();
  }  // destroyed: background folded-tail deletes have drained
  run.bucket = Snapshot(*store);
  return run;
}

const std::vector<Lsn> kBatchFrontiers = {
    250, 500, 750, 1000, 1250, 1500, 1750, 2000, 2250, 2500, 2750, 3000};

TEST(GoldenBucket, BufferedCommit) {
  const CommitRun run = RunCommit(GoldenConfig());
  const Bucket expected = {
      {"WAL/0_pg_xlog|000000010000000000000001_0_230",
       "5475b51222fcd85c350b442682af7ecb8e6a6b26"},
      {"WAL/10_pg_xlog|000000010000000000000002_0_990",
       "f20a45d91772305f3f47a6c5541f50a02ced24d6"},
      {"WAL/11_pg_xlog|000000010000000000000000_0_1000",
       "ffa9c728ee43ab8fcd673d18841a5eba7bfe9414"},
      {"WAL/12_pg_xlog|000000010000000000000002_0_1230",
       "f51dd36ab788ef7fdee5dbefea34557015001de5"},
      {"WAL/13_pg_xlog|000000010000000000000000_0_1240",
       "8b7519ed1e6da7642810a2197d1bd86859af3271"},
      {"WAL/14_pg_xlog|000000010000000000000001_0_1250",
       "23f1536b147f1b1c9e948efc61103fe9f29482ce"},
      {"WAL/15_pg_xlog|000000010000000000000000_0_1480",
       "e9c00f638dac5dfc0b8f67140c119e790aaf0288"},
      {"WAL/16_pg_xlog|000000010000000000000001_0_1490",
       "17078c261748e26f80e552ea08322abba3fc7298"},
      {"WAL/17_pg_xlog|000000010000000000000002_0_1500",
       "dc484e9eb30b1bb38ed91e08f3a919f0a59d884a"},
      {"WAL/18_pg_xlog|000000010000000000000001_0_1730",
       "e7859daee8ca677a0037b0f5840fbd0ee84b04b6"},
      {"WAL/19_pg_xlog|000000010000000000000002_0_1740",
       "438d36ea35a056ec1a645f6528a61c73d21f74cf"},
      {"WAL/1_pg_xlog|000000010000000000000002_0_240",
       "7a039d449acc0cb92e27e1f57c741861576537f1"},
      {"WAL/20_pg_xlog|000000010000000000000000_0_1750",
       "31db11bc8daef409bafe23f9747cbd8a5a778bf8"},
      {"WAL/21_pg_xlog|000000010000000000000002_0_1980",
       "b4ceda554bb1ee321010d3086a86cc4672ca60e6"},
      {"WAL/22_pg_xlog|000000010000000000000000_0_1990",
       "2520aee23b3641e3c50bd3905733512214b82737"},
      {"WAL/23_pg_xlog|000000010000000000000001_0_2000",
       "7571f719395b961d4a3987e15dda786445d5f3ef"},
      {"WAL/24_pg_xlog|000000010000000000000000_0_2230",
       "efbaa73c4f12f26659e224a4670abd2a44e424ca"},
      {"WAL/25_pg_xlog|000000010000000000000001_0_2240",
       "337f9ff4172f3057f05e4ca22103765eb5521993"},
      {"WAL/26_pg_xlog|000000010000000000000002_0_2250",
       "a61d51e62a90c42f4d63682ba9b5ea1240e0bb81"},
      {"WAL/27_pg_xlog|000000010000000000000001_0_2480",
       "f39315dff74c1c8018fbe8693a04028702fda7ba"},
      {"WAL/28_pg_xlog|000000010000000000000002_0_2490",
       "9dd83f9808b03034cd1be2be7aa1a211ad1bcd2b"},
      {"WAL/29_pg_xlog|000000010000000000000000_0_2500",
       "a3aab50d7ea2058d18681dd7fa6ca2a48d58436a"},
      {"WAL/2_pg_xlog|000000010000000000000000_0_250",
       "baa53213af75686bbbc106880cac811b678d7ff4"},
      {"WAL/30_pg_xlog|000000010000000000000002_0_2730",
       "1ea26c54e01d63b5feb7629428851b0dad9a6de9"},
      {"WAL/31_pg_xlog|000000010000000000000000_0_2740",
       "43c70218eb6732e28e11a077225d1bfc716a040c"},
      {"WAL/32_pg_xlog|000000010000000000000001_0_2750",
       "9b970035f818728031917594ced3898788432769"},
      {"WAL/33_pg_xlog|000000010000000000000000_0_2980",
       "df513e2db579a530ccb271a0e0d35f705cfa2082"},
      {"WAL/34_pg_xlog|000000010000000000000001_0_2990",
       "74a631e67f815fd5d4ae387b03a8e8a7edde8999"},
      {"WAL/35_pg_xlog|000000010000000000000002_0_3000",
       "f48aa20eabb53f8a7ced20bcf8a9064bc82bf307"},
      {"WAL/3_pg_xlog|000000010000000000000002_0_480",
       "4532f85dcee365b0ae59fb85bd3e6ed5173943c8"},
      {"WAL/4_pg_xlog|000000010000000000000000_0_490",
       "6ed81cdafa58b0965a7dd51450aa388a9ab8d7be"},
      {"WAL/5_pg_xlog|000000010000000000000001_0_500",
       "029044edfa42635ba00d32d0dc4e16046eeccc86"},
      {"WAL/6_pg_xlog|000000010000000000000000_0_730",
       "9ce96f8323d73b4383d404e0cdf8b91d47f21b72"},
      {"WAL/7_pg_xlog|000000010000000000000001_0_740",
       "4e798998403b29e2f10b6e6d231f44bc7f310c5e"},
      {"WAL/8_pg_xlog|000000010000000000000002_0_750",
       "b5874a03abb2fbddc591aeff9a72f07a1030ac3a"},
      {"WAL/9_pg_xlog|000000010000000000000001_0_980",
       "b2f460c8d2f10355ce6732881ea1e21ec4c222b7"},
  };
  EXPECT_EQ(Render(run.bucket), Render(expected));
  EXPECT_EQ(Render(run.trace), Render(kBatchFrontiers));
}

TEST(GoldenBucket, StreamedCommit) {
  GinjaConfig config = GoldenConfig();
  config.streaming_commit = true;
  config.stream_segment_writes = 10;  // segments of 10, 10, 5 per batch
  const CommitRun run = RunCommit(config);
  const Bucket expected = {
      {"WAL/0_pg_xlog|000000010000000000000000_0_250",
       "a6de264f446eaa027f9f4b4b9be14c6b7ab893ec"},
      {"WAL/10_pg_xlog|000000010000000000000000_0_2750",
       "46ddcd626855833d5df6b2b87c3e001f73ec202e"},
      {"WAL/11_pg_xlog|000000010000000000000000_16384_3000",
       "39587269d724f7713c96dc4bb2a633c08c9e0023"},
      {"WAL/1_pg_xlog|000000010000000000000000_16384_500",
       "610c01c1622303e3b9675fa5509b9032afbe0c17"},
      {"WAL/2_pg_xlog|000000010000000000000000_8192_750",
       "ed7215387c156e90fdd7b1e2ae05d49c4bd54a7b"},
      {"WAL/3_pg_xlog|000000010000000000000000_0_1000",
       "37aa339eb4c5542aa72a7406fffe7f3d0c656f7a"},
      {"WAL/4_pg_xlog|000000010000000000000000_0_1250",
       "426c025b200bed9c38bfbba60785cadf2ad72537"},
      {"WAL/5_pg_xlog|000000010000000000000000_0_1500",
       "fba68359af736933d12fc6357d37328d96d85d66"},
      {"WAL/6_pg_xlog|000000010000000000000000_16384_1750",
       "d0b33d4623dcccaf59711d2fc6bf3b306e6d4fda"},
      {"WAL/7_pg_xlog|000000010000000000000000_8192_2000",
       "7e159b656dbb62c4ce6278e8969f39836f127e14"},
      {"WAL/8_pg_xlog|000000010000000000000000_8192_2250",
       "caf410b03c4941bb334caff989bcd60533540e76"},
      {"WAL/9_pg_xlog|000000010000000000000000_0_2500",
       "f0bf5d2a8bfdec2bfc476b185a4f49b7f98bb207"},
  };
  EXPECT_EQ(Render(run.bucket), Render(expected));
  EXPECT_EQ(Render(run.trace), Render(kBatchFrontiers));
}

// Early acks publish and then delete tail objects; the final bucket holds
// the folded WAL objects only. Tail acks move the frontier per segment,
// racing the finishes, so only the bucket is frozen.
TEST(GoldenBucket, StreamedEarlyAckCommit) {
  GinjaConfig config = GoldenConfig();
  config.streaming_commit = true;
  config.stream_segment_writes = 10;
  config.early_ack = true;
  const CommitRun run = RunCommit(config);
  const Bucket expected = {
      {"WAL/0_pg_xlog|000000010000000000000000_0_250",
       "a6de264f446eaa027f9f4b4b9be14c6b7ab893ec"},
      {"WAL/10_pg_xlog|000000010000000000000000_0_2750",
       "46ddcd626855833d5df6b2b87c3e001f73ec202e"},
      {"WAL/11_pg_xlog|000000010000000000000000_16384_3000",
       "39587269d724f7713c96dc4bb2a633c08c9e0023"},
      {"WAL/1_pg_xlog|000000010000000000000000_16384_500",
       "610c01c1622303e3b9675fa5509b9032afbe0c17"},
      {"WAL/2_pg_xlog|000000010000000000000000_8192_750",
       "ed7215387c156e90fdd7b1e2ae05d49c4bd54a7b"},
      {"WAL/3_pg_xlog|000000010000000000000000_0_1000",
       "37aa339eb4c5542aa72a7406fffe7f3d0c656f7a"},
      {"WAL/4_pg_xlog|000000010000000000000000_0_1250",
       "426c025b200bed9c38bfbba60785cadf2ad72537"},
      {"WAL/5_pg_xlog|000000010000000000000000_0_1500",
       "fba68359af736933d12fc6357d37328d96d85d66"},
      {"WAL/6_pg_xlog|000000010000000000000000_16384_1750",
       "d0b33d4623dcccaf59711d2fc6bf3b306e6d4fda"},
      {"WAL/7_pg_xlog|000000010000000000000000_8192_2000",
       "7e159b656dbb62c4ce6278e8969f39836f127e14"},
      {"WAL/8_pg_xlog|000000010000000000000000_8192_2250",
       "caf410b03c4941bb334caff989bcd60533540e76"},
      {"WAL/9_pg_xlog|000000010000000000000000_0_2500",
       "f0bf5d2a8bfdec2bfc476b185a4f49b7f98bb207"},
  };
  EXPECT_EQ(Render(run.bucket), Render(expected));
}

// Two dumps through CheckpointPipeline: the second follows a rewrite of
// one region, so its upload and the GC of the first dump both run.
Bucket RunDumps(GinjaConfig config) {
  config.max_object_bytes = 256 * 1024;  // multi-part monolithic dumps
  config.dump_threshold = 0.0;           // every checkpoint is a dump
  auto store = std::make_shared<MemoryStore>();
  auto fs = std::make_shared<MemFs>();
  EXPECT_TRUE(
      fs->Write("base/16384/1259", 0, Pattern(700 * 1024, 1), false).ok());
  EXPECT_TRUE(
      fs->Write("base/16384/2619", 0, Pattern(90 * 1024, 2), false).ok());
  EXPECT_TRUE(fs->Write("global/pg_control", 0, Pattern(8192, 3), false).ok());
  EXPECT_TRUE(fs->Write("pg_xlog/000000010000000000000001", 0,
                        Pattern(64 * 1024, 4), false)
                  .ok());
  {
    CheckpointPipeline pipeline(store, std::make_shared<CloudView>(),
                                std::make_shared<RealClock>(), config,
                                std::make_shared<Envelope>(config.envelope), fs,
                                DbLayout::Postgres());
    pipeline.Start();
    pipeline.OnCheckpointBegin();
    pipeline.OnCheckpointEnd(/*redo_lsn=*/0);
    pipeline.Drain();
    EXPECT_TRUE(
        fs->Write("base/16384/1259", 300 * 1024, Pattern(40 * 1024, 5), false)
            .ok());
    pipeline.OnCheckpointBegin();
    pipeline.OnCheckpointEnd(/*redo_lsn=*/100);
    pipeline.Stop();
    EXPECT_EQ(pipeline.stats().dumps_uploaded.Get(), 2u);
  }
  return Snapshot(*store);
}

TEST(GoldenBucket, MonolithicDump) {
  const Bucket expected = {
      {"DB/0_dump_100394_s1_l100_p3of4",
       "4c145d9301183b8115cf59f2e316a25f35239ab4"},
      {"DB/0_dump_192535_s1_l100_p2of4",
       "9c582fa0a8e76c3024d2cf8f2a74f1725365c670"},
      {"DB/0_dump_262165_s1_l100_p0of4",
       "d53f069a90773ff58f47415a91161f5f7c00e312"},
      {"DB/0_dump_262167_s1_l100_p1of4",
       "cc0e73b09ebfb558bba0cc3515859ae1d415bedf"},
  };
  EXPECT_EQ(Render(RunDumps(GoldenConfig())), Render(expected));
}

TEST(GoldenBucket, DedupDump) {
  GinjaConfig config = GoldenConfig();
  config.dedup_dumps = true;
  const Bucket expected = {
      {"CHUNK/115140238e7a4785c5755abaaf23462ae34a6f9d_8192",
       "ea98288b2c82002629f1044d3798bebb50223711"},
      {"CHUNK/323c42e29b8f934502525116e4423c5678a326b2_262144",
       "66ee4b952b03cb90a04b6853d2d9b1c17e87f9a3"},
      {"CHUNK/5370e6b938352d7a628ee71df75de33a0d45aeb8_192512",
       "e349c5fa90374c3e695170c253e9e8ce7bf60d37"},
      {"CHUNK/6b49e09be451e187cc565dd95ebe297de49f973f_262144",
       "9112ab36039b279be9e3e978ae34be1aef820851"},
      {"CHUNK/7774af64838432bc845da0ea1d305e49113a260a_92160",
       "0e58ccfccb24a23f8b3a0627a705640681bc157c"},
      {"DB/0_manifest_817152_s1_l100_p0of1",
       "d2a86dd3a0003194f91eabb6313ef5bf0df23723"},
  };
  EXPECT_EQ(Render(RunDumps(config)), Render(expected));
}

}  // namespace
}  // namespace ginja
