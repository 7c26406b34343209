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
       "f50371ff4967c16c00a83f65211a2dca42e1e97e"},
      {"WAL/10_pg_xlog|000000010000000000000002_0_990",
       "24496ea82f63120f100bc23f9e8629f9b2aa92e0"},
      {"WAL/11_pg_xlog|000000010000000000000000_0_1000",
       "b7311936f271b297da0b94810c233e979c1684d4"},
      {"WAL/12_pg_xlog|000000010000000000000002_0_1230",
       "d2b3895a0f4e44700f46f645b1c75f88e288b4cf"},
      {"WAL/13_pg_xlog|000000010000000000000000_0_1240",
       "6b6966cebf96b55d3fb28abd55d6c28031e04614"},
      {"WAL/14_pg_xlog|000000010000000000000001_0_1250",
       "e818ae57704f224e9019b56ad162309626d0064b"},
      {"WAL/15_pg_xlog|000000010000000000000000_0_1480",
       "2768426bb2fef77440b3d28bf82ca5103f9651ae"},
      {"WAL/16_pg_xlog|000000010000000000000001_0_1490",
       "0b8e42c5b66d1595af6fd62a8424b883b45dff9c"},
      {"WAL/17_pg_xlog|000000010000000000000002_0_1500",
       "f0da619c449dcaa76d926b832ffb760006b07642"},
      {"WAL/18_pg_xlog|000000010000000000000001_0_1730",
       "714e6b7a86897871bba09dc9f912baa5febd5f65"},
      {"WAL/19_pg_xlog|000000010000000000000002_0_1740",
       "25b6f3b96148954c5cf314b545d30c3de2b5cfa8"},
      {"WAL/1_pg_xlog|000000010000000000000002_0_240",
       "1d010f2d253a29cb09279ac6aa5cf7ec68a721c5"},
      {"WAL/20_pg_xlog|000000010000000000000000_0_1750",
       "19262272f46247f27c723c05cf9ea24b2deb0cdf"},
      {"WAL/21_pg_xlog|000000010000000000000002_0_1980",
       "97f69521d95cff2bbfa8719a5d3c08c6055fbba2"},
      {"WAL/22_pg_xlog|000000010000000000000000_0_1990",
       "8caa205e8d7b7e92aa1ea200d8e9e81de073c271"},
      {"WAL/23_pg_xlog|000000010000000000000001_0_2000",
       "c4ee47def9a9bb0bb5b6c9ec982e718fa3d10407"},
      {"WAL/24_pg_xlog|000000010000000000000000_0_2230",
       "f78bc6f9915797e5d40323898c2a7fb025e7142e"},
      {"WAL/25_pg_xlog|000000010000000000000001_0_2240",
       "fa9104021a361523c7881e1636d4cba512b75e43"},
      {"WAL/26_pg_xlog|000000010000000000000002_0_2250",
       "daa4c7bfd4f55b3d6eaf189a688060e97eb012d0"},
      {"WAL/27_pg_xlog|000000010000000000000001_0_2480",
       "025eb7d36fbc29818ef36be1e9693325971a953d"},
      {"WAL/28_pg_xlog|000000010000000000000002_0_2490",
       "00fac5bfec750a116bb078325abfe379812e824d"},
      {"WAL/29_pg_xlog|000000010000000000000000_0_2500",
       "5630c63f5ef7eb39ecb3d8cb14bcc19bb2233308"},
      {"WAL/2_pg_xlog|000000010000000000000000_0_250",
       "b1b92d52e8da3f4efc21d720b82a0752d26f6871"},
      {"WAL/30_pg_xlog|000000010000000000000002_0_2730",
       "d2059101920d2efd77fe5da42c0c1a0ccb3ef128"},
      {"WAL/31_pg_xlog|000000010000000000000000_0_2740",
       "a82a7357ff34dc28a786ecbfe2e23e7abc4c5407"},
      {"WAL/32_pg_xlog|000000010000000000000001_0_2750",
       "13352044ee5698b32741b0986d955ef087faf7b3"},
      {"WAL/33_pg_xlog|000000010000000000000000_0_2980",
       "b79b7dd6a324a15afd3fd0e2bb65cf1f373214ad"},
      {"WAL/34_pg_xlog|000000010000000000000001_0_2990",
       "637f43cc2de79a5e16955fef6fa90177fec0bc92"},
      {"WAL/35_pg_xlog|000000010000000000000002_0_3000",
       "4035369f2f006d11218c7021bad8b32089bbb461"},
      {"WAL/3_pg_xlog|000000010000000000000002_0_480",
       "be894cb734441acccfc691f8e1cc4fb879e3514f"},
      {"WAL/4_pg_xlog|000000010000000000000000_0_490",
       "df3c108a90d61ad0b35e65bf9a92b7d30870d002"},
      {"WAL/5_pg_xlog|000000010000000000000001_0_500",
       "8258a623f6ec0869fbdadec38b7e7610562dec2f"},
      {"WAL/6_pg_xlog|000000010000000000000000_0_730",
       "d02d80e7fc19bc3709f67660919ff46e343a798a"},
      {"WAL/7_pg_xlog|000000010000000000000001_0_740",
       "deef6e2c888a5970e6252391cff13b1d33e108e2"},
      {"WAL/8_pg_xlog|000000010000000000000002_0_750",
       "938ce5b709094ed1ea8bd00fe8924a687ca4ad23"},
      {"WAL/9_pg_xlog|000000010000000000000001_0_980",
       "ab5066137cdb1d5827bc09cc3e6fb7ebc523a5af"},
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
       "adcf2e0579e8d4640c12b235e7d28918084c31bd"},
      {"WAL/10_pg_xlog|000000010000000000000000_0_2750",
       "dc10b8be5a9dbc0e3f7942bbc5ac9b711dcd2b9b"},
      {"WAL/11_pg_xlog|000000010000000000000000_16384_3000",
       "980c377453c95c76ccba55d7beb9bf9432e772c4"},
      {"WAL/1_pg_xlog|000000010000000000000000_16384_500",
       "518b3d013a9d3a6440208c90b2f9315462f2950b"},
      {"WAL/2_pg_xlog|000000010000000000000000_8192_750",
       "17fbb33dea815a56ddff4f740344785e194f96d7"},
      {"WAL/3_pg_xlog|000000010000000000000000_0_1000",
       "28b83e211106bce746283064ffb46375d97f1983"},
      {"WAL/4_pg_xlog|000000010000000000000000_0_1250",
       "a38ebe9dbf5e7f47f0f57dacf46454ad1514c38e"},
      {"WAL/5_pg_xlog|000000010000000000000000_0_1500",
       "7f34386cd3fb509b7e4942b438f0fe2a69fd1c4b"},
      {"WAL/6_pg_xlog|000000010000000000000000_16384_1750",
       "7276969c84e862140bc0e083e6066fe32799a94b"},
      {"WAL/7_pg_xlog|000000010000000000000000_8192_2000",
       "1a3ae356d22e90b8a0db020fccfe7bedc524ec80"},
      {"WAL/8_pg_xlog|000000010000000000000000_8192_2250",
       "e96d8a06413274f96c240e9d57524adf13a8c81d"},
      {"WAL/9_pg_xlog|000000010000000000000000_0_2500",
       "c7ed76c5d781f86604c302184868611fd658f749"},
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
       "adcf2e0579e8d4640c12b235e7d28918084c31bd"},
      {"WAL/10_pg_xlog|000000010000000000000000_0_2750",
       "dc10b8be5a9dbc0e3f7942bbc5ac9b711dcd2b9b"},
      {"WAL/11_pg_xlog|000000010000000000000000_16384_3000",
       "980c377453c95c76ccba55d7beb9bf9432e772c4"},
      {"WAL/1_pg_xlog|000000010000000000000000_16384_500",
       "518b3d013a9d3a6440208c90b2f9315462f2950b"},
      {"WAL/2_pg_xlog|000000010000000000000000_8192_750",
       "17fbb33dea815a56ddff4f740344785e194f96d7"},
      {"WAL/3_pg_xlog|000000010000000000000000_0_1000",
       "28b83e211106bce746283064ffb46375d97f1983"},
      {"WAL/4_pg_xlog|000000010000000000000000_0_1250",
       "a38ebe9dbf5e7f47f0f57dacf46454ad1514c38e"},
      {"WAL/5_pg_xlog|000000010000000000000000_0_1500",
       "7f34386cd3fb509b7e4942b438f0fe2a69fd1c4b"},
      {"WAL/6_pg_xlog|000000010000000000000000_16384_1750",
       "7276969c84e862140bc0e083e6066fe32799a94b"},
      {"WAL/7_pg_xlog|000000010000000000000000_8192_2000",
       "1a3ae356d22e90b8a0db020fccfe7bedc524ec80"},
      {"WAL/8_pg_xlog|000000010000000000000000_8192_2250",
       "e96d8a06413274f96c240e9d57524adf13a8c81d"},
      {"WAL/9_pg_xlog|000000010000000000000000_0_2500",
       "c7ed76c5d781f86604c302184868611fd658f749"},
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
       "374bc736e9e641a2ed6f97b559d2ad4dcae48780"},
      {"DB/0_dump_192535_s1_l100_p2of4",
       "5bb01b907044a2340e766f4064709f97d2cce8a2"},
      {"DB/0_dump_262165_s1_l100_p0of4",
       "95f683cee82a352ee15c6e3557965fdbc926a465"},
      {"DB/0_dump_262167_s1_l100_p1of4",
       "d78392420c1b99ad18ea2cb5807160c12555e34d"},
  };
  EXPECT_EQ(Render(RunDumps(GoldenConfig())), Render(expected));
}

TEST(GoldenBucket, DedupDump) {
  GinjaConfig config = GoldenConfig();
  config.dedup_dumps = true;
  const Bucket expected = {
      {"CHUNK/115140238e7a4785c5755abaaf23462ae34a6f9d_8192",
       "62cc52640d99cbf49e1aa7fa6b416f52b29d9d77"},
      {"CHUNK/323c42e29b8f934502525116e4423c5678a326b2_262144",
       "83f1c305fbdeccbbf511c310b238fd5b7bd8845e"},
      {"CHUNK/5370e6b938352d7a628ee71df75de33a0d45aeb8_192512",
       "fcc18470923e011a8a18175a712c7c1475efd26f"},
      {"CHUNK/6b49e09be451e187cc565dd95ebe297de49f973f_262144",
       "93388cb183b8c409258ff7220b0128a33f14f8da"},
      {"CHUNK/7774af64838432bc845da0ea1d305e49113a260a_92160",
       "c8d4fabf89b24bd1043473b2ac3ed4bc2767e4d0"},
      {"DB/0_manifest_817152_s1_l100_p0of1",
       "19892969ae68a02c69c0f1d83728688864f5af14"},
  };
  EXPECT_EQ(Render(RunDumps(config)), Render(expected));
}

}  // namespace
}  // namespace ginja
