// Deduplicated delta dumps: chunking/manifest codecs, the ChunkIndex
// refcount lifecycle, and the end-to-end guarantees — a second dump
// uploads only changed chunks, recovery from a dedup bucket is
// byte-identical to the monolithic path, torn manifests are invisible and
// resumable, GC respects retention, and fleet tenants keep private chunk
// namespaces. Suite names start with "Dedup" so the sanitizer CI jobs'
// filters pick them up.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cloud/memory_store.h"
#include "common/codec/codec_pool.h"
#include "db/database.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"
#include "ginja/dedup.h"
#include "ginja/fleet.h"
#include "ginja/ginja.h"
#include "ginja/object_id.h"
#include "ginja/standby.h"

namespace ginja {
namespace {

// Non-periodic pseudo-random bytes: chunks cut from different offsets of
// one Pattern buffer must get distinct digests.
Bytes Pattern(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  std::uint64_t x = 0x9E3779B97F4A7C15ull * (seed + 1);
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<std::uint8_t>(x);
  }
  return out;
}

// -- chunking and codecs ------------------------------------------------------

TEST(DedupChunking, SplitsEntriesAtChunkBoundariesInOrder) {
  std::vector<FileEntry> entries;
  entries.push_back({"base/t", 0, Pattern(10'000, 1)});   // 2 full + 1 partial
  entries.push_back({"global/pg_control", 0, Pattern(100, 2)});  // sub-chunk
  const auto refs = ChunkDumpEntries(entries, 4096, nullptr);
  ASSERT_EQ(refs.size(), 4u);
  EXPECT_EQ(refs[0].path, "base/t");
  EXPECT_EQ(refs[0].offset, 0u);
  EXPECT_EQ(refs[0].length, 4096u);
  EXPECT_EQ(refs[1].offset, 4096u);
  EXPECT_EQ(refs[2].offset, 8192u);
  EXPECT_EQ(refs[2].length, 10'000u - 8192u);
  EXPECT_EQ(refs[3].path, "global/pg_control");
  EXPECT_EQ(refs[3].length, 100u);
  // Digests are the SHA-1 of the plaintext slice.
  EXPECT_EQ(refs[0].digest, Sha1::Hash(View(entries[0].data).subspan(0, 4096)));
  EXPECT_EQ(refs[3].digest, Sha1::Hash(View(entries[1].data)));
}

TEST(DedupChunking, ParallelHashingMatchesSerial) {
  std::vector<FileEntry> entries;
  entries.push_back({"base/t", 0, Pattern(64 * 1024, 7)});
  CodecPool pool(4);
  const auto parallel = ChunkDumpEntries(entries, 4096, &pool);
  const auto serial = ChunkDumpEntries(entries, 4096, nullptr);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].digest, serial[i].digest) << i;
  }
}

TEST(DedupChunking, ManifestRoundTrip) {
  std::vector<FileEntry> entries;
  entries.push_back({"base/t", 0, Pattern(9000, 3)});
  entries.push_back({"pg_clog/0000", 0, Pattern(8192, 4)});
  const auto refs = ChunkDumpEntries(entries, 4096, nullptr);
  const Bytes payload = EncodeManifest(refs);
  auto decoded = DecodeManifest(View(payload));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ((*decoded)[i].path, refs[i].path);
    EXPECT_EQ((*decoded)[i].offset, refs[i].offset);
    EXPECT_EQ((*decoded)[i].length, refs[i].length);
    EXPECT_EQ((*decoded)[i].digest, refs[i].digest);
  }
}

TEST(DedupChunking, ManifestRejectsCorruption) {
  std::vector<FileEntry> entries;
  entries.push_back({"base/t", 0, Pattern(5000, 5)});
  Bytes payload = EncodeManifest(ChunkDumpEntries(entries, 4096, nullptr));

  // Bad magic.
  Bytes bad = payload;
  bad[0] ^= 0xFF;
  EXPECT_EQ(DecodeManifest(View(bad)).status().code(), ErrorCode::kCorruption);
  // Truncation at every boundary must fail, never crash or mis-decode.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{5},
                          payload.size() - 1}) {
    EXPECT_EQ(DecodeManifest(View(payload).subspan(0, cut)).status().code(),
              ErrorCode::kCorruption)
        << "cut=" << cut;
  }
  // Trailing bytes are corruption too: the manifest is length-framed by
  // its object, so extra bytes mean a torn or mixed-up payload.
  Bytes long_payload = payload;
  long_payload.push_back(0);
  EXPECT_EQ(DecodeManifest(View(long_payload)).status().code(),
            ErrorCode::kCorruption);
}

TEST(DedupChunking, ManifestRejectsOverflowingPathLength) {
  std::vector<FileEntry> entries;
  entries.push_back({"p", 0, Pattern(16, 1)});
  const Bytes good = EncodeManifest(ChunkDumpEntries(entries, 16, nullptr));

  // A crafted 64-bit path length near UINT64_MAX must not wrap the bounds
  // check into a far-out-of-bounds read.
  Bytes evil(good.begin(), good.begin() + 4);  // keep the magic
  PutVarint(evil, 1);                          // one ref
  PutVarint(evil, std::numeric_limits<std::uint64_t>::max());  // path_len
  evil.push_back('x');
  EXPECT_EQ(DecodeManifest(View(evil)).status().code(),
            ErrorCode::kCorruption);

  // An in-bounds claim of an absurd path length is rejected by the sanity
  // bound before any giant allocation is attempted.
  Bytes big(good.begin(), good.begin() + 4);
  PutVarint(big, 1);
  PutVarint(big, std::uint64_t{1} << 20);
  EXPECT_EQ(DecodeManifest(View(big)).status().code(),
            ErrorCode::kCorruption);
}

TEST(DedupChunking, ChunkObjectIdRoundTrip) {
  ChunkObjectId id;
  id.digest = Sha1::Hash(View(Pattern(100, 9)));
  id.size = 4096;
  const std::string name = id.Encode();
  EXPECT_TRUE(name.starts_with("CHUNK/"));
  auto back = ChunkObjectId::Decode(name);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->digest, id.digest);
  EXPECT_EQ(back->size, 4096u);

  EXPECT_FALSE(ChunkObjectId::Decode("DB/1_dump_1_0_1_2").has_value());
  EXPECT_FALSE(ChunkObjectId::Decode("CHUNK/nothex_12").has_value());
  EXPECT_FALSE(ChunkObjectId::Decode("CHUNK/abcd").has_value());
  EXPECT_FALSE(
      ChunkObjectId::Decode(name.substr(0, name.size() - 2) + "xy").has_value());
}

TEST(DedupChunking, ChunkNonceIsConvergentAndTagged) {
  const Sha1::Digest a = Sha1::Hash(View(Pattern(64, 1)));
  const Sha1::Digest b = Sha1::Hash(View(Pattern(64, 2)));
  EXPECT_EQ(ChunkNonce(a), ChunkNonce(a));  // content-derived: convergent
  EXPECT_NE(ChunkNonce(a), ChunkNonce(b));
  // Top byte 0x51 (bit 63 clear) keeps the chunk subspace disjoint from
  // WAL ts, DB-part ((1<<63)|...), stream (0xE5<<56), and meta nonces.
  EXPECT_EQ(ChunkNonce(a) >> 56, 0x51u);
  EXPECT_EQ(ChunkNonce(b) >> 56, 0x51u);
}

// -- ChunkIndex ---------------------------------------------------------------

TEST(DedupIndex, RefcountLifecycle) {
  ChunkIndex index;
  std::vector<FileEntry> entries;
  entries.push_back({"base/t", 0, Pattern(12'288, 6)});
  const auto refs = ChunkDumpEntries(entries, 4096, nullptr);  // 3 chunks

  EXPECT_FALSE(index.Contains(refs[0].digest));
  index.MarkPresent(refs[0].digest, refs[0].length);
  EXPECT_TRUE(index.Contains(refs[0].digest));
  EXPECT_EQ(index.RefCount(refs[0].digest), 0u);  // a resumable orphan
  ASSERT_EQ(index.ZeroRefChunks().size(), 1u);

  index.RegisterManifest(7, refs);
  EXPECT_EQ(index.ChunkCount(), 3u);
  for (const auto& ref : refs) EXPECT_EQ(index.RefCount(ref.digest), 1u);
  EXPECT_TRUE(index.ZeroRefChunks().empty());

  // A second manifest sharing one chunk pins it at refcount 2.
  std::vector<ChunkRef> shared = {refs[0]};
  index.RegisterManifest(8, shared);
  EXPECT_EQ(index.RefCount(refs[0].digest), 2u);

  index.ReleaseManifest(7);
  EXPECT_EQ(index.RefCount(refs[0].digest), 1u);
  EXPECT_EQ(index.RefCount(refs[1].digest), 0u);
  // Zero-ref chunks stay present (still in the cloud) until RemoveChunk.
  EXPECT_TRUE(index.Contains(refs[1].digest));
  EXPECT_EQ(index.ZeroRefChunks().size(), 2u);
  index.RemoveChunk(refs[1].digest);
  EXPECT_FALSE(index.Contains(refs[1].digest));

  index.ReleaseManifest(8);
  EXPECT_EQ(index.RefCount(refs[0].digest), 0u);
  index.ReleaseManifest(8);  // releasing an unknown seq is a no-op
}

TEST(DedupIndex, RegisterManifestIsIdempotentAndDedupesWithinManifest) {
  ChunkIndex index;
  std::vector<FileEntry> entries;
  entries.push_back({"base/t", 0, Pattern(4096, 6)});
  auto refs = ChunkDumpEntries(entries, 4096, nullptr);
  refs.push_back(refs[0]);  // the same digest listed twice in one manifest

  index.RegisterManifest(1, refs);
  EXPECT_EQ(index.RefCount(refs[0].digest), 1u);  // counted once
  index.RegisterManifest(1, refs);                // re-registration: no-op
  EXPECT_EQ(index.RefCount(refs[0].digest), 1u);
}

// -- end to end ---------------------------------------------------------------

GinjaConfig DedupConfig(bool dedup = true) {
  GinjaConfig config;
  config.batch = 4;
  config.safety = 64;
  config.batch_timeout_us = 20'000;
  config.safety_timeout_us = 10'000'000;
  config.retry_backoff_us = 2'000;
  config.max_retries = 3;  // fault tests block PUTs permanently; fail fast
  config.dedup_dumps = dedup;
  config.dedup_chunk_bytes = 8192;  // small DBs in tests: many chunks
  return config;
}

struct Harness {
  DbLayout layout = DbLayout::Postgres();
  std::shared_ptr<RealClock> clock = std::make_shared<RealClock>();
  std::shared_ptr<MemFs> local = std::make_shared<MemFs>();
  std::shared_ptr<InterceptFs> intercept;
  ObjectStorePtr store;
  std::unique_ptr<Database> db;
  std::unique_ptr<Ginja> ginja;

  explicit Harness(GinjaConfig config = DedupConfig(),
                   ObjectStorePtr custom_store = nullptr)
      : store(custom_store ? custom_store : std::make_shared<MemoryStore>()) {
    intercept = std::make_shared<InterceptFs>(local, clock);
    db = std::make_unique<Database>(intercept, layout);
    EXPECT_TRUE(db->Create().ok());
    EXPECT_TRUE(db->CreateTable("t").ok());
    ginja = std::make_unique<Ginja>(local, store, clock, layout, config);
    EXPECT_TRUE(ginja->Boot().ok());
    intercept->SetListener(ginja.get());
  }

  void Put(int i) {
    auto txn = db->Begin();
    ASSERT_TRUE(db->Put(txn, "t", "k" + std::to_string(i),
                        ToBytes("value-" + std::to_string(i)))
                    .ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }

  // Commits single rows and checkpoints until the next dump lands.
  // Returns false if no dump fired within the bound.
  bool DriveToNextDump(int* next_key, int max_rounds = 200) {
    const auto& stats = ginja->checkpoint_stats();
    const std::uint64_t dumps = stats.dumps_uploaded.Get();
    for (int round = 0; round < max_rounds; ++round) {
      Put((*next_key)++);
      ginja->Drain();
      EXPECT_TRUE(db->Checkpoint().ok());
      ginja->Drain();
      if (stats.dumps_uploaded.Get() > dumps) return true;
    }
    return false;
  }
};

std::map<std::string, Bytes> Files(Vfs& fs) {
  std::map<std::string, Bytes> out;
  auto files = fs.ListFiles("");
  EXPECT_TRUE(files.ok());
  for (const auto& path : *files) {
    auto content = fs.ReadAll(path);
    EXPECT_TRUE(content.ok()) << path;
    if (content.ok()) out[path] = std::move(*content);
  }
  return out;
}

void ExpectSameFiles(const std::map<std::string, Bytes>& a,
                     const std::map<std::string, Bytes>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [path, content] : a) {
    auto it = b.find(path);
    ASSERT_NE(it, b.end()) << path;
    EXPECT_EQ(content, it->second) << path;
  }
}

std::size_t CountChunks(ObjectStore& store) {
  auto objects = store.List("CHUNK/");
  EXPECT_TRUE(objects.ok());
  return objects.ok() ? objects->size() : 0;
}

std::size_t CountManifests(ObjectStore& store) {
  auto objects = store.List("DB/");
  EXPECT_TRUE(objects.ok());
  std::size_t n = 0;
  if (objects.ok()) {
    for (const auto& meta : *objects) {
      auto id = DbObjectId::Decode(meta.name);
      if (id && id->type == DbObjectType::kManifest) ++n;
    }
  }
  return n;
}

TEST(DedupEndToEnd, SecondDumpUploadsOnlyChangedChunks) {
  Harness h;
  const auto& stats = h.ginja->checkpoint_stats();
  int key = 0;
  // Grow the image so table pages dominate system files, then reach the
  // dump that covers that state.
  for (int i = 0; i < 400; ++i) h.Put(key++);
  h.ginja->Drain();
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  ASSERT_TRUE(h.DriveToNextDump(&key));

  // Tiny churn, then the next dump: almost every chunk must dedup.
  const std::uint64_t hits0 = stats.dedup_hit_bytes.Get();
  const std::uint64_t miss0 = stats.dedup_miss_bytes.Get();
  const std::uint64_t chunks0 = stats.chunks_uploaded.Get();
  ASSERT_TRUE(h.DriveToNextDump(&key));
  const std::uint64_t hit_bytes = stats.dedup_hit_bytes.Get() - hits0;
  const std::uint64_t miss_bytes = stats.dedup_miss_bytes.Get() - miss0;
  ASSERT_GT(hit_bytes + miss_bytes, 0u);
  // The re-dump must be delta-sized: unchanged content dominates.
  EXPECT_GT(hit_bytes, miss_bytes);
  EXPECT_GT(stats.chunks_uploaded.Get(), chunks0);  // but some churn uploaded

  // The bucket is self-consistent: every manifest-referenced chunk is
  // present, and GC left no unreferenced chunks behind.
  h.ginja->Stop();
  auto audit = AuditChunks(*h.store, h.ginja->envelope());
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_TRUE(audit->missing.empty());
  EXPECT_TRUE(audit->orphans.empty());
  EXPECT_GE(audit->manifests, 1u);
  EXPECT_EQ(audit->chunks, CountChunks(*h.store));
}

TEST(DedupEndToEnd, RecoveryMatchesMonolithicByteForByte) {
  // The same deterministic workload through a dedup and a monolithic
  // pipeline: identical engine bytes, so the two recovered images must be
  // identical too. Timing only moves WAL object boundaries, never the
  // reassembled file contents, and the manifest's logical size keeps the
  // 150% rule firing at the same checkpoints in both runs.
  auto run = [](bool dedup) {
    auto h = std::make_unique<Harness>(DedupConfig(dedup));
    int key = 0;
    for (int i = 0; i < 120; ++i) h->Put(key++);
    h->ginja->Drain();
    EXPECT_TRUE(h->db->Checkpoint().ok());
    h->ginja->Drain();
    EXPECT_TRUE(h->DriveToNextDump(&key));
    h->ginja->Stop();
    return h;
  };
  auto dedup = run(true);
  auto mono = run(false);

  auto recover = [](Harness& h) {
    auto fresh = std::make_shared<MemFs>();
    RecoveryReport report;
    Status st =
        Ginja::Recover(h.store, DedupConfig(), h.layout, fresh, &report);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(report.found_dump);
    EXPECT_FALSE(report.gap_detected);
    return std::make_pair(fresh, report);
  };
  auto [dedup_image, dedup_report] = recover(*dedup);
  auto [mono_image, mono_report] = recover(*mono);
  EXPECT_GT(dedup_report.chunks_downloaded, 0u);
  EXPECT_EQ(mono_report.chunks_downloaded, 0u);
  ExpectSameFiles(Files(*dedup_image), Files(*mono_image));

  // Warm path: a standby bootstrapped from the dedup bucket materializes
  // the same bytes as the cold recovery.
  StandbyOptions lazy;
  lazy.poll_interval_us = 60'000'000;
  StandbyReplica standby(dedup->store, DedupConfig(), dedup->clock, lazy);
  ASSERT_TRUE(standby.Start().ok());
  ExpectSameFiles(Files(*standby.image()), Files(*dedup_image));
  EXPECT_GT(standby.report().chunks_downloaded, 0u);

  // And the engine opens with every row intact.
  Database recovered(dedup_image, dedup->layout);
  ASSERT_TRUE(recovered.Open().ok());
  for (int i = 0; i < 120; ++i) {
    EXPECT_TRUE(recovered.Get("t", "k" + std::to_string(i)).has_value()) << i;
  }
}

// Fails every PUT whose name marks it as a manifest object while tripped.
class ManifestBlockingStore : public ObjectStore {
 public:
  explicit ManifestBlockingStore(ObjectStorePtr inner)
      : inner_(std::move(inner)) {}

  Status Put(std::string_view name, ByteView data) override {
    if (blocking_.load() && name.find("manifest") != std::string_view::npos) {
      blocked_.fetch_add(1);
      return Status::Unavailable("injected: manifest PUT blocked");
    }
    return inner_->Put(name, data);
  }
  Result<Bytes> Get(std::string_view name) override { return inner_->Get(name); }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix,
                                       std::string_view start_after) override {
    return inner_->List(prefix, start_after);
  }
  Status Delete(std::string_view name) override { return inner_->Delete(name); }

  std::atomic<bool> blocking_{false};
  std::atomic<int> blocked_{0};

 private:
  ObjectStorePtr inner_;
};

TEST(DedupEndToEnd, TornManifestIsInvisibleAndResumable) {
  auto blocking = std::make_shared<ManifestBlockingStore>(
      std::make_shared<MemoryStore>());
  Harness h(DedupConfig(), blocking);
  const auto& stats = h.ginja->checkpoint_stats();
  int key = 0;
  for (int i = 0; i < 100; ++i) h.Put(key++);
  h.ginja->Drain();
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  ASSERT_TRUE(h.DriveToNextDump(&key));

  // Outage scoped to manifest PUTs: the next dump uploads its chunks but
  // can never publish. The dump must stay invisible — and the chunk
  // uploads must not be wasted.
  blocking->blocking_ = true;
  const std::uint64_t dumps_before = stats.dumps_uploaded.Get();
  // Enough rounds for the 150% rule to fire and retry several times,
  // bounded: every attempt must fail.
  EXPECT_FALSE(h.DriveToNextDump(&key, 40));
  EXPECT_GT(blocking->blocked_.load(), 0);
  EXPECT_EQ(stats.dumps_uploaded.Get(), dumps_before);

  // Both recovery paths see a consistent bucket: the old dump plus the
  // full WAL tail. The torn dump's orphan chunks are invisible.
  auto cold = std::make_shared<MemFs>();
  RecoveryReport cold_report;
  ASSERT_TRUE(Ginja::Recover(h.store, DedupConfig(), h.layout, cold,
                             &cold_report)
                  .ok());
  EXPECT_FALSE(cold_report.gap_detected);
  {
    Database recovered(cold, h.layout);
    ASSERT_TRUE(recovered.Open().ok());
    for (int i = 0; i < key; ++i) {
      EXPECT_TRUE(recovered.Get("t", "k" + std::to_string(i)).has_value()) << i;
    }
  }
  StandbyOptions lazy;
  lazy.poll_interval_us = 60'000'000;
  StandbyReplica standby(h.store, DedupConfig(), h.clock, lazy);
  ASSERT_TRUE(standby.Start().ok());
  ExpectSameFiles(Files(*standby.image()), Files(*cold));

  // Referenced chunks all exist; the torn upload may have left orphans
  // (they are the resume set, swept by refcount GC after the next dump).
  auto audit = AuditChunks(*h.store, h.ginja->envelope());
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->missing.empty());
  // Orphans are reported under their *real* object names (digest + size
  // suffix), so an operator can GET/DELETE them directly.
  EXPECT_FALSE(audit->orphans.empty());
  for (const auto& name : audit->orphans) {
    EXPECT_TRUE(h.store->Get(name).ok()) << name;
  }

  // Outage ends: the retried dump reuses the orphans instead of
  // re-uploading them — the torn upload resumed.
  blocking->blocking_ = false;
  const std::uint64_t miss0 = stats.dedup_miss_bytes.Get();
  const std::uint64_t hit0 = stats.dedup_hit_bytes.Get();
  ASSERT_TRUE(h.DriveToNextDump(&key));
  const std::uint64_t retry_miss = stats.dedup_miss_bytes.Get() - miss0;
  const std::uint64_t retry_hit = stats.dedup_hit_bytes.Get() - hit0;
  EXPECT_GT(retry_hit, retry_miss);

  h.ginja->Stop();
  auto final_audit = AuditChunks(*h.store, h.ginja->envelope());
  ASSERT_TRUE(final_audit.ok());
  EXPECT_TRUE(final_audit->missing.empty());
  EXPECT_TRUE(final_audit->orphans.empty());  // GC swept the leftovers
}

// Manifest PUTs land in the inner store but report failure — the lost-ack
// case a single-part object cannot hide behind multi-part invisibility.
// Manifest DELETEs can be failed too, to block the confirming delete.
class ManifestAckLosingStore : public ObjectStore {
 public:
  explicit ManifestAckLosingStore(ObjectStorePtr inner)
      : inner_(std::move(inner)) {}

  Status Put(std::string_view name, ByteView data) override {
    if (lose_acks_.load() && name.find("manifest") != std::string_view::npos) {
      (void)inner_->Put(name, data);  // the object lands anyway
      acks_lost_.fetch_add(1);
      return Status::Unavailable("injected: manifest PUT ack lost");
    }
    return inner_->Put(name, data);
  }
  Result<Bytes> Get(std::string_view name) override { return inner_->Get(name); }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix,
                                       std::string_view start_after) override {
    return inner_->List(prefix, start_after);
  }
  Status Delete(std::string_view name) override {
    if (fail_deletes_.load() &&
        name.find("manifest") != std::string_view::npos) {
      return Status::Unavailable("injected: manifest DELETE failed");
    }
    return inner_->Delete(name);
  }

  std::atomic<bool> lose_acks_{false};
  std::atomic<bool> fail_deletes_{false};
  std::atomic<int> acks_lost_{0};

 private:
  ObjectStorePtr inner_;
};

TEST(DedupEndToEnd, LostManifestAckLeavesNoGhostManifest) {
  auto losing = std::make_shared<ManifestAckLosingStore>(
      std::make_shared<MemoryStore>());
  Harness h(DedupConfig(), losing);
  int key = 0;
  for (int i = 0; i < 80; ++i) h.Put(key++);
  h.ginja->Drain();
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  ASSERT_TRUE(h.DriveToNextDump(&key));
  const std::size_t manifests_before = CountManifests(*h.store);

  // Lost-ack window: every manifest PUT lands but reports failure. The
  // pipeline must confirm each ghost's absence with a DELETE — a visible
  // manifest the ChunkIndex does not know about would otherwise have its
  // chunks swept by a later zero-ref wave.
  losing->lose_acks_ = true;
  EXPECT_FALSE(h.DriveToNextDump(&key, 40));
  EXPECT_GT(losing->acks_lost_.load(), 0);
  EXPECT_EQ(CountManifests(*h.store), manifests_before);

  // Healthy again: the next dump publishes and GC sweeps; no ghost ever
  // became visible, so the bucket audits clean.
  losing->lose_acks_ = false;
  ASSERT_TRUE(h.DriveToNextDump(&key));
  h.ginja->Stop();
  auto audit = AuditChunks(*h.store, h.ginja->envelope());
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_TRUE(audit->missing.empty()) << audit->missing.front();
  EXPECT_TRUE(audit->orphans.empty()) << audit->orphans.front();
}

TEST(DedupEndToEnd, UndeletableGhostManifestKeepsItsChunksPinned) {
  auto losing = std::make_shared<ManifestAckLosingStore>(
      std::make_shared<MemoryStore>());
  Harness h(DedupConfig(), losing);
  int key = 0;
  for (int i = 0; i < 80; ++i) h.Put(key++);
  h.ginja->Drain();
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  ASSERT_TRUE(h.DriveToNextDump(&key));
  const std::size_t manifests_before = CountManifests(*h.store);

  // Worst case: the ack is lost AND the confirming DELETE fails, so ghost
  // manifests stay visible in the bucket. Their chunks must be
  // pessimistically pinned — otherwise a later dump's zero-ref sweep
  // deletes chunks only a ghost references, leaving a visible-but-broken
  // dump a PITR restore could select.
  losing->lose_acks_ = true;
  losing->fail_deletes_ = true;
  EXPECT_FALSE(h.DriveToNextDump(&key, 40));
  EXPECT_GT(losing->acks_lost_.load(), 0);
  EXPECT_GT(CountManifests(*h.store), manifests_before);

  // Healthy again: later dumps and their GC waves run. Every chunk any
  // visible manifest references — ghosts included — must still exist.
  losing->lose_acks_ = false;
  losing->fail_deletes_ = false;
  ASSERT_TRUE(h.DriveToNextDump(&key));
  ASSERT_TRUE(h.DriveToNextDump(&key));
  h.ginja->Stop();
  auto audit = AuditChunks(*h.store, h.ginja->envelope());
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_TRUE(audit->missing.empty())
      << "ghost manifest chunk deleted: " << audit->missing.front();

  // And recovery (which selects the newest, real manifest) sees every row.
  auto fresh = std::make_shared<MemFs>();
  ASSERT_TRUE(Ginja::Recover(h.store, DedupConfig(), h.layout, fresh).ok());
  Database recovered(fresh, h.layout);
  ASSERT_TRUE(recovered.Open().ok());
  for (int i = 0; i < key; ++i) {
    EXPECT_TRUE(recovered.Get("t", "k" + std::to_string(i)).has_value()) << i;
  }
}

TEST(DedupEndToEnd, EncryptedChunksDedupAndRecover) {
  // Convergent derived-key encryption: dedup must survive encryption
  // (identical plaintext chunks → identical ciphertext) and recovery must
  // reassemble the exact bytes through the per-chunk derived keys.
  GinjaConfig config = DedupConfig();
  config.envelope.encrypt = true;
  config.envelope.compress = true;
  config.envelope.password = "dedup-secret";
  Harness h(config);
  int key = 0;
  for (int i = 0; i < 80; ++i) h.Put(key++);
  h.ginja->Drain();
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  ASSERT_TRUE(h.DriveToNextDump(&key));
  ASSERT_TRUE(h.DriveToNextDump(&key));
  const auto& stats = h.ginja->checkpoint_stats();
  EXPECT_GT(stats.dedup_hit_bytes.Get(), 0u);
  h.ginja->Stop();

  auto fresh = std::make_shared<MemFs>();
  RecoveryReport report;
  ASSERT_TRUE(Ginja::Recover(h.store, config, h.layout, fresh, &report).ok());
  EXPECT_GT(report.chunks_downloaded, 0u);
  Database recovered(fresh, h.layout);
  ASSERT_TRUE(recovered.Open().ok());
  for (int i = 0; i < key; ++i) {
    EXPECT_TRUE(recovered.Get("t", "k" + std::to_string(i)).has_value()) << i;
  }
}

TEST(DedupEndToEnd, RebootRebuildsChunkIndexFromBucket) {
  Harness h;
  int key = 0;
  for (int i = 0; i < 60; ++i) h.Put(key++);
  h.ginja->Drain();
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  ASSERT_TRUE(h.DriveToNextDump(&key));
  h.ginja->Stop();
  const std::size_t cloud_chunks = CountChunks(*h.store);
  ASSERT_GT(cloud_chunks, 0u);

  // A clean restart on the same machine: Reboot must rebuild the chunk
  // inventory from the bucket, so the next dump dedups instead of
  // re-uploading the world.
  GinjaConfig config = DedupConfig();
  Ginja rebooted(h.local, h.store, h.clock, h.layout, config);
  ASSERT_TRUE(rebooted.Reboot().ok());
  EXPECT_EQ(rebooted.chunk_index().ChunkCount(), cloud_chunks);
  EXPECT_GT(rebooted.chunk_index().TotalChunkBytes(), 0u);
  rebooted.Kill();
}

// GETs of manifest objects fail transiently while tripped; everything
// else passes through.
class ManifestGetFailingStore : public ObjectStore {
 public:
  explicit ManifestGetFailingStore(ObjectStorePtr inner)
      : inner_(std::move(inner)) {}

  Status Put(std::string_view name, ByteView data) override {
    return inner_->Put(name, data);
  }
  Result<Bytes> Get(std::string_view name) override {
    if (failing_.load() && name.find("manifest") != std::string_view::npos) {
      return Status::Unavailable("injected: manifest GET failed");
    }
    return inner_->Get(name);
  }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix) override {
    return inner_->List(prefix);
  }
  Result<std::vector<ObjectMeta>> List(std::string_view prefix,
                                       std::string_view start_after) override {
    return inner_->List(prefix, start_after);
  }
  Status Delete(std::string_view name) override { return inner_->Delete(name); }

  std::atomic<bool> failing_{false};

 private:
  ObjectStorePtr inner_;
};

TEST(DedupReboot, TransientManifestGetFailureFailsReboot) {
  Harness h;
  int key = 0;
  for (int i = 0; i < 60; ++i) h.Put(key++);
  h.ginja->Drain();
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  ASSERT_TRUE(h.DriveToNextDump(&key));
  h.ginja->Stop();

  // A listed manifest whose GET fails transiently must fail the Reboot —
  // treating it as absent would rebuild its chunks at refcount zero, and
  // the next GC sweep would delete them under a still-visible (and
  // possibly newest) manifest.
  auto failing = std::make_shared<ManifestGetFailingStore>(h.store);
  failing->failing_ = true;
  {
    Ginja rebooted(h.local, failing, h.clock, h.layout, DedupConfig());
    EXPECT_FALSE(rebooted.Reboot().ok());
  }

  // The outage ends: the retried reboot succeeds with references intact.
  failing->failing_ = false;
  Ginja retried(h.local, failing, h.clock, h.layout, DedupConfig());
  ASSERT_TRUE(retried.Reboot().ok());
  EXPECT_FALSE(retried.chunk_index().quarantined());
  EXPECT_GT(retried.chunk_index().ChunkCount(), 0u);
  // Every chunk is referenced by the rebuilt manifest registrations, so
  // nothing is exposed to the zero-ref sweep.
  EXPECT_TRUE(retried.chunk_index().ZeroRefChunks().empty());
  retried.Kill();
}

TEST(DedupReboot, CorruptManifestQuarantinesZeroRefSweep) {
  Harness h;
  int key = 0;
  for (int i = 0; i < 60; ++i) h.Put(key++);
  h.ginja->Drain();
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  ASSERT_TRUE(h.DriveToNextDump(&key));
  h.ginja->Stop();

  // Plant a visible manifest whose bytes can never decode (the envelope
  // MAC fails), plus an orphan chunk a zero-ref sweep would otherwise
  // delete.
  DbObjectId corrupt;
  corrupt.ts = 999'999;
  corrupt.type = DbObjectType::kManifest;
  corrupt.size = 1;
  corrupt.seq = 999;
  corrupt.part = 0;
  corrupt.total_parts = 1;
  ASSERT_TRUE(h.store->Put(corrupt.Encode(), View(Pattern(64, 8))).ok());
  const Bytes orphan_bytes = Pattern(32, 9);
  const Sha1::Digest orphan_digest = Sha1::Hash(View(orphan_bytes));
  ASSERT_TRUE(h.store
                  ->Put(ChunkObjectId{orphan_digest, 32}.Encode(),
                        View(orphan_bytes))
                  .ok());

  // Corruption is not transient, so the reboot proceeds (recovery rejects
  // the manifest the same way) — but the zero-ref sweep is quarantined:
  // the corrupt manifest's references are unknowable, so no chunk can be
  // proven deletable.
  Ginja rebooted(h.local, h.store, h.clock, h.layout, DedupConfig());
  ASSERT_TRUE(rebooted.Reboot().ok());
  EXPECT_TRUE(rebooted.chunk_index().quarantined());
  EXPECT_TRUE(rebooted.chunk_index().Contains(orphan_digest));
  EXPECT_TRUE(rebooted.chunk_index().ZeroRefChunks().empty());
  rebooted.Kill();
}

// dedup_dumps only chooses how a new dump is written: chunks an earlier
// run left behind stay known to GC after the flag is turned off, so the
// first monolithic dump that supersedes their manifest collects them.
TEST(DedupReboot, TurningDedupOffCollectsOldChunks) {
  Harness h;
  int key = 0;
  for (int i = 0; i < 60; ++i) h.Put(key++);
  h.ginja->Drain();
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  ASSERT_TRUE(h.DriveToNextDump(&key));
  h.ginja->Stop();
  ASSERT_GT(CountChunks(*h.store), 0u);
  ASSERT_EQ(CountManifests(*h.store), 1u);

  Ginja rebooted(h.local, h.store, h.clock, h.layout,
                 DedupConfig(/*dedup=*/false));
  ASSERT_TRUE(rebooted.Reboot().ok());
  h.intercept->SetListener(&rebooted);
  bool dumped = false;
  for (int round = 0; round < 200 && !dumped; ++round) {
    h.Put(key++);
    rebooted.Drain();
    ASSERT_TRUE(h.db->Checkpoint().ok());
    rebooted.Drain();
    dumped = rebooted.checkpoint_stats().dumps_uploaded.Get() > 0;
  }
  rebooted.Stop();
  h.intercept->SetListener(h.ginja.get());  // `rebooted` dies first
  ASSERT_TRUE(dumped);

  EXPECT_EQ(CountManifests(*h.store), 0u);
  EXPECT_EQ(CountChunks(*h.store), 0u);
  auto audit = AuditChunks(*h.store, h.ginja->envelope());
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->orphans.empty());
  EXPECT_TRUE(audit->missing.empty());
}

// -- garbage collection under retention --------------------------------------

TEST(DedupGc, ProtectedManifestKeepsItsChunksThroughLaterDumps) {
  Harness h;
  int key = 0;
  for (int i = 0; i < 80; ++i) h.Put(key++);
  h.ginja->Drain();
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  ASSERT_TRUE(h.DriveToNextDump(&key));

  // Protect the current state, then churn through two more dumps whose GC
  // would otherwise supersede it.
  auto protected_ts = h.ginja->ProtectCurrentState();
  ASSERT_TRUE(protected_ts.has_value());
  const int protected_keys = key;
  ASSERT_TRUE(h.DriveToNextDump(&key));
  ASSERT_TRUE(h.DriveToNextDump(&key));
  h.ginja->Stop();

  // No manifest-referenced chunk may have been deleted — in particular
  // none of the protected manifest's.
  auto audit = AuditChunks(*h.store, h.ginja->envelope());
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->missing.empty()) << audit->missing.front();
  EXPECT_GE(audit->manifests, 2u);  // the protected one plus the newest

  // Point-in-time recovery to the protected state still works, chunk by
  // chunk, and sees exactly the protected prefix.
  auto as_of = std::make_shared<MemFs>();
  RecoveryReport report;
  ASSERT_TRUE(Ginja::Recover(h.store, DedupConfig(), h.layout, as_of, &report,
                             protected_ts)
                  .ok());
  Database recovered(as_of, h.layout);
  ASSERT_TRUE(recovered.Open().ok());
  for (int i = 0; i < protected_keys; ++i) {
    EXPECT_TRUE(recovered.Get("t", "k" + std::to_string(i)).has_value()) << i;
  }
  EXPECT_FALSE(
      recovered.Get("t", "k" + std::to_string(key - 1)).has_value());

  // Releasing the point lets the next dump's GC reclaim the old chunks.
  h.ginja->retention().Release(*protected_ts);
}

TEST(DedupGc, ConcurrentCommitsAndDumpsLeakNoChunks) {
  // Commits race checkpoints (and therefore dumps + GC) from another
  // thread while retention toggles on and off — the refcount invariants
  // must hold at quiescence: every referenced chunk present, nothing
  // unreferenced left behind, and the final image recoverable.
  Harness h;
  std::atomic<bool> stop{false};
  std::atomic<int> committed{0};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      auto txn = h.db->Begin();
      if (!h.db->Put(txn, "t", "k" + std::to_string(i),
                     ToBytes("v" + std::to_string(i)))
               .ok() ||
          !h.db->Commit(txn).ok()) {
        break;
      }
      committed.store(++i);
    }
  });

  const auto& stats = h.ginja->checkpoint_stats();
  std::optional<std::uint64_t> pin;
  for (int round = 0; round < 40 && stats.dumps_uploaded.Get() < 4; ++round) {
    if (round == 10) pin = h.ginja->ProtectCurrentState();
    if (round == 25 && pin) {
      h.ginja->retention().Release(*pin);
      pin.reset();
    }
    ASSERT_TRUE(h.db->Checkpoint().ok());
    h.ginja->Drain();
  }
  stop = true;
  writer.join();
  h.ginja->Stop();

  auto audit = AuditChunks(*h.store, h.ginja->envelope());
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_TRUE(audit->missing.empty())
      << "referenced chunk deleted: " << audit->missing.front();
  EXPECT_TRUE(audit->orphans.empty())
      << "leaked chunk: " << audit->orphans.front();

  auto fresh = std::make_shared<MemFs>();
  ASSERT_TRUE(Ginja::Recover(h.store, DedupConfig(), h.layout, fresh).ok());
  Database recovered(fresh, h.layout);
  ASSERT_TRUE(recovered.Open().ok());
}

// -- warm standby chunk reuse -------------------------------------------------

TEST(DedupStandby, ResyncReusesLocalChunks) {
  auto store = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  const GinjaConfig config = DedupConfig();

  Harness h(config, store);
  int key = 0;
  for (int i = 0; i < 100; ++i) h.Put(key++);
  h.ginja->Drain();
  ASSERT_TRUE(h.db->Checkpoint().ok());
  h.ginja->Drain();
  ASSERT_TRUE(h.DriveToNextDump(&key));

  // Bootstrap only (the poll never fires): the standby holds the image as
  // of the first dump era.
  StandbyOptions lazy;
  lazy.poll_interval_us = 60'000'000;
  StandbyReplica standby(store, config, clock, lazy);
  ASSERT_TRUE(standby.Start().ok());
  const std::uint64_t frontier = standby.next_ts();

  // The primary moves on: small churn, another dump, GC deletes the
  // standby's WAL frontier — promotion must fall back to a full resync.
  ASSERT_TRUE(h.DriveToNextDump(&key));
  h.ginja->Stop();
  bool frontier_gone = true;
  auto remaining = store->List("WAL/");
  ASSERT_TRUE(remaining.ok());
  for (const auto& meta : *remaining) {
    auto id = WalObjectId::Decode(meta.name);
    if (id && id->ts == frontier) frontier_gone = false;
  }
  ASSERT_TRUE(frontier_gone) << "GC kept the frontier; test premise broken";

  auto promotion = standby.Promote();
  ASSERT_TRUE(promotion.ok()) << promotion.status().ToString();
  EXPECT_TRUE(promotion->resynced);

  // The resync recovered from the *new* manifest, but most of its chunks
  // were already materialized locally: reuse must beat re-download.
  const RecoveryReport r = standby.report();
  EXPECT_GT(r.chunks_reused, 0u);

  auto cold = std::make_shared<MemFs>();
  ASSERT_TRUE(Ginja::Recover(store, config, h.layout, cold).ok());
  ExpectSameFiles(Files(*cold), Files(*standby.image()));
}

// -- fleet --------------------------------------------------------------------

TEST(DedupFleet, TenantsKeepPrivateChunkNamespaces) {
  auto base = std::make_shared<MemoryStore>();
  auto clock = std::make_shared<RealClock>();
  GinjaFleet fleet(std::make_shared<FleetRuntime>(base, clock));

  auto boot = [&](const std::string& id) {
    auto local = std::make_shared<MemFs>();
    auto intercept = std::make_shared<InterceptFs>(local, clock);
    auto db = std::make_unique<Database>(intercept, DbLayout::Postgres());
    EXPECT_TRUE(db->Create().ok());
    EXPECT_TRUE(db->CreateTable("t").ok());
    GinjaFleet::TenantSpec spec;
    spec.id = id;
    spec.local_vfs = local;
    spec.layout = DbLayout::Postgres();
    spec.config = DedupConfig();
    auto added = fleet.AddTenant(std::move(spec));
    EXPECT_TRUE(added.ok());
    EXPECT_TRUE((*added)->Boot().ok());
    intercept->SetListener(*added);
    return std::make_tuple(std::move(local), std::move(intercept), std::move(db),
                           *added);
  };
  auto a = boot("alpha");
  auto b = boot("beta");
  fleet.StopAll();

  // Boot dumps with dedup on: each tenant's chunks live under its own
  // "t/<id>/CHUNK/" prefix of the shared bucket — same engine bytes, two
  // private copies, no cross-tenant dedup channel.
  auto alpha_chunks = base->List("t/alpha/CHUNK/");
  auto beta_chunks = base->List("t/beta/CHUNK/");
  ASSERT_TRUE(alpha_chunks.ok());
  ASSERT_TRUE(beta_chunks.ok());
  EXPECT_GT(alpha_chunks->size(), 0u);
  EXPECT_GT(beta_chunks->size(), 0u);
  auto bare = base->List("CHUNK/");
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->empty());  // nothing escapes the tenant namespaces

  // Each tenant recovers from its own namespaced view, chunks included.
  for (const std::string id : {"alpha", "beta"}) {
    auto fresh = std::make_shared<MemFs>();
    RecoveryReport report;
    ASSERT_TRUE(Ginja::Recover(fleet.TenantStore(id), DedupConfig(),
                               DbLayout::Postgres(), fresh, &report)
                    .ok())
        << id;
    EXPECT_GT(report.chunks_downloaded, 0u) << id;
  }
}

// -- the LocalDbSizeBytes cache ----------------------------------------------

TEST(DedupSizeCache, StaysExactAcrossWritesAndInvalidatesOnShrink) {
  auto store = std::make_shared<MemoryStore>();
  auto view = std::make_shared<CloudView>();
  auto clock = std::make_shared<RealClock>();
  auto envelope = std::make_shared<Envelope>(EnvelopeOptions{});
  auto fs = std::make_shared<MemFs>();
  const DbLayout layout = DbLayout::Postgres();
  ASSERT_TRUE(fs->Write("base/t", 0, View(Pattern(8192, 1)), false).ok());
  ASSERT_TRUE(fs->Write("global/pg_control", 0, View(Pattern(512, 2)), false).ok());
  ASSERT_TRUE(
      fs->Write("pg_xlog/000000010000000000000001", 0, View(Pattern(4096, 3)),
                false)
          .ok());  // WAL: excluded from the 150% baseline

  GinjaConfig config;
  CheckpointPipeline pipeline(store, view, clock, config, envelope, fs, layout);
  EXPECT_EQ(pipeline.LocalDbSizeBytes(), 8192u + 512u);

  // In-place rewrite: observed via AddWrite, total unchanged, no re-walk.
  auto write = [&](const std::string& path, std::uint64_t offset, Bytes data) {
    ASSERT_TRUE(fs->Write(path, offset, View(data), false).ok());
    FileEntry entry;
    entry.path = path;
    entry.offset = offset;
    entry.data = std::move(data);
    pipeline.AddWrite(std::move(entry));
  };
  write("base/t", 0, Pattern(4096, 9));
  EXPECT_EQ(pipeline.LocalDbSizeBytes(), 8192u + 512u);
  // Extending write: the cached total grows by exactly the extension.
  write("base/t", 8192, Pattern(8192, 4));
  EXPECT_EQ(pipeline.LocalDbSizeBytes(), 16384u + 512u);
  // New file: its full extent joins the total.
  write("base/t2", 0, Pattern(1024, 5));
  EXPECT_EQ(pipeline.LocalDbSizeBytes(), 16384u + 512u + 1024u);
  // WAL-segment writes never move the baseline.
  write("pg_xlog/000000010000000000000001", 4096, Pattern(4096, 6));
  EXPECT_EQ(pipeline.LocalDbSizeBytes(), 16384u + 512u + 1024u);

  // Shrinks go through invalidation (the processor's non-write hook).
  ASSERT_TRUE(fs->Truncate("base/t", 8192).ok());
  pipeline.InvalidateLocalDbSizeCache();
  EXPECT_EQ(pipeline.LocalDbSizeBytes(), 8192u + 512u + 1024u);
  ASSERT_TRUE(fs->Remove("base/t2").ok());
  pipeline.InvalidateLocalDbSizeCache();
  EXPECT_EQ(pipeline.LocalDbSizeBytes(), 8192u + 512u);
}

}  // namespace
}  // namespace ginja
