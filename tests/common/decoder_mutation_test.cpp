// Seeded-mutation tests for the in-place decoders: Lzss::DecompressInto,
// Lzh::DecompressInto, Envelope::DecodeInto (GNJ1, GNJ2 and GNJ3), the
// view-returning DecodeEntries and the GMF1 manifest decoder — plus the object-name
// decoders, which must accept only the spelling they encode. Every truncation point and a few hundred seeded
// single-byte flips of valid streams must fail cleanly (false or
// Corruption, a MAC failure for authenticated bytes) and never touch
// memory outside the decoder's buffers. Writes are fenced with canary
// bytes; inputs live in exactly-sized heap buffers so AddressSanitizer
// (which runs this suite in CI) also flags a read past their end.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "common/codec/envelope.h"
#include "common/codec/hmac.h"
#include "common/codec/lzh.h"
#include "common/codec/lzss.h"
#include "common/rng.h"
#include "ginja/dedup.h"
#include "ginja/object_id.h"
#include "ginja/payload.h"
#include "tests/common/codec_inputs.h"

namespace ginja {
namespace {

constexpr int kFlips = 300;

Bytes PageLike(std::size_t size, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes out;
  out.reserve(size);
  while (out.size() < size) {
    const std::uint64_t key = rng.Next();
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(key >> (8 * i)));
    for (int i = 0; i < 40 && out.size() < size; ++i) {
      out.push_back(static_cast<std::uint8_t>('a' + i % 26));
    }
  }
  out.resize(size);
  return out;
}

// An exactly-sized copy: the range constructor allocates size() bytes, so
// the heap redzone starts right after the last one.
Bytes Exact(ByteView v) { return Bytes(v.begin(), v.end()); }

// `len` writable bytes between two canary fences.
class FencedBuffer {
 public:
  explicit FencedBuffer(std::size_t len) : bytes_(len + 2 * kGuard, kCanary), len_(len) {}
  std::uint8_t* data() { return bytes_.data() + kGuard; }
  std::size_t size() const { return len_; }
  ByteView view() const { return ByteView(bytes_.data() + kGuard, len_); }
  bool FencesIntact() const {
    for (std::size_t i = 0; i < kGuard; ++i) {
      if (bytes_[i] != kCanary || bytes_[kGuard + len_ + i] != kCanary) return false;
    }
    return true;
  }

 private:
  static constexpr std::size_t kGuard = 64;
  static constexpr std::uint8_t kCanary = 0xC5;
  Bytes bytes_;
  std::size_t len_;
};

// -- LZSS -----------------------------------------------------------------------

TEST(DecoderMutation, LzssDecompressIntoRoundTripsAndChecksTheSize) {
  const Bytes plain = PageLike(4096, 1);
  const Bytes stream = Lzss::Compress(View(plain));
  FencedBuffer out(plain.size());
  ASSERT_TRUE(Lzss::DecompressInto(View(stream), out.data(), out.size()));
  EXPECT_TRUE(std::equal(plain.begin(), plain.end(), out.view().begin()));
  EXPECT_TRUE(out.FencesIntact());
  ASSERT_EQ(Lzss::DecodedSize(View(stream)).value_or(0), plain.size());

  for (std::size_t wrong : {plain.size() - 1, plain.size() + 1, std::size_t{0}}) {
    FencedBuffer other(wrong);
    EXPECT_FALSE(Lzss::DecompressInto(View(stream), other.data(), other.size())) << wrong;
    EXPECT_TRUE(other.FencesIntact()) << wrong;
  }
  Bytes trailing = stream;
  trailing.push_back(0);  // the encoder never leaves bytes after the last token
  EXPECT_FALSE(Lzss::DecompressInto(View(trailing), out.data(), out.size()));
}

TEST(DecoderMutation, LzssRejectsEveryTruncation) {
  const Bytes plain = PageLike(4096, 2);
  const Bytes stream = Lzss::Compress(View(plain));
  for (std::size_t keep = 0; keep < stream.size(); ++keep) {
    const Bytes cut = Exact(ByteView(stream.data(), keep));
    FencedBuffer out(plain.size());
    EXPECT_FALSE(Lzss::DecompressInto(View(cut), out.data(), out.size())) << keep;
    EXPECT_TRUE(out.FencesIntact()) << keep;
    EXPECT_FALSE(Lzss::Decompress(View(cut)).has_value()) << keep;
  }
}

TEST(DecoderMutation, LzssSeededFlipsStayInBounds) {
  const Bytes plain = PageLike(4096, 3);
  const Bytes stream = Lzss::Compress(View(plain));
  SplitMix64 rng(31);
  for (int trial = 0; trial < kFlips; ++trial) {
    Bytes mutated = Exact(View(stream));
    mutated[rng.NextBelow(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    FencedBuffer out(plain.size());
    (void)Lzss::DecompressInto(View(mutated), out.data(), out.size());
    EXPECT_TRUE(out.FencesIntact()) << "trial " << trial;
    // Decompress sizes its own buffer from the (possibly flipped) header.
    const auto decoded = Lzss::Decompress(View(mutated));
    EXPECT_LE(decoded.value_or(Bytes{}).size(), mutated.size() * Lzss::kMaxMatch);
  }
}

TEST(DecoderMutation, LzssRejectsHandCraftedMalformedTokens) {
  auto decode = [](const Bytes& stream, std::size_t len) {
    FencedBuffer out(len);
    const bool ok = Lzss::DecompressInto(View(stream), out.data(), out.size());
    EXPECT_TRUE(out.FencesIntact());
    return ok;
  };
  Bytes before_start;  // back-reference reaching before the buffer
  PutVarint(before_start, 10);
  before_start.push_back(0x01);
  PutVarint(before_start, 5);
  PutVarint(before_start, 0);
  EXPECT_FALSE(decode(before_start, 10));

  Bytes overrun;  // literal 'a', then a 4-byte match that overruns size 3
  PutVarint(overrun, 3);
  overrun.push_back(0x02);
  overrun.push_back('a');
  PutVarint(overrun, 1);
  PutVarint(overrun, 0);
  EXPECT_FALSE(decode(overrun, 3));

  Bytes too_long;  // a match longer than kMaxMatch is never emitted
  PutVarint(too_long, 1 + 300);
  too_long.push_back(0x02);
  too_long.push_back('a');
  PutVarint(too_long, 1);
  PutVarint(too_long, 300 - Lzss::kMinMatch);
  EXPECT_FALSE(decode(too_long, 301));

  Bytes huge;  // a header declaring far more than the stream can expand to
  PutVarint(huge, std::uint64_t{1} << 40);
  huge.push_back(0);
  huge.push_back('a');
  EXPECT_FALSE(Lzss::DecodedSize(View(huge)).has_value());
  EXPECT_FALSE(Lzss::Decompress(View(huge)).has_value());
}

// -- Lzh --------------------------------------------------------------------------

// A page-shaped and a WAL-shaped input: the first codes mostly matches,
// the second mostly literals, so flips land in both kinds of code.
std::vector<Bytes> LzhInputs(std::uint64_t seed) {
  return {testing_inputs::PageShaped(6000, seed), testing_inputs::WalShaped(3000, seed + 1)};
}

TEST(DecoderMutation, LzhDecompressIntoRoundTripsAndChecksTheSize) {
  for (const Bytes& plain : LzhInputs(1)) {
    const Bytes stream = Lzh::Compress(View(plain));
    FencedBuffer out(plain.size());
    ASSERT_TRUE(Lzh::DecompressInto(View(stream), out.data(), out.size()));
    EXPECT_TRUE(std::equal(plain.begin(), plain.end(), out.view().begin()));
    EXPECT_TRUE(out.FencesIntact());
    for (std::size_t wrong : {plain.size() - 1, plain.size() + 1, std::size_t{0}}) {
      FencedBuffer other(wrong);
      EXPECT_FALSE(Lzh::DecompressInto(View(stream), other.data(), other.size())) << wrong;
      EXPECT_TRUE(other.FencesIntact()) << wrong;
    }
    Bytes trailing = stream;
    trailing.push_back(0);
    EXPECT_FALSE(Lzh::DecompressInto(View(trailing), out.data(), out.size()));
  }
}

TEST(DecoderMutation, LzhRejectsEveryTruncation) {
  for (const Bytes& plain : LzhInputs(2)) {
    const Bytes stream = Lzh::Compress(View(plain));
    for (std::size_t keep = 0; keep < stream.size(); ++keep) {
      const Bytes cut = Exact(ByteView(stream.data(), keep));
      FencedBuffer out(plain.size());
      EXPECT_FALSE(Lzh::DecompressInto(View(cut), out.data(), out.size())) << keep;
      EXPECT_TRUE(out.FencesIntact()) << keep;
      EXPECT_FALSE(Lzh::Decompress(View(cut)).has_value()) << keep;
    }
  }
}

TEST(DecoderMutation, LzhSeededFlipsStayInBounds) {
  for (const Bytes& plain : LzhInputs(3)) {
    const Bytes stream = Lzh::Compress(View(plain));
    SplitMix64 rng(37);
    for (int trial = 0; trial < kFlips; ++trial) {
      Bytes mutated = Exact(View(stream));
      mutated[rng.NextBelow(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
      FencedBuffer out(plain.size());
      (void)Lzh::DecompressInto(View(mutated), out.data(), out.size());
      EXPECT_TRUE(out.FencesIntact()) << "trial " << trial;
      const auto decoded = Lzh::Decompress(View(mutated));
      EXPECT_LE(decoded.value_or(Bytes{}).size(), mutated.size() * Lzh::kMaxExpansion);
    }
  }
}

// -- Envelope -------------------------------------------------------------------

enum class Version { kV1, kV2, kV3 };

struct Sample {
  Bytes enveloped;
  Bytes payload;
  // Offsets where a truncated v3 stream is still a valid (torn) stream,
  // with the payload prefix it decodes to.
  std::vector<std::pair<std::size_t, std::size_t>> clean_cuts;
  // Bytes outside every MAC: the v1/v2 header's flags and nonce, and the
  // v3 prologue's reserved flags byte.
  std::set<std::size_t> unauthenticated;
};

EnvelopeOptions Options(int mode) {
  EnvelopeOptions o;
  o.compress = (mode & 1) != 0;
  o.encrypt = (mode & 2) != 0;
  o.password = "mutation-test";
  o.parallel_encode_threshold = 2048;
  o.encode_chunk_bytes = 1024;
  return o;
}

void MarkHeader(std::size_t at, std::set<std::size_t>* out) {
  for (std::size_t i = 4; i < 13; ++i) out->insert(at + i);
}

Sample MakeSample(const Envelope& env, Version version) {
  Sample s;
  if (version != Version::kV3) {
    s.payload = PageLike(version == Version::kV1 ? 1500 : 5000, 7);
    s.enveloped = env.Encode(View(s.payload), 42);
    MarkHeader(0, &s.unauthenticated);
    return s;
  }
  s.enveloped = Envelope::StreamPrologue();
  s.unauthenticated.insert(4);
  s.clean_cuts.push_back({s.enveloped.size(), 0});
  for (std::size_t i = 0; i < 3; ++i) {
    const Bytes seg_payload = PageLike(i == 1 ? 4000 : 700, 20 + i);  // v1, v2, v1
    const Bytes seg = env.Encode(View(seg_payload), 100 + i);
    MarkHeader(s.enveloped.size() + 4, &s.unauthenticated);
    Envelope::AppendStreamSegment(s.enveloped, View(seg));
    Append(s.payload, View(seg_payload));
    s.clean_cuts.push_back({s.enveloped.size(), s.payload.size()});
  }
  return s;
}

class EnvelopeMutation : public ::testing::TestWithParam<std::tuple<Version, int>> {
 protected:
  EnvelopeMutation() : env_(Options(std::get<1>(GetParam()))) {}
  Envelope env_;
};

TEST_P(EnvelopeMutation, DecodeIntoRoundTripsThroughAReusedBuffer) {
  const Sample s = MakeSample(env_, std::get<0>(GetParam()));
  // A buffer left larger by a previous decode, then one left smaller: the
  // result is exactly the payload either way.
  for (std::size_t prior : {s.payload.size() * 3, std::size_t{17}}) {
    Bytes out(prior, 0xEE);
    ASSERT_TRUE(env_.DecodeInto(View(s.enveloped), out).ok());
    EXPECT_EQ(out, s.payload) << "prior=" << prior;
  }
  auto fresh = env_.Decode(View(s.enveloped));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, s.payload);
}

TEST_P(EnvelopeMutation, EveryTruncationFailsOrIsACleanStreamCut) {
  const Sample s = MakeSample(env_, std::get<0>(GetParam()));
  Bytes out;
  for (std::size_t keep = 0; keep < s.enveloped.size(); ++keep) {
    const Bytes cut = Exact(ByteView(s.enveloped.data(), keep));
    const Status st = env_.DecodeInto(View(cut), out);
    std::optional<std::size_t> clean;
    for (const auto& [at, prefix] : s.clean_cuts) {
      if (at == keep) clean = prefix;
    }
    if (clean) {
      ASSERT_TRUE(st.ok()) << "keep=" << keep << " " << st.ToString();
      EXPECT_EQ(out, Bytes(s.payload.begin(), s.payload.begin() + static_cast<long>(*clean)));
    } else {
      EXPECT_EQ(st.code(), ErrorCode::kCorruption) << "keep=" << keep;
    }
  }
}

TEST_P(EnvelopeMutation, SeededFlipsFailOutsideTheUnauthenticatedHeaderBytes) {
  const Sample s = MakeSample(env_, std::get<0>(GetParam()));
  SplitMix64 rng(57);
  Bytes out;
  for (int trial = 0; trial < kFlips; ++trial) {
    Bytes mutated = Exact(View(s.enveloped));
    const std::size_t at = rng.NextBelow(mutated.size());
    mutated[at] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    const Status st = env_.DecodeInto(View(mutated), out);
    if (s.unauthenticated.count(at) == 0) {
      EXPECT_EQ(st.code(), ErrorCode::kCorruption) << "trial " << trial << " at " << at;
    }
  }
}

TEST(DecoderMutation, EnvelopeFlipsBehindAResealedMacStayInBounds) {
  // Re-sealing the MAC after the flip hands corrupt bodies to the
  // structural decoders (v2 token table, chunk slices, Lzh) — the inputs
  // a MAC normally screens out — so they must bounds-check on their own.
  for (const Version version : {Version::kV1, Version::kV2}) {
    for (const int mode : {0, 1, 3}) {
      const Envelope env(Options(mode));
      const Sample s = MakeSample(env, version);
      const auto mac_key = DeriveKey(env.options().password, "ginja-mac");
      SplitMix64 rng(91 + mode);
      Bytes out;
      for (int trial = 0; trial < kFlips; ++trial) {
        Bytes mutated = Exact(View(s.enveloped));
        const std::size_t at =
            Envelope::kHeaderSize + rng.NextBelow(mutated.size() - Envelope::kHeaderSize);
        mutated[at] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
        const MacTag mac = HmacSha1(ByteView(mac_key.data(), mac_key.size()),
                                    ByteView(mutated).subspan(Envelope::kHeaderSize));
        std::memcpy(mutated.data() + 13, mac.data(), mac.size());
        const Status st = env.DecodeInto(View(mutated), out);
        if (!st.ok()) {
          EXPECT_EQ(st.code(), ErrorCode::kCorruption) << "trial " << trial;
        } else {
          EXPECT_LE(out.size(), mutated.size() * Lzh::kMaxExpansion) << "trial " << trial;
        }
      }
    }
  }
}

TEST(DecoderMutation, LegacyLzssEnvelopeFlipsBehindAResealedMacStayInBounds) {
  // The same for the frozen objects whose bodies are LZSS streams (flag
  // 0x04 clear), which still go through the LZSS decoder.
  EnvelopeOptions options;
  options.compress = true;
  options.encrypt = true;
  options.password = "legacy-fixture";
  const Envelope env(options);
  const auto mac_key = DeriveKey(options.password, "ginja-mac");
  for (const char* name : {"gnj1_compress_encrypt.bin", "gnj2_compress_encrypt.bin"}) {
    std::ifstream f(std::string(GINJA_FIXTURE_DIR) + "/" + name, std::ios::binary);
    const Bytes object((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
    ASSERT_GT(object.size(), Envelope::kHeaderSize) << name;
    SplitMix64 rng(97);
    Bytes out;
    for (int trial = 0; trial < kFlips; ++trial) {
      Bytes mutated = Exact(View(object));
      const std::size_t at =
          Envelope::kHeaderSize + rng.NextBelow(mutated.size() - Envelope::kHeaderSize);
      mutated[at] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
      const MacTag mac = HmacSha1(ByteView(mac_key.data(), mac_key.size()),
                                  ByteView(mutated).subspan(Envelope::kHeaderSize));
      std::memcpy(mutated.data() + 13, mac.data(), mac.size());
      const Status st = env.DecodeInto(View(mutated), out);
      if (!st.ok()) {
        EXPECT_EQ(st.code(), ErrorCode::kCorruption) << name << " trial " << trial;
      } else {
        EXPECT_LE(out.size(), mutated.size() * Lzss::kMaxMatch) << name << " trial " << trial;
      }
    }
  }
}

std::string MutationCaseName(
    const ::testing::TestParamInfo<std::tuple<Version, int>>& info) {
  static const char* kVersions[] = {"V1", "V2", "V3"};
  static const char* kModes[] = {"Plain", "Compress", "Encrypt", "CompressEncrypt"};
  return std::string(kVersions[static_cast<int>(std::get<0>(info.param))]) +
         kModes[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    DecoderMutation, EnvelopeMutation,
    ::testing::Combine(::testing::Values(Version::kV1, Version::kV2, Version::kV3),
                       ::testing::Values(0, 1, 3)),  // plain, compress, both
    MutationCaseName);

// -- DecodeEntries ----------------------------------------------------------------

Bytes SamplePayload() {
  std::vector<FileEntry> entries;
  entries.push_back({"pg_xlog/000000010000000000000001", 16384, PageLike(300, 1)});
  entries.push_back({"base/16384/2611", 0, PageLike(8192, 2)});
  entries.push_back({"empty", 5, Bytes{}});
  return EncodeEntries(entries);
}

bool Within(ByteView outer, const std::uint8_t* p, std::size_t n) {
  return n == 0 || (p >= outer.data() && n <= outer.size() &&
                    p - outer.data() <= static_cast<std::ptrdiff_t>(outer.size() - n));
}

TEST(DecoderMutation, DecodeEntriesRejectsEveryTruncation) {
  const Bytes full = SamplePayload();
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    const Bytes cut = Exact(ByteView(full.data(), keep));
    EXPECT_FALSE(DecodeEntries(View(cut)).ok()) << "keep=" << keep;
  }
}

TEST(DecoderMutation, DecodeEntriesFlipsYieldViewsInsideThePayload) {
  const Bytes full = SamplePayload();
  SplitMix64 rng(77);
  for (int trial = 0; trial < kFlips; ++trial) {
    Bytes mutated = Exact(View(full));
    mutated[rng.NextBelow(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    auto entries = DecodeEntries(View(mutated));
    if (!entries.ok()) {
      EXPECT_EQ(entries.status().code(), ErrorCode::kCorruption);
      continue;
    }
    for (const FileEntryRef& e : *entries) {
      EXPECT_TRUE(Within(View(mutated), reinterpret_cast<const std::uint8_t*>(e.path.data()),
                         e.path.size()))
          << "trial " << trial;
      EXPECT_TRUE(Within(View(mutated), e.data.data(), e.data.size())) << "trial " << trial;
    }
  }
}

// -- GMF1 manifests ------------------------------------------------------------

Bytes SampleManifest() {
  std::vector<ChunkRef> refs;
  for (std::uint32_t i = 0; i < 4; ++i) {
    ChunkRef ref;
    ref.path = i < 2 ? "base/16384/2611" : "";  // an empty path is the smallest ref
    ref.offset = std::uint64_t{i} * 65536;
    ref.length = 65536 + i;
    for (std::size_t k = 0; k < ref.digest.size(); ++k) {
      ref.digest[k] = static_cast<std::uint8_t>(i * 31 + k);
    }
    refs.push_back(std::move(ref));
  }
  return EncodeManifest(refs);
}

TEST(DecoderMutation, ManifestRejectsACountPastThePayload) {
  // Magic plus a 9-byte varint count of 2^60: 13 bytes that once asked
  // reserve() for 2^60 refs.
  Bytes payload = Exact(ByteView(SampleManifest().data(), 4));
  PutVarint(payload, std::uint64_t{1} << 60);
  ASSERT_EQ(payload.size(), 13u);
  auto refs = DecodeManifest(View(Exact(View(payload))));
  ASSERT_FALSE(refs.ok());
  EXPECT_EQ(refs.status().code(), ErrorCode::kCorruption);
}

TEST(DecoderMutation, ManifestRejectsEveryTruncation) {
  const Bytes full = SampleManifest();
  ASSERT_TRUE(DecodeManifest(View(full)).ok());
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    const Bytes cut = Exact(ByteView(full.data(), keep));
    auto refs = DecodeManifest(View(cut));
    ASSERT_FALSE(refs.ok()) << "keep=" << keep;
    EXPECT_EQ(refs.status().code(), ErrorCode::kCorruption) << "keep=" << keep;
  }
}

TEST(DecoderMutation, ManifestFlipsFailCleanlyOrStayBounded) {
  const Bytes full = SampleManifest();
  SplitMix64 rng(91);
  for (int trial = 0; trial < kFlips; ++trial) {
    Bytes mutated = Exact(View(full));
    mutated[rng.NextBelow(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    auto refs = DecodeManifest(View(mutated));
    if (!refs.ok()) {
      EXPECT_EQ(refs.status().code(), ErrorCode::kCorruption) << "trial " << trial;
      continue;
    }
    EXPECT_LE(refs->size() * 23, mutated.size()) << "trial " << trial;
    for (const ChunkRef& ref : *refs) {
      EXPECT_LE(ref.path.size(), mutated.size()) << "trial " << trial;
    }
  }
}

// -- object names ----------------------------------------------------------------

// Accepted names re-encode to themselves: the planner and GC address
// objects by id.Encode(), so a second spelling of one id would make them
// GET or DELETE a name that is not in the bucket.
template <typename Id>
void ExpectOnlyCanonicalNamesDecode(const std::string& valid, std::uint64_t seed) {
  static constexpr char kAlphabet[] = "0123456789_|/ofpslWALTDBCHUNKdumpcheckmanifestx";
  SplitMix64 rng(seed);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string name = valid;
    const int edits = 1 + static_cast<int>(rng.NextBelow(3));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.NextBelow(name.size() + 1);
      const char c = kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
      switch (rng.NextBelow(4)) {
        case 0: if (pos < name.size()) name[pos] = c; break;         // substitute
        case 1: name.insert(pos, 1, c); break;                      // insert
        case 2: if (pos < name.size()) name.erase(pos, 1); break;    // delete
        default: name.insert(pos, rng.NextBelow(2) ? "0" : "429496729"); break;
      }
    }
    if (auto id = Id::Decode(name)) {
      ++accepted;
      EXPECT_EQ(id->Encode(), name) << "seed " << seed << " trial " << trial;
    }
  }
  EXPECT_GT(accepted, 0) << "no mutation of " << valid << " decoded";
}

TEST(DecoderMutation, WalNamesDecodeOnlyInCanonicalSpelling) {
  ExpectOnlyCanonicalNamesDecode<WalObjectId>("WAL/7_pg_xlog|0001_8192_1200", 11);
}

TEST(DecoderMutation, TailNamesDecodeOnlyInCanonicalSpelling) {
  ExpectOnlyCanonicalNamesDecode<TailObjectId>("WALTAIL/3_1_0_100", 12);
}

TEST(DecoderMutation, DbNamesDecodeOnlyInCanonicalSpelling) {
  ExpectOnlyCanonicalNamesDecode<DbObjectId>("DB/10_checkpoint_4096_s2_l900_p1of3", 13);
  ExpectOnlyCanonicalNamesDecode<DbObjectId>("DB/0_manifest_65536_s0_l0_p0of1", 14);
}

TEST(DecoderMutation, ChunkNamesDecodeOnlyInCanonicalSpelling) {
  ExpectOnlyCanonicalNamesDecode<ChunkObjectId>(
      "CHUNK/00112233445566778899aabbccddeeff00112233_65536", 15);
}

}  // namespace
}  // namespace ginja
