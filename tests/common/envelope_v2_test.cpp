// Tests for the zero-copy / chunk-parallel envelope encoder: v1↔v2
// cross-version compatibility, serial-vs-parallel byte identity, CTR
// seekability, corruption rejection inside v2 chunks, and the copy-counting
// hook that guards the zero-copy property.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "common/codec/aes128.h"
#include "common/codec/codec_pool.h"
#include "common/codec/envelope.h"
#include "common/codec/hmac.h"
#include "common/codec/lzh.h"
#include "common/codec/lzss.h"
#include "common/codec/sha1.h"
#include "common/rng.h"
#include "tests/common/codec_inputs.h"

namespace ginja {
namespace {

Bytes CompressiblePayload(std::size_t size, std::uint64_t seed) {
  // Page-like data: repeated 64-byte records with a few random fields, so
  // LZSS finds matches but the payload is not trivially constant.
  SplitMix64 rng(seed);
  Bytes out;
  out.reserve(size);
  while (out.size() < size) {
    const std::uint64_t key = rng.Next();
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(key >> (8 * i)));
    }
    for (int i = 0; i < 56 && out.size() < size; ++i) {
      out.push_back(static_cast<std::uint8_t>(i));
    }
  }
  out.resize(size);
  return out;
}

Bytes RandomPayload(std::size_t size, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes out;
  out.reserve(size);
  while (out.size() < size) {
    const std::uint64_t v = rng.Next();
    for (int i = 0; i < 8 && out.size() < size; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  return out;
}

EnvelopeOptions AllOn(std::size_t threshold = 256 * 1024,
                      std::size_t chunk = 64 * 1024) {
  EnvelopeOptions o;
  o.compress = true;
  o.encrypt = true;
  o.password = "v2-test-password";
  o.parallel_encode_threshold = threshold;
  o.encode_chunk_bytes = chunk;
  return o;
}

// -- format selection ---------------------------------------------------------

TEST(EnvelopeV2, SmallPayloadsStayV1) {
  Envelope env(AllOn(/*threshold=*/1024));
  const Bytes payload = CompressiblePayload(1024, 1);  // == threshold: v1
  const Bytes enveloped = env.Encode(View(payload), 7);
  EXPECT_EQ(GetU32(enveloped.data()), 0x314A4E47u);  // 'GNJ1'
  auto decoded = env.Decode(View(enveloped));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
}

TEST(EnvelopeV2, LargePayloadsBecomeV2) {
  Envelope env(AllOn(/*threshold=*/1024, /*chunk=*/512));
  const Bytes payload = CompressiblePayload(5000, 2);
  const Bytes enveloped = env.Encode(View(payload), 7);
  EXPECT_EQ(GetU32(enveloped.data()), 0x324A4E47u);  // 'GNJ2'
  auto decoded = env.Decode(View(enveloped));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
}

// The v1 byte layout must be stable: a v1 object written by the
// single-buffer form of the encoder and one written by EncodeInto are
// interchangeable, which the verifier/failover/PITR paths rely on.
// Reproduce that form by hand (compress, encrypt, MAC, header with flags
// compressed | encrypted | entropy-coded) and compare.
TEST(EnvelopeV2, V1LayoutMatchesLegacyEncoder) {
  EnvelopeOptions o = AllOn();
  Envelope env(o);
  const Bytes payload = CompressiblePayload(4096, 3);
  const std::uint64_t nonce = 99;

  Bytes processed = Lzh::Compress(View(payload));
  ASSERT_LT(processed.size(), payload.size());
  Aes128 aes(DeriveKey(o.password, "ginja-enc"));
  processed = aes.Ctr(View(processed), nonce);
  const auto mac_key = DeriveKey(o.password, "ginja-mac");
  const MacTag mac =
      HmacSha1(ByteView(mac_key.data(), mac_key.size()), View(processed));
  Bytes legacy;
  PutU32(legacy, 0x314A4E47u);
  legacy.push_back(0x07);  // compressed | encrypted | entropy-coded
  PutU64(legacy, nonce);
  Append(legacy, ByteView(mac.data(), mac.size()));
  Append(legacy, View(processed));

  EXPECT_EQ(env.Encode(View(payload), nonce), legacy);
}

// -- objects written before the entropy stage ---------------------------------

// Frozen objects from the encoder that wrote v1 LZSS streams (flags 0x03,
// compressed | encrypted): a GNJ1 object of 16 KiB and a GNJ2 object of
// 32 KiB in four 8 KiB chunks, each holding page-shaped then WAL-shaped
// bytes (tests/common/codec_inputs.h). Buckets written then must restore.
struct LegacyFixture {
  const char* file;
  std::uint32_t magic;
  std::size_t pages, wal;  // payload = PageShaped(pages, seed) + WalShaped(wal, seed + 1)
  std::uint64_t seed;
  const char* payload_sha1;
};

constexpr LegacyFixture kLegacyFixtures[] = {
    {"gnj1_compress_encrypt.bin", 0x314A4E47u, 8 * 1024, 8 * 1024, 1,
     "0ffe46663dfefe9c74ea6b0956674fae511e9574"},
    {"gnj2_compress_encrypt.bin", 0x324A4E47u, 16 * 1024, 16 * 1024, 3,
     "3dda8a2197e671d0bcd5466febee7bd0ff1b514a"},
};

Bytes ReadFixture(const char* name) {
  std::ifstream f(std::string(GINJA_FIXTURE_DIR) + "/" + name, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

EnvelopeOptions LegacyOptions() {
  EnvelopeOptions o;
  o.compress = true;
  o.encrypt = true;
  o.password = "legacy-fixture";
  return o;
}

TEST(EnvelopeLegacy, FrozenLzssObjectsStillDecode) {
  const Envelope env(LegacyOptions());
  for (const LegacyFixture& fx : kLegacyFixtures) {
    const Bytes object = ReadFixture(fx.file);
    ASSERT_GT(object.size(), Envelope::kHeaderSize) << fx.file;
    EXPECT_EQ(GetU32(object.data()), fx.magic) << fx.file;
    EXPECT_EQ(object[4], 0x03) << fx.file;  // no entropy-coded bit

    auto payload = env.Decode(View(object));
    ASSERT_TRUE(payload.ok()) << fx.file << ": " << payload.status().ToString();
    const Sha1::Digest d = Sha1::Hash(View(*payload));
    EXPECT_EQ(ToHex(ByteView(d.data(), d.size())), fx.payload_sha1) << fx.file;
    Bytes expect = testing_inputs::PageShaped(fx.pages, fx.seed);
    Append(expect, View(testing_inputs::WalShaped(fx.wal, fx.seed + 1)));
    EXPECT_EQ(*payload, expect) << fx.file;
    auto size = env.PayloadSize(View(object));
    ASSERT_TRUE(size.ok()) << fx.file;
    EXPECT_EQ(*size, expect.size()) << fx.file;
  }
}

TEST(EnvelopeLegacy, UnknownFlagBitsAreCorruption) {
  const Envelope env(AllOn(/*threshold=*/1024, /*chunk=*/512));
  for (std::size_t size : {std::size_t{800}, std::size_t{3000}}) {  // v1, v2
    const Bytes object = env.Encode(View(CompressiblePayload(size, 8)), 5);
    ASSERT_EQ(object[4], 0x07) << size;  // compressed | encrypted | entropy-coded
    ASSERT_TRUE(env.Decode(View(object)).ok()) << size;
    // The flags byte is outside the MAC, so only the decoder's own check
    // stops these.
    for (std::uint8_t flags : {0x0F, 0x87, 0x47, 0x06}) {
      Bytes mutated = object;
      mutated[4] = flags;
      auto decoded = env.Decode(View(mutated));
      ASSERT_FALSE(decoded.ok()) << size << " flags " << int{flags};
      EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption);
    }
  }
  Bytes stream = Envelope::StreamPrologue();
  Envelope::AppendStreamSegment(stream, View(env.Encode(View(CompressiblePayload(800, 9)), 6)));
  ASSERT_TRUE(env.Decode(View(stream)).ok());
  stream[4] = 0x01;  // the v3 prologue's reserved flags
  auto decoded = env.Decode(View(stream));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption);
}

TEST(EnvelopeLegacy, EveryEncodeCompressesWithTheEntropyCodedStream) {
  // A v1 object's body and each compressed v2 chunk are Lzh streams.
  const Envelope env(AllOn(/*threshold=*/4096, /*chunk=*/2048));
  EnvelopeOptions plain = AllOn(4096, 2048);
  plain.encrypt = false;
  const Envelope clear(plain);
  const Bytes payload = CompressiblePayload(2000, 10);
  const Bytes v1 = clear.Encode(View(payload), 3);
  ASSERT_EQ(v1[4], 0x05);  // compressed | entropy-coded
  EXPECT_EQ(Lzh::Decompress(ByteView(v1).subspan(Envelope::kHeaderSize)).value_or(Bytes{}),
            payload);
  const Bytes big = CompressiblePayload(6000, 11);
  const Bytes v2 = clear.Encode(View(big), 4);
  ASSERT_EQ(GetU32(v2.data()), 0x324A4E47u);
  EXPECT_EQ(v2[4], 0x05);
  auto decoded = env.Decode(View(env.Encode(View(big), 4)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, big);
}

// -- cross-version round trips ------------------------------------------------

TEST(EnvelopeV2, CrossVersionRoundTrip) {
  // The same logical payload written under both thresholds decodes through
  // one Envelope regardless of which version produced it.
  const Bytes payload = CompressiblePayload(96 * 1024, 4);
  Envelope v1_writer(AllOn(/*threshold=*/1 << 20));        // always v1
  Envelope v2_writer(AllOn(/*threshold=*/1, /*chunk=*/8 * 1024));  // always v2
  Envelope reader(AllOn());

  const Bytes as_v1 = v1_writer.Encode(View(payload), 11);
  const Bytes as_v2 = v2_writer.Encode(View(payload), 11);
  EXPECT_EQ(GetU32(as_v1.data()), 0x314A4E47u);
  EXPECT_EQ(GetU32(as_v2.data()), 0x324A4E47u);

  auto from_v1 = reader.Decode(View(as_v1));
  auto from_v2 = reader.Decode(View(as_v2));
  ASSERT_TRUE(from_v1.ok());
  ASSERT_TRUE(from_v2.ok());
  EXPECT_EQ(*from_v1, payload);
  EXPECT_EQ(*from_v2, payload);
}

TEST(EnvelopeV2, PlaintextAndEncryptOnlyAndCompressOnlyModes) {
  for (int mode = 0; mode < 4; ++mode) {
    EnvelopeOptions o = AllOn(/*threshold=*/4096, /*chunk=*/4096);
    o.compress = (mode & 1) != 0;
    o.encrypt = (mode & 2) != 0;
    Envelope env(o);
    for (const std::size_t size : {std::size_t{100}, std::size_t{40000}}) {
      const Bytes payload = CompressiblePayload(size, 5 + mode);
      auto decoded = env.Decode(View(env.Encode(View(payload), 3)));
      ASSERT_TRUE(decoded.ok()) << "mode=" << mode << " size=" << size;
      EXPECT_EQ(*decoded, payload);
    }
  }
}

TEST(EnvelopeV2, PayloadSizeMatchesDecodeInEveryMode) {
  for (int mode = 0; mode < 4; ++mode) {
    EnvelopeOptions o = AllOn(/*threshold=*/4096, /*chunk=*/4096);
    o.compress = (mode & 1) != 0;
    o.encrypt = (mode & 2) != 0;
    Envelope env(o);
    Bytes stream = Envelope::StreamPrologue();
    std::size_t stream_payload = 0;
    // v1 (small, one LZSS varint byte and several), v2 (chunked), empty.
    for (const std::size_t size : {std::size_t{0}, std::size_t{100},
                                   std::size_t{3000}, std::size_t{40000}}) {
      SCOPED_TRACE("mode=" + std::to_string(mode) + " size=" + std::to_string(size));
      const Bytes payload = CompressiblePayload(size, 11 + mode);
      const Bytes object = env.Encode(View(payload), 7 + size);
      auto stated = env.PayloadSize(View(object));
      ASSERT_TRUE(stated.ok()) << stated.status().ToString();
      EXPECT_EQ(*stated, size);
      if (size > 0) {
        Envelope::AppendStreamSegment(stream, View(object));
        stream_payload += size;
      }
    }
    // v3: the segments' sum.
    auto stated = env.PayloadSize(View(stream));
    ASSERT_TRUE(stated.ok());
    EXPECT_EQ(*stated, stream_payload);
    auto decoded = env.Decode(View(stream));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->size(), stream_payload);
  }
  Envelope env(AllOn());
  EXPECT_FALSE(env.PayloadSize(View(Bytes(10, 0))).ok());  // shorter than header
  EXPECT_FALSE(env.PayloadSize(View(Bytes(64, 0))).ok());  // bad magic
}

TEST(EnvelopeV2, IncompressibleChunksStoreRaw) {
  Envelope env(AllOn(/*threshold=*/1024, /*chunk=*/1024));
  const Bytes payload = RandomPayload(10 * 1024, 6);
  const Bytes enveloped = env.Encode(View(payload), 21);
  // Raw storage bounds expansion to the per-chunk token overhead.
  EXPECT_LE(enveloped.size(),
            Envelope::kHeaderSize + 24 + payload.size() + 10 * 4);
  auto decoded = env.Decode(View(enveloped));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
}

// -- serial vs parallel byte identity ----------------------------------------

TEST(EnvelopeV2, ParallelEncodeMatchesSerialByteForByte) {
  const Bytes payload = CompressiblePayload(300 * 1024, 7);
  Envelope serial(AllOn(/*threshold=*/16 * 1024, /*chunk=*/16 * 1024));
  Envelope parallel(AllOn(/*threshold=*/16 * 1024, /*chunk=*/16 * 1024));
  parallel.SetCodecPool(std::make_shared<CodecPool>(4));

  const Bytes a = serial.Encode(View(payload), 1234);
  const Bytes b = parallel.Encode(View(payload), 1234);
  EXPECT_EQ(a, b);

  auto decoded = serial.Decode(View(b));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
}

// -- CTR seekability ----------------------------------------------------------

TEST(EnvelopeV2, CtrInPlaceWithOffsetMatchesStream) {
  Aes128::Key key{};
  for (int i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(i * 7);
  Aes128 aes(key);
  const Bytes payload = RandomPayload(1000, 8);

  Bytes whole = aes.Ctr(View(payload), 42);

  // Encrypting the two halves independently with a block-aligned counter
  // offset must produce the same keystream as one pass.
  Bytes split = payload;
  const std::size_t cut = 512;  // block-aligned
  aes.CtrInPlace(split.data(), cut, 42, 0);
  aes.CtrInPlace(split.data() + cut, split.size() - cut, 42, cut / 16);
  EXPECT_EQ(split, whole);
}

// -- corruption ---------------------------------------------------------------

TEST(EnvelopeV2, FlippedBytesInsideOneChunkAreRejected) {
  Envelope env(AllOn(/*threshold=*/8 * 1024, /*chunk=*/8 * 1024));
  const Bytes payload = CompressiblePayload(64 * 1024, 9);
  const Bytes enveloped = env.Encode(View(payload), 77);
  ASSERT_EQ(GetU32(enveloped.data()), 0x324A4E47u);

  SplitMix64 rng(10);
  for (int trial = 0; trial < 32; ++trial) {
    Bytes corrupt = enveloped;
    // Flip 1–3 bytes somewhere in the chunk stream (past header+varints).
    const int flips = 1 + static_cast<int>(rng.NextBelow(3));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at =
          Envelope::kHeaderSize + 8 +
          rng.NextBelow(corrupt.size() - Envelope::kHeaderSize - 8);
      corrupt[at] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    }
    auto decoded = env.Decode(View(corrupt));
    EXPECT_FALSE(decoded.ok()) << "trial " << trial;
  }
}

TEST(EnvelopeV2, ChunkCorruptionCaughtEvenWithValidMac) {
  // Re-seal the MAC after corrupting the chunk stream, so rejection must
  // come from the structural layer (token bounds, LZSS validation, chunk
  // size accounting) rather than the MAC.
  EnvelopeOptions o = AllOn(/*threshold=*/8 * 1024, /*chunk=*/8 * 1024);
  Envelope env(o);
  const Bytes payload = CompressiblePayload(64 * 1024, 16);
  const Bytes enveloped = env.Encode(View(payload), 31);
  const auto mac_key = DeriveKey(o.password, "ginja-mac");

  SplitMix64 rng(17);
  for (int trial = 0; trial < 32; ++trial) {
    Bytes corrupt = enveloped;
    const std::size_t at =
        Envelope::kHeaderSize +
        rng.NextBelow(corrupt.size() - Envelope::kHeaderSize);
    corrupt[at] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    const MacTag mac =
        HmacSha1(ByteView(mac_key.data(), mac_key.size()),
                 ByteView(corrupt).subspan(Envelope::kHeaderSize));
    std::memcpy(corrupt.data() + 13, mac.data(), mac.size());

    auto decoded = env.Decode(View(corrupt));
    // Either the structure is rejected, or (rarely) the flip decodes to a
    // same-sized but different payload; it must never round-trip as the
    // original.
    if (decoded.ok()) {
      EXPECT_NE(*decoded, payload) << "trial " << trial;
    }
  }
}

TEST(EnvelopeV2, TruncatedV2ObjectIsRejected) {
  Envelope env(AllOn(/*threshold=*/1024, /*chunk=*/1024));
  const Bytes enveloped = env.Encode(View(CompressiblePayload(8 * 1024, 11)), 5);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, Envelope::kHeaderSize,
        Envelope::kHeaderSize + 3, enveloped.size() - 1}) {
    auto decoded = env.Decode(ByteView(enveloped.data(), keep));
    EXPECT_FALSE(decoded.ok()) << "keep=" << keep;
  }
}

// -- zero-copy accounting -----------------------------------------------------

TEST(EnvelopeV2, SinglePieceEncodeCopiesNothing) {
  // A contiguous payload never needs gathering: bytes_copied stays 0 for
  // both v1 and v2 encodes.
  Envelope env(AllOn(/*threshold=*/64 * 1024, /*chunk=*/64 * 1024));
  const Bytes small = CompressiblePayload(32 * 1024, 12);
  const Bytes large = CompressiblePayload(256 * 1024, 13);
  env.Encode(View(small), 1);
  env.Encode(View(large), 2);
  EXPECT_EQ(env.stats().bytes_copied.Get(), 0u);
}

TEST(EnvelopeV2, ScatteredPiecesGatherAtMostOnce) {
  // A scatter-gather payload is gathered at most once per encode (v1) or
  // once per boundary-crossing chunk (v2) — never proportional to the old
  // 4-copies-per-object pipeline.
  Envelope env(AllOn(/*threshold=*/1 << 20));  // force v1
  const Bytes a = CompressiblePayload(10 * 1024, 14);
  const Bytes b = CompressiblePayload(10 * 1024, 15);
  PayloadView payload;
  payload.Add(View(a));
  payload.Add(View(b));
  Bytes out;
  env.EncodeInto(payload, 3, out);
  EXPECT_EQ(env.stats().bytes_copied.Get(), payload.size());

  auto decoded = env.Decode(View(out));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload.Flatten());
}

// -- derived-key (convergent chunk) envelopes ---------------------------------

TEST(EnvelopeDerived, RoundTripsAndIsDeterministic) {
  Envelope env(AllOn());
  const Bytes payload = CompressiblePayload(8 * 1024, 42);
  const Bytes tweak = RandomPayload(20, 7);
  const Bytes a = env.EncodeDerived(View(payload), 0x51ull << 56, View(tweak));
  const Bytes b = env.EncodeDerived(View(payload), 0x51ull << 56, View(tweak));
  EXPECT_EQ(a, b);  // deterministic in (payload, tweak, nonce): dedup needs it
  auto decoded = env.DecodeDerived(View(a), View(tweak));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, payload);
}

TEST(EnvelopeDerived, DistinctTweaksUseDistinctKeystream) {
  // Same nonce, same payload, different tweaks — the shape of a
  // truncated-nonce collision between two distinct chunks. Identical
  // ciphertext bodies here would mean reused keystream (a two-time pad
  // under CTR); the per-tweak derived key must prevent that.
  EnvelopeOptions o;  // encryption only, so ciphertext positions line up
  o.encrypt = true;
  o.password = "derived-key-test";
  Envelope env(o);
  const Bytes payload = RandomPayload(4096, 3);
  const std::uint64_t nonce = 0x51ull << 56;
  const Bytes t1 = RandomPayload(20, 1);
  const Bytes t2 = RandomPayload(20, 2);
  const Bytes c1 = env.EncodeDerived(View(payload), nonce, View(t1));
  const Bytes c2 = env.EncodeDerived(View(payload), nonce, View(t2));
  ASSERT_EQ(c1.size(), c2.size());
  EXPECT_NE(Bytes(c1.begin() + Envelope::kHeaderSize, c1.end()),
            Bytes(c2.begin() + Envelope::kHeaderSize, c2.end()));

  // The wrong tweak still MAC-verifies (the MAC key is shared) but decodes
  // to wrong bytes — content-addressed callers catch that by digest check.
  auto wrong = env.DecodeDerived(View(c1), View(t2));
  if (wrong.ok()) {
    EXPECT_NE(*wrong, payload);
  }
  auto right = env.DecodeDerived(View(c1), View(t1));
  ASSERT_TRUE(right.ok());
  EXPECT_EQ(*right, payload);
}

TEST(EnvelopeDerived, MatchesPlainEnvelopeWhenEncryptionOff) {
  EnvelopeOptions o;
  o.compress = true;
  Envelope env(o);
  const Bytes payload = CompressiblePayload(2048, 5);
  const Bytes tweak = RandomPayload(20, 9);
  EXPECT_EQ(env.EncodeDerived(View(payload), 7, View(tweak)),
            env.Encode(View(payload), 7));
  auto decoded =
      env.DecodeDerived(View(env.Encode(View(payload), 7)), View(tweak));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
}

}  // namespace
}  // namespace ginja
