#include <gtest/gtest.h>

#include "common/codec/aes128.h"
#include "common/codec/crc32.h"
#include "common/codec/envelope.h"
#include "common/codec/hmac.h"
#include "common/codec/lzss.h"
#include "common/codec/sha1.h"
#include "common/rng.h"

namespace ginja {
namespace {

// -- SHA-1: FIPS 180 / RFC 3174 test vectors ---------------------------------

TEST(Sha1, EmptyString) {
  EXPECT_EQ(ToHex(ByteView(Sha1::Hash({}).data(), 20)),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  const Bytes abc = ToBytes("abc");
  EXPECT_EQ(ToHex(ByteView(Sha1::Hash(View(abc)).data(), 20)),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  const Bytes msg =
      ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(ToHex(ByteView(Sha1::Hash(View(msg)).data(), 20)),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(View(chunk));
  EXPECT_EQ(ToHex(ByteView(h.Finish().data(), 20)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const Bytes msg = ToBytes("the quick brown fox jumps over the lazy dog!!");
  Sha1 h;
  for (std::size_t i = 0; i < msg.size(); ++i) h.Update(ByteView(&msg[i], 1));
  EXPECT_EQ(h.Finish(), Sha1::Hash(View(msg)));
}

// -- HMAC-SHA1: RFC 2202 test vectors -----------------------------------------

TEST(Hmac, Rfc2202Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = ToBytes("Hi There");
  EXPECT_EQ(ToHex(ByteView(HmacSha1(View(key), View(data)).data(), 20)),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(Hmac, Rfc2202Case2) {
  const Bytes key = ToBytes("Jefe");
  const Bytes data = ToBytes("what do ya want for nothing?");
  EXPECT_EQ(ToHex(ByteView(HmacSha1(View(key), View(data)).data(), 20)),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const Bytes key(80, 0xaa);  // longer than the 64-byte block
  const Bytes data = ToBytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(ToHex(ByteView(HmacSha1(View(key), View(data)).data(), 20)),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(Hmac, MacEqualConstantTime) {
  MacTag a{}, b{};
  EXPECT_TRUE(MacEqual(a, b));
  b[19] = 1;
  EXPECT_FALSE(MacEqual(a, b));
}

TEST(Hmac, DeriveKeyDeterministicAndSaltSensitive) {
  const auto k1 = DeriveKey("password", "salt", 16);
  const auto k2 = DeriveKey("password", "salt", 16);
  const auto k3 = DeriveKey("password", "pepper", 16);
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, k3);
}

// -- CRC32 --------------------------------------------------------------------

TEST(Crc32, CheckValue) {
  const Bytes data = ToBytes("123456789");
  EXPECT_EQ(Crc32(View(data)), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(Crc32({}), 0u); }

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes data = ToBytes("some wal page content");
  const std::uint32_t before = Crc32(View(data));
  data[3] ^= 0x01;
  EXPECT_NE(before, Crc32(View(data)));
}

// The byte-at-a-time definition both CRC paths must match.
std::uint32_t ReferenceCrc32(ByteView data, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

Bytes SeededBytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Next());
  return out;
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..320 cover the 64-byte fold loop, the 16-byte fold loop, the
  // 8-byte slicing loop, the byte tail and every mix of them; offsets
  // 0..15 start each loop at every alignment. A seed exercises chaining.
  const Bytes buf = SeededBytes(320 + 16, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 320; ++len) {
      const ByteView v(buf.data() + offset, len);
      EXPECT_EQ(Crc32(v), ReferenceCrc32(v)) << "offset=" << offset << " len=" << len;
      EXPECT_EQ(Crc32(v, 0x12345678u), ReferenceCrc32(v, 0x12345678u))
          << "seeded offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32, PortableMatchesReferenceOnFoldSizedBuffers) {
  // Buffers of 64 bytes and more take the folded path in Crc32 where the
  // host has PCLMULQDQ; Crc32Portable keeps the slicing-by-8 fallback
  // covered there.
  const Bytes buf = SeededBytes(8192 + 16, 5);
  for (std::size_t len : {64u, 65u, 79u, 80u, 127u, 128u, 300u, 4096u, 8188u, 8192u}) {
    for (std::size_t offset : {0u, 3u, 8u, 15u}) {
      const ByteView v(buf.data() + offset, len);
      EXPECT_EQ(Crc32Portable(v), ReferenceCrc32(v))
          << "offset=" << offset << " len=" << len;
      EXPECT_EQ(Crc32Portable(v, 0xCAFEF00Du), ReferenceCrc32(v, 0xCAFEF00Du))
          << "seeded offset=" << offset << " len=" << len;
      EXPECT_EQ(Crc32Portable(v), Crc32(v)) << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32, MatchesReferenceOnWalPageAndRandomBuffers) {
  // A WAL page as the engine checksums it: everything after the CRC field.
  const Bytes page = SeededBytes(8192, 2);
  const ByteView body = ByteView(page).subspan(4);
  EXPECT_EQ(Crc32(body), ReferenceCrc32(body));
  SplitMix64 sizes(3);
  for (int i = 0; i < 50; ++i) {
    const Bytes data = SeededBytes(sizes.NextBelow(20000), 100 + i);
    EXPECT_EQ(Crc32(View(data)), ReferenceCrc32(View(data))) << "buffer " << i;
  }
}

TEST(Crc32, ChainedSeedsEqualOneShot) {
  // Crc32(b, Crc32(a)) == Crc32(a ++ b) at every split point, so each side
  // crosses the 64-byte fold threshold in both directions.
  const Bytes data = SeededBytes(300, 4);
  const std::uint32_t whole = Crc32(View(data));
  EXPECT_EQ(whole, ReferenceCrc32(View(data)));
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    const ByteView a(data.data(), cut);
    const ByteView b(data.data() + cut, data.size() - cut);
    EXPECT_EQ(Crc32(b, Crc32(a)), whole) << "cut=" << cut;
    EXPECT_EQ(Crc32Portable(b, Crc32Portable(a)), whole) << "cut=" << cut;
  }
}

// -- AES-128: FIPS-197 Appendix C vector --------------------------------------

TEST(Aes128, Fips197Vector) {
  Aes128::Key key{};
  std::uint8_t block[16];
  for (int i = 0; i < 16; ++i) {
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    block[i] = static_cast<std::uint8_t>(i * 0x11);
  }
  Aes128 aes(key);
  aes.EncryptBlock(block);
  EXPECT_EQ(ToHex(ByteView(block, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, CtrRoundTrip) {
  Aes128::Key key{};
  key[0] = 0x42;
  Aes128 aes(key);
  SplitMix64 rng(5);
  Bytes plain(1000);
  for (auto& b : plain) b = static_cast<std::uint8_t>(rng.Next());
  const Bytes cipher = aes.Ctr(View(plain), /*nonce=*/77);
  EXPECT_NE(cipher, plain);
  EXPECT_EQ(aes.Ctr(View(cipher), 77), plain);
}

TEST(Aes128, CtrNonceChangesKeystream) {
  Aes128 aes(Aes128::Key{});
  const Bytes plain(64, 0);
  EXPECT_NE(aes.Ctr(View(plain), 1), aes.Ctr(View(plain), 2));
}

TEST(Aes128, CtrHandlesNonBlockSizes) {
  Aes128 aes(Aes128::Key{});
  for (std::size_t n : {0u, 1u, 15u, 16u, 17u, 31u, 33u}) {
    const Bytes plain(n, 0xAB);
    EXPECT_EQ(aes.Ctr(View(aes.Ctr(View(plain), 9)), 9), plain) << n;
  }
}

// -- LZSS ----------------------------------------------------------------------

class LzssRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LzssRoundTrip, RandomData) {
  SplitMix64 rng(GetParam());
  Bytes data(GetParam());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  const Bytes compressed = Lzss::Compress(View(data));
  auto back = Lzss::Decompress(View(compressed));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST_P(LzssRoundTrip, RepetitiveData) {
  Bytes data;
  const Bytes pattern = ToBytes("tpcc-row-payload|12345|");
  while (data.size() < GetParam()) Append(data, View(pattern));
  const Bytes compressed = Lzss::Compress(View(data));
  auto back = Lzss::Decompress(View(compressed));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
  if (data.size() > 200) {
    EXPECT_LT(compressed.size(), data.size() / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LzssRoundTrip,
                         ::testing::Values(0, 1, 3, 100, 1000, 8192, 65537));

TEST(Lzss, AchievesPaperLikeRatioOnWalPages) {
  // WAL pages full of TPC-C-style rows should compress at roughly the
  // paper's CR of 1.43 (§7.2) or better.
  Bytes page;
  SplitMix64 rng(3);
  while (page.size() < 8192) {
    std::string row = std::to_string(rng.NextBelow(100000)) + "|customer-name-" +
                      std::to_string(rng.NextBelow(1000));
    row.resize(100, 'x');
    Append(page, View(ToBytes(row)));
  }
  page.resize(8192);
  const Bytes compressed = Lzss::Compress(View(page));
  const double ratio = static_cast<double>(page.size()) /
                       static_cast<double>(compressed.size());
  EXPECT_GT(ratio, 1.43);
}

TEST(Lzss, RejectsTruncatedStream) {
  const Bytes data(500, 7);
  Bytes compressed = Lzss::Compress(View(data));
  compressed.resize(compressed.size() / 2);
  EXPECT_FALSE(Lzss::Decompress(View(compressed)).has_value());
}

TEST(Lzss, RejectsBadBackReference) {
  // Hand-craft a stream whose match distance points before the start.
  Bytes bad;
  PutVarint(bad, 10);        // original size
  bad.push_back(0x01);       // first token is a match
  PutVarint(bad, 5);         // distance 5 with empty output
  PutVarint(bad, 0);         // length 4
  EXPECT_FALSE(Lzss::Decompress(View(bad)).has_value());
}

// -- Envelope -------------------------------------------------------------------

class EnvelopeRoundTrip
    : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(EnvelopeRoundTrip, EncodesAndDecodes) {
  EnvelopeOptions options;
  options.compress = GetParam().first;
  options.encrypt = GetParam().second;
  options.password = "hunter2";
  Envelope envelope(options);

  Bytes payload;
  for (int i = 0; i < 3000; ++i) payload.push_back(static_cast<std::uint8_t>(i % 37));
  const Bytes enveloped = envelope.Encode(View(payload), /*nonce=*/123);
  auto back = envelope.Decode(View(enveloped));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, payload);
}

INSTANTIATE_TEST_SUITE_P(Modes, EnvelopeRoundTrip,
                         ::testing::Values(std::pair{false, false},
                                           std::pair{true, false},
                                           std::pair{false, true},
                                           std::pair{true, true}));

TEST(Envelope, DetectsTampering) {
  Envelope envelope({});
  const Bytes payload = ToBytes("important database state");
  Bytes enveloped = envelope.Encode(View(payload), 1);
  enveloped[enveloped.size() - 1] ^= 0xFF;
  auto result = envelope.Decode(View(enveloped));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kCorruption);
}

TEST(Envelope, WrongPasswordFailsMac) {
  EnvelopeOptions a;
  a.password = "alpha";
  EnvelopeOptions b;
  b.password = "beta";
  const Bytes payload = ToBytes("secret");
  const Bytes enveloped = Envelope(a).Encode(View(payload), 1);
  EXPECT_FALSE(Envelope(b).Decode(View(enveloped)).ok());
}

TEST(Envelope, EncryptionHidesPlaintext) {
  EnvelopeOptions options;
  options.encrypt = true;
  options.password = "key";
  Envelope envelope(options);
  const Bytes payload = ToBytes("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA");
  const Bytes enveloped = envelope.Encode(View(payload), 42);
  const std::string hay(enveloped.begin(), enveloped.end());
  EXPECT_EQ(hay.find("AAAAAAAA"), std::string::npos);
}

TEST(Envelope, IncompressiblePayloadIsStoredRaw) {
  EnvelopeOptions options;
  options.compress = true;
  Envelope envelope(options);
  SplitMix64 rng(11);
  Bytes payload(4096);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.Next());
  const Bytes enveloped = envelope.Encode(View(payload), 1);
  // Never more than header overhead above the raw payload.
  EXPECT_LE(enveloped.size(), payload.size() + Envelope::kHeaderSize);
  auto back = envelope.Decode(View(enveloped));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
}

TEST(Envelope, RejectsTruncatedHeader) {
  Envelope envelope({});
  const Bytes enveloped = envelope.Encode(View(ToBytes("x")), 1);
  EXPECT_FALSE(envelope.Decode(ByteView(enveloped.data(), 10)).ok());
}

}  // namespace
}  // namespace ginja
