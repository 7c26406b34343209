// Tests for the entropy-coded stream (Lzh) and its canonical Huffman codes:
// a differential check against the v1 LZSS stream on seeded inputs (same
// bytes out, same tokens in), the size bound against v1, and hand-crafted
// malformed code tables and block headers. Suite names start with "Lzh"
// and "Huffman" so the sanitizer CI filter can pick them out.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <queue>
#include <thread>

#include "common/codec/huffman.h"
#include "common/codec/lzh.h"
#include "common/codec/lzss.h"
#include "tests/common/codec_inputs.h"

namespace ginja {
namespace {

using testing_inputs::PageShaped;
using testing_inputs::WalShaped;

Bytes Random(std::size_t size, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Next());
  return out;
}

struct Input {
  const char* name;
  Bytes bytes;
};

std::vector<Input> SeededInputs() {
  std::vector<Input> inputs;
  inputs.push_back({"empty", {}});
  inputs.push_back({"one-byte", {0x5A}});
  inputs.push_back({"random", Random(10000, 1)});
  inputs.push_back({"pages", PageShaped(64 * 1024, 2)});
  inputs.push_back({"wal", WalShaped(64 * 1024, 3)});
  Bytes big = PageShaped(2 * 1024 * 1024, 4);  // 4 MiB: 16+ blocks
  Append(big, View(WalShaped(2 * 1024 * 1024, 5)));
  inputs.push_back({"4MiB", std::move(big)});
  return inputs;
}

// -- differential: Lzh against v1 LZSS ------------------------------------------

TEST(Lzh, DecodesToTheInputAndHoldsTheV1Parse) {
  for (const Input& in : SeededInputs()) {
    const Bytes lzh = Lzh::Compress(View(in.bytes));
    const Bytes v1 = Lzss::Compress(View(in.bytes));
    const auto from_lzh = Lzh::Decompress(View(lzh));
    const auto from_v1 = Lzss::Decompress(View(v1));
    ASSERT_TRUE(from_lzh.has_value()) << in.name;
    ASSERT_TRUE(from_v1.has_value()) << in.name;
    EXPECT_EQ(*from_lzh, in.bytes) << in.name;
    EXPECT_EQ(*from_v1, in.bytes) << in.name;
    EXPECT_EQ(Lzh::DecodedSize(View(lzh)).value_or(~std::size_t{0}), in.bytes.size())
        << in.name;

    // The entropy stage codes the v1 parse token for token.
    const auto lzh_tokens = Lzh::Tokens(View(lzh));
    const auto v1_tokens = Lzss::Tokens(View(v1));
    ASSERT_TRUE(lzh_tokens.has_value()) << in.name;
    ASSERT_TRUE(v1_tokens.has_value()) << in.name;
    EXPECT_TRUE(*lzh_tokens == *v1_tokens) << in.name;
  }
}

TEST(Lzh, NeverMoreThanAFewBytesLargerThanV1) {
  // A block is Huffman-coded only when that is smaller than its v1 layout;
  // otherwise it holds the v1 layout, so a block costs at most its header
  // (type byte and two varints) and a restarted flag byte more.
  for (std::size_t size : {1, 2, 5, 17, 60, 200, 1000, 5000, 300000}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      for (const Bytes& input : {Random(size, seed), PageShaped(size, seed), WalShaped(size, seed)}) {
        const std::size_t blocks = (size + Lzh::kBlockBytes - 1) / Lzh::kBlockBytes;
        EXPECT_LE(Lzh::Compress(View(input)).size(), Lzss::Compress(View(input)).size() + 8 * blocks)
            << "size " << size << " seed " << seed;
      }
    }
  }
}

TEST(Lzh, IsAboutAThirdSmallerThanV1OnPagesAndWal) {
  for (const Bytes& input : {PageShaped(256 * 1024, 7), WalShaped(256 * 1024, 8)}) {
    const double lzh = static_cast<double>(Lzh::Compress(View(input)).size());
    const double v1 = static_cast<double>(Lzss::Compress(View(input)).size());
    EXPECT_LT(lzh, 0.8 * v1);
  }
}

TEST(Lzh, EncodingIsDeterministic) {
  const Bytes input = WalShaped(300 * 1024, 9);
  const Bytes first = Lzh::Compress(View(input));
  Bytes second;
  std::thread([&] { second = Lzh::Compress(View(input)); }).join();
  EXPECT_EQ(first, second);
  // Appending continues after what the buffer already holds.
  Bytes appended = ToBytes("prefix");
  Lzh::CompressAppend(View(input), appended);
  EXPECT_EQ(Bytes(appended.begin() + 6, appended.end()), first);
}

// -- hand-crafted streams ---------------------------------------------------------

// Builds one Huffman block by hand. The code-length code is fixed: symbol
// 16 has two bits, 17 and 18 three, and 0-15 five (a complete code), so a
// test writes any table it likes through Length, Repeat and Zeros.
class BlockBuilder {
 public:
  BlockBuilder(std::size_t nlit, std::size_t ndist) : bits_(4096 + 8), w_(bits_.data()) {
    Put(static_cast<std::uint32_t>(nlit - 1), 9);
    Put(static_cast<std::uint32_t>(ndist), 5);
    for (int s = 0; s < 19; ++s) Put(s < 16 ? 5 : s == 16 ? 2 : 3, 3);
  }
  // The writer points into bits_' heap buffer, which a move keeps and a
  // copy would not.
  BlockBuilder(const BlockBuilder&) = delete;
  BlockBuilder(BlockBuilder&&) = default;
  // Canonical codes: 16 = 00, 17 = 010, 18 = 011, length L = 10000 + L.
  void Length(int len) { Code(16 + static_cast<std::uint32_t>(len), 5); }
  void Repeat(int times) {  // the previous length, 3-6 times
    Code(0, 2);
    Put(static_cast<std::uint32_t>(times - 3), 2);
  }
  void Zeros(int count) {  // 3-138 zero lengths
    if (count <= 10) {
      Code(2, 3);
      Put(static_cast<std::uint32_t>(count - 3), 3);
    } else {
      Code(3, 3);
      Put(static_cast<std::uint32_t>(count - 11), 7);
    }
  }
  void Put(std::uint32_t bits, int n) {
    w_.Put(bits, n);
    w_.Flush();
    used_ += static_cast<std::size_t>(n);
  }
  // The stream: the size header, then one block of `out_len` bytes whose
  // body is what was put (its length stated as `body_len` if given).
  Bytes Stream(std::size_t size, std::size_t out_len, std::optional<std::size_t> body_len = {},
               std::uint8_t type = 0) {
    w_.Finish();
    const std::size_t body = (used_ + 7) / 8;
    Bytes s;
    PutVarint(s, size);
    s.push_back(type);
    PutVarint(s, out_len);
    PutVarint(s, body_len.value_or(body));
    Append(s, ByteView(bits_.data(), body));
    return s;
  }

 private:
  // An MSB-first code of n bits, written bit-reversed like the encoder's.
  void Code(std::uint32_t code, int n) {
    std::uint32_t r = 0;
    for (int i = 0; i < n; ++i) r |= ((code >> i) & 1u) << (n - 1 - i);
    Put(r, n);
  }
  Bytes bits_;
  huffman::BitWriter w_;
  std::size_t used_ = 0;
};

// Literals 'a' and 'b' with one-bit codes ('a' = 0, 'b' = 1), no distances.
BlockBuilder TwoLiterals() {
  BlockBuilder b('b' + 1, 0);
  b.Zeros(97);  // 'a' is 97
  b.Length(1);
  b.Length(1);
  return b;
}

std::optional<Bytes> Decode(const Bytes& stream) {
  const auto size = Lzh::DecodedSize(View(stream));
  if (!size) return std::nullopt;
  Bytes out(*size + 64, 0xC5);  // canary tail
  const bool ok = Lzh::DecompressInto(View(stream), out.data(), *size);
  for (std::size_t i = *size; i < out.size(); ++i) EXPECT_EQ(out[i], 0xC5);
  if (!ok) return std::nullopt;
  out.resize(*size);
  return out;
}

TEST(Lzh, HandCraftedBlockDecodes) {
  BlockBuilder b = TwoLiterals();
  for (int bit : {0, 1, 1, 0}) b.Put(static_cast<std::uint32_t>(bit), 1);  // "abba"
  const auto out = Decode(b.Stream(4, 4));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, ToBytes("abba"));
}

TEST(Lzh, RejectsMalformedCodeTables) {
  auto with_lengths = [](std::vector<int> lit, std::vector<int> dist) {
    BlockBuilder b(lit.size(), dist.size());
    for (int len : lit) b.Length(len);
    for (int len : dist) b.Length(len);
    b.Put(0, 2);  // two tokens of symbol 0, if it has a one-bit code
    return b.Stream(2, 2);
  };
  EXPECT_FALSE(Decode(with_lengths({1, 1, 1}, {})).has_value()) << "over-subscribed";
  EXPECT_FALSE(Decode(with_lengths({2, 2, 2}, {})).has_value()) << "incomplete";
  EXPECT_FALSE(Decode(with_lengths({0}, {})).has_value()) << "all-zero literal/length code";
  EXPECT_FALSE(Decode(with_lengths({1, 1}, {1, 1, 1})).has_value()) << "over-subscribed distances";
  EXPECT_FALSE(Decode(with_lengths({1, 1}, {2})).has_value()) << "a lone distance code of 2 bits";
  // The control: the same shape with a valid table decodes.
  EXPECT_TRUE(Decode(with_lengths({1, 1}, {})).has_value());

  BlockBuilder too_many_dist(2, 18);  // ndist > 17
  EXPECT_FALSE(Decode(too_many_dist.Stream(1, 1)).has_value());

  // A code-length code that is over-subscribed: 19 symbols of one bit.
  BlockBuilder cl(2, 0);
  Bytes bad_cl = cl.Stream(1, 1);
  // Rewrite the 19 three-bit code-length lengths (bits 14..70) to 1.
  for (int s = 0; s < 19; ++s) {
    for (int k = 0; k < 3; ++k) {
      const std::size_t bit = 14 + 3 * static_cast<std::size_t>(s) + static_cast<std::size_t>(k);
      std::uint8_t& byte = bad_cl[4 + bit / 8];
      const std::uint8_t mask = static_cast<std::uint8_t>(1u << (bit % 8));
      byte = static_cast<std::uint8_t>(k == 0 ? byte | mask : byte & ~mask);
    }
  }
  EXPECT_FALSE(Decode(bad_cl).has_value());
}

TEST(Lzh, RejectsLengthRunsOutsideTheTable) {
  BlockBuilder repeat_first(4, 0);  // "the previous length" with none before
  repeat_first.Repeat(4);
  EXPECT_FALSE(Decode(repeat_first.Stream(1, 1)).has_value());

  BlockBuilder zeros_past(3, 0);  // a zero run past nlit + ndist
  zeros_past.Length(1);
  zeros_past.Zeros(10);
  EXPECT_FALSE(Decode(zeros_past.Stream(1, 1)).has_value());

  BlockBuilder repeat_past(4, 0);
  repeat_past.Length(2);
  repeat_past.Repeat(6);
  EXPECT_FALSE(Decode(repeat_past.Stream(1, 1)).has_value());

  // The control: a repeat that fills the table exactly.
  BlockBuilder fits(4, 0);
  fits.Length(2);
  fits.Repeat(3);  // four 2-bit codes: 00, 01, 10, 11 for symbols 0-3
  fits.Put(0, 2);
  fits.Put(3, 2);  // bit-reversed 11: symbol 3
  const auto out = Decode(fits.Stream(2, 2));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (Bytes{0, 3}));
}

TEST(Lzh, RejectsMalformedBlocks) {
  auto abba = [] {
    BlockBuilder b = TwoLiterals();
    for (int bit : {0, 1, 1, 0}) b.Put(static_cast<std::uint32_t>(bit), 1);
    return b;
  };
  EXPECT_FALSE(Decode(abba().Stream(4, 4, 1000)).has_value()) << "body past the stream";
  EXPECT_FALSE(Decode(abba().Stream(4, 5)).has_value()) << "block past the declared size";
  EXPECT_FALSE(Decode(abba().Stream(5, 4)).has_value()) << "stream ends before the size";
  EXPECT_FALSE(Decode(abba().Stream(4, 4, {}, 2)).has_value()) << "unknown block type";
  EXPECT_FALSE(Decode(abba().Stream(4, 0)).has_value()) << "empty block";

  Bytes trailing = abba().Stream(4, 4);
  trailing.push_back(0);
  EXPECT_FALSE(Decode(trailing).has_value()) << "bytes after the last block";

  BlockBuilder padded = TwoLiterals();
  for (int bit : {0, 1, 1, 0}) padded.Put(static_cast<std::uint32_t>(bit), 1);
  padded.Put(1, 1);  // a set padding bit
  EXPECT_FALSE(Decode(padded.Stream(4, 4)).has_value()) << "a token or padding left over";

  // A match with no distance code, and one reaching before the output.
  BlockBuilder no_dist(257, 0);  // literal 0 and length symbol 256 (4 bytes)
  no_dist.Length(1);
  no_dist.Zeros(138);
  no_dist.Zeros(117);
  no_dist.Length(1);
  no_dist.Put(0, 1);  // literal 0
  no_dist.Put(1, 1);  // a 4-byte match, then a distance symbol with no code
  no_dist.Put(0, 8);
  EXPECT_FALSE(Decode(no_dist.Stream(5, 5)).has_value());

  BlockBuilder before_start(257, 2);  // distances 1 and 2, one bit each
  before_start.Length(1);
  before_start.Zeros(138);
  before_start.Zeros(117);
  before_start.Length(1);
  before_start.Length(1);
  before_start.Length(1);
  before_start.Put(0, 1);  // literal 0
  before_start.Put(1, 1);  // a 4-byte match ...
  before_start.Put(1, 1);  // ... at distance 2: before the first byte
  EXPECT_FALSE(Decode(before_start.Stream(5, 5)).has_value());

  BlockBuilder run(257, 2);  // the same match at distance 1: a valid run
  run.Length(1);
  run.Zeros(138);
  run.Zeros(117);
  run.Length(1);
  run.Length(1);
  run.Length(1);
  run.Put(0, 1);
  run.Put(1, 1);
  run.Put(0, 1);
  const auto zeros = Decode(run.Stream(5, 5));
  ASSERT_TRUE(zeros.has_value());
  EXPECT_EQ(*zeros, Bytes(5, 0));
}

TEST(Lzh, DecodedSizeRejectsImpossibleHeaders) {
  Bytes huge;
  PutVarint(huge, std::uint64_t{1} << 40);
  huge.push_back(0);
  EXPECT_FALSE(Lzh::DecodedSize(View(huge)).has_value());
  EXPECT_FALSE(Lzh::Decompress(View(huge)).has_value());
  // The bound is Lzh::kMaxExpansion bytes per stream byte after the header.
  Bytes edge;
  PutVarint(edge, 3 * Lzh::kMaxExpansion);
  edge.insert(edge.end(), 3, 0);
  EXPECT_TRUE(Lzh::DecodedSize(View(edge)).has_value());
  edge.pop_back();
  EXPECT_FALSE(Lzh::DecodedSize(View(edge)).has_value());
}

// -- canonical Huffman codes -------------------------------------------------------

double KraftSum(const std::uint8_t* lengths, std::size_t n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (lengths[i] != 0) sum += 1.0 / static_cast<double>(1u << lengths[i]);
  }
  return sum;
}

// The cost, in bits, of an optimal (unlimited) Huffman code.
std::uint64_t HuffmanCost(const std::vector<std::uint32_t>& freqs) {
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> q;
  for (std::uint32_t f : freqs) {
    if (f != 0) q.push(f);
  }
  if (q.size() == 1) return q.top();
  std::uint64_t cost = 0;
  while (q.size() > 1) {
    const std::uint64_t a = q.top();
    q.pop();
    const std::uint64_t b = q.top();
    q.pop();
    cost += a + b;
    q.push(a + b);
  }
  return cost;
}

TEST(Huffman, BuildCodeIsOptimalWhenTheCapDoesNotBind) {
  SplitMix64 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    // Frequencies within a factor of 64 of each other over at most 512
    // symbols keep every optimal code under 15 bits.
    std::vector<std::uint32_t> freqs(huffman::kMaxSymbols);
    for (auto& f : freqs) f = rng.NextBelow(3) == 0 ? 0 : 16 + static_cast<std::uint32_t>(rng.NextBelow(1008));
    std::vector<std::uint8_t> lengths(freqs.size());
    std::vector<std::uint32_t> codes(freqs.size());
    huffman::BuildCode(freqs.data(), freqs.size(), huffman::kMaxBits, lengths.data(), codes.data());
    std::uint64_t cost = 0;
    for (std::size_t s = 0; s < freqs.size(); ++s) cost += std::uint64_t{freqs[s]} * lengths[s];
    EXPECT_EQ(cost, HuffmanCost(freqs)) << "trial " << trial;
    EXPECT_DOUBLE_EQ(KraftSum(lengths.data(), lengths.size()), 1.0);
  }
}

TEST(Huffman, BuildCodeCapsSkewedCodesAndStaysComplete) {
  // Fibonacci frequencies push an unlimited code past 30 bits.
  std::vector<std::uint32_t> freqs(40);
  freqs[0] = freqs[1] = 1;
  for (std::size_t i = 2; i < freqs.size(); ++i) freqs[i] = freqs[i - 1] + freqs[i - 2];
  for (int cap : {7, 15}) {
    std::vector<std::uint8_t> lengths(freqs.size());
    std::vector<std::uint32_t> codes(freqs.size());
    huffman::BuildCode(freqs.data(), freqs.size(), cap, lengths.data(), codes.data());
    for (std::uint8_t len : lengths) {
      EXPECT_GE(len, 1);
      EXPECT_LE(len, cap);
    }
    EXPECT_DOUBLE_EQ(KraftSum(lengths.data(), lengths.size()), 1.0);

    // Every symbol round-trips through the writer and the table decoder.
    huffman::Decoder decoder;
    ASSERT_TRUE(decoder.Init(lengths.data(), lengths.size(), cap));
    Bytes buf(freqs.size() * 2 + 16);
    huffman::BitWriter w(buf.data());
    for (std::size_t s = 0; s < freqs.size(); ++s) {
      w.PutCode(codes[s]);
      w.Flush();
    }
    w.Finish();
    huffman::BitReader r(View(buf));
    for (std::size_t s = 0; s < freqs.size(); ++s) {
      r.Refill();
      EXPECT_EQ(decoder.Decode(r), static_cast<int>(s));
    }
  }
}

TEST(Huffman, TiesBreakBySymbolIndexAndCodesAreCanonical) {
  const std::uint32_t freqs[5] = {3, 3, 3, 3, 0};
  std::uint8_t lengths[5];
  std::uint32_t codes[5];
  huffman::BuildCode(freqs, 5, huffman::kMaxBits, lengths, codes);
  EXPECT_EQ(std::vector<int>(lengths, lengths + 5), (std::vector<int>{2, 2, 2, 2, 0}));
  // Canonical 00, 01, 10, 11, bit-reversed: 0, 2, 1, 3.
  const std::uint32_t expect[4] = {0, 2, 1, 3};
  for (int s = 0; s < 4; ++s) EXPECT_EQ(codes[s], expect[s] | 2u << 16) << s;

  const std::uint32_t three[3] = {5, 5, 5};
  huffman::BuildCode(three, 3, huffman::kMaxBits, lengths, codes);
  // Equal frequencies rank by index, and the lowest-ranked get the
  // longest codes.
  EXPECT_EQ(std::vector<int>(lengths, lengths + 3), (std::vector<int>{2, 2, 1}));

  const std::uint32_t lone[3] = {0, 9, 0};
  huffman::BuildCode(lone, 3, huffman::kMaxBits, lengths, codes);
  EXPECT_EQ(std::vector<int>(lengths, lengths + 3), (std::vector<int>{0, 1, 0}));
}

TEST(Huffman, DecoderRejectsMalformedLengths) {
  huffman::Decoder d;
  auto init = [&](std::vector<std::uint8_t> lengths, int max_bits = huffman::kMaxBits) {
    return d.Init(lengths.data(), lengths.size(), max_bits);
  };
  EXPECT_FALSE(init({1, 1, 1}));                     // over-subscribed
  EXPECT_FALSE(init({2, 2, 2}));                     // incomplete
  EXPECT_FALSE(init({2}));                           // a lone code must be 1 bit
  EXPECT_FALSE(init({16, 16, 1}));                   // above 15 bits
  EXPECT_FALSE(init({8, 8, 1, 2, 3, 4, 5, 6, 7}, 7));  // above the cap
  EXPECT_TRUE(init({1, 2, 3, 3}));
  EXPECT_TRUE(init({1}));

  // All-zero lengths are an empty code: it decodes nothing.
  ASSERT_TRUE(init({0, 0, 0}));
  const Bytes zeros(16, 0);
  huffman::BitReader r(View(zeros));
  r.Refill();
  EXPECT_EQ(d.Decode(r), -1);

  // A lone one-bit code decodes 0 and rejects 1.
  ASSERT_TRUE(init({0, 1}));
  const Bytes ones(16, 0xFF);
  huffman::BitReader zr(View(zeros));
  zr.Refill();
  EXPECT_EQ(d.Decode(zr), 1);
  huffman::BitReader orr(View(ones));
  orr.Refill();
  EXPECT_EQ(d.Decode(orr), -1);
}

TEST(Huffman, LongCodesDecodeThroughTheSlowPath) {
  // Lengths 1..15 plus a second 15: complete, with codes past the
  // 10-bit table.
  std::vector<std::uint8_t> lengths;
  for (int len = 1; len <= 15; ++len) lengths.push_back(static_cast<std::uint8_t>(len));
  lengths.push_back(15);
  std::vector<std::uint32_t> freqs(lengths.size(), 1);
  huffman::Decoder d;
  ASSERT_TRUE(d.Init(lengths.data(), lengths.size(), huffman::kMaxBits));
  // Canonical codes: symbol k < 15 is k ones then a zero; the last two are
  // fifteen bits.
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    std::uint64_t bits = 0;
    if (s < 15) {
      bits = (std::uint64_t{1} << s) - 1;  // s ones (LSB first), then 0
    } else {
      bits = (std::uint64_t{1} << 15) - 1;  // 15 ones
    }
    Bytes buf(16, 0);
    for (int i = 0; i < 8; ++i) buf[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(bits >> (8 * i));
    huffman::BitReader r(View(buf));
    r.Refill();
    EXPECT_EQ(d.Decode(r), static_cast<int>(s)) << s;
  }
}

}  // namespace
}  // namespace ginja
