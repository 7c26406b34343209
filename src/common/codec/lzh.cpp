#include "common/codec/lzh.h"

#include <algorithm>
#include <cstring>

#include "common/codec/huffman.h"

namespace ginja {

namespace {

constexpr std::uint8_t kHuffmanBlock = 0;
constexpr std::uint8_t kV1Block = 1;

constexpr std::size_t kLitLen = lz::kLitLenSymbols;
constexpr std::size_t kDist = lz::kDistSymbols;
constexpr std::size_t kCodeLen = 19;
constexpr int kCodeLenMaxBits = 7;

// Distance symbol s (lz::DistSymbol) is followed by max(s - 1, 0) extra
// bits: distance - 1 = DistBase(s) + extra.
inline int DistExtraBits(unsigned s) { return static_cast<int>(std::max(s, 1u)) - 1; }
inline std::size_t DistBase(unsigned s) { return (std::size_t{1} << s) >> 1; }

// Extra bits after code-length symbols 16, 17 and 18.
inline int CodeLenExtraBits(unsigned s) { return s < 16 ? 0 : s == 16 ? 2 : s == 17 ? 3 : 7; }

// One code-length-code symbol and its extra bits.
struct LengthRun {
  std::uint8_t symbol;
  std::uint8_t extra;
};

// Run-length codes `lengths` with symbols 16-18; returns the runs written.
std::size_t RunLengths(const std::uint8_t* lengths, std::size_t n, LengthRun* runs) {
  std::size_t out = 0;
  for (std::size_t i = 0; i < n;) {
    const std::uint8_t len = lengths[i];
    std::size_t run = 1;
    while (i + run < n && lengths[i + run] == len) ++run;
    i += run;
    if (len == 0) {
      for (; run >= 11; run -= std::min<std::size_t>(run, 138)) {
        runs[out++] = {18, static_cast<std::uint8_t>(std::min<std::size_t>(run, 138) - 11)};
      }
      if (run >= 3) {
        runs[out++] = {17, static_cast<std::uint8_t>(run - 3)};
        run = 0;
      }
    } else {
      runs[out++] = {len, 0};
      --run;
      for (; run >= 3; run -= std::min<std::size_t>(run, 6)) {
        runs[out++] = {16, static_cast<std::uint8_t>(std::min<std::size_t>(run, 6) - 3)};
      }
    }
    for (; run > 0; --run) runs[out++] = {len, 0};
  }
  return out;
}

// Bytes the v1 layout takes for tokens[0, n).
std::size_t V1Bytes(const lz::Token* tokens, std::size_t n) {
  std::size_t bytes = (n + 7) / 8;
  for (std::size_t i = 0; i < n; ++i) {
    const lz::Token t = tokens[i];
    bytes += lz::IsMatch(t) ? lz::VarintSize(lz::MatchDistance(t)) +
                                  lz::VarintSize(lz::MatchLength(t) - lz::kMinMatch)
                            : 1;
  }
  return bytes;
}

// Codes tokens[0, n), which decode to out_len bytes and have symbol counts
// `counts`, as one block: Huffman when that is smaller than the v1 layout,
// else the v1 layout.
void WriteBlock(const lz::Token* tokens, std::size_t n, const lz::TokenCounts& counts,
                std::size_t out_len, Bytes& out) {
  std::size_t matches = 0;
  for (std::uint32_t c : counts.dist) matches += c;
  const std::size_t literals = n - matches;

  std::uint8_t lengths[kLitLen + kDist];
  std::uint32_t codes[kLitLen + kDist];
  huffman::BuildCode(counts.litlen, kLitLen, huffman::kMaxBits, lengths, codes);
  huffman::BuildCode(counts.dist, kDist, huffman::kMaxBits, lengths + kLitLen, codes + kLitLen);
  std::size_t nlit = kLitLen;
  while (lengths[nlit - 1] == 0) --nlit;  // a block holds at least one token
  std::size_t ndist = kDist;
  while (ndist > 0 && lengths[kLitLen + ndist - 1] == 0) --ndist;

  // The lengths as sent: nlit literal/length lengths, then ndist distance ones.
  std::uint8_t sent[kLitLen + kDist];
  std::memcpy(sent, lengths, nlit);
  std::memcpy(sent + nlit, lengths + kLitLen, ndist);
  LengthRun runs[kLitLen + kDist];
  const std::size_t nruns = RunLengths(sent, nlit + ndist, runs);
  std::uint32_t cl_freq[kCodeLen] = {};
  for (std::size_t i = 0; i < nruns; ++i) ++cl_freq[runs[i].symbol];
  std::uint8_t cl_lengths[kCodeLen];
  std::uint32_t cl_codes[kCodeLen];
  huffman::BuildCode(cl_freq, kCodeLen, kCodeLenMaxBits, cl_lengths, cl_codes);

  std::size_t bits = 9 + 5 + 3 * kCodeLen;
  for (std::size_t i = 0; i < nruns; ++i) {
    bits += cl_lengths[runs[i].symbol] + static_cast<std::size_t>(CodeLenExtraBits(runs[i].symbol));
  }
  for (std::size_t s = 0; s < kLitLen; ++s) bits += std::size_t{counts.litlen[s]} * lengths[s];
  for (std::size_t s = 0; s < kDist; ++s) {
    bits += std::size_t{counts.dist[s]} *
            (lengths[kLitLen + s] + static_cast<std::size_t>(DistExtraBits(static_cast<unsigned>(s))));
  }
  const std::size_t body = (bits + 7) / 8;

  // The v1 layout spends at least a byte per literal, two per match and a
  // flag byte per 8 tokens; only a block that small gets its exact size.
  const std::size_t v1_floor = (n + 7) / 8 + literals + 2 * (n - literals);
  std::size_t v1_bytes = 0;
  if (body >= v1_floor && (v1_bytes = V1Bytes(tokens, n)) <= body) {
    out.push_back(kV1Block);
    PutVarint(out, out_len);
    PutVarint(out, v1_bytes);
    lz::V1Writer(out).Put(tokens, n);
    return;
  }

  out.push_back(kHuffmanBlock);
  PutVarint(out, out_len);
  PutVarint(out, body);
  const std::size_t at = out.size();
  out.resize(at + body + 8);  // BitWriter::Flush's slack
  huffman::BitWriter w(out.data() + at);
  w.Put(static_cast<std::uint32_t>(nlit - 1), 9);
  w.Put(static_cast<std::uint32_t>(ndist), 5);
  w.Flush();
  for (std::size_t i = 0; i < kCodeLen; ++i) {
    w.Put(cl_lengths[i], 3);
    w.Flush();
  }
  for (std::size_t i = 0; i < nruns; ++i) {
    const unsigned s = runs[i].symbol;
    w.PutCode(cl_codes[s]);
    w.Put(runs[i].extra, CodeLenExtraBits(s));
    w.Flush();
  }
  // A match's distance code and its extra bits go out as one Put.
  int dist_bits[kDist];
  for (std::size_t s = 0; s < kDist; ++s) {
    dist_bits[s] = static_cast<int>(codes[kLitLen + s] >> 16) + DistExtraBits(static_cast<unsigned>(s));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const lz::Token t = tokens[i];
    w.PutCode(codes[lz::Symbol(t)]);
    if (lz::IsMatch(t)) {
      const unsigned ds = lz::DistSymbol(t);
      const std::uint32_t code = codes[kLitLen + ds];
      const auto extra = static_cast<std::uint32_t>((t & 0xFFFFu) - DistBase(ds));
      w.Put((code & 0xFFFFu) | extra << (code >> 16), dist_bits[ds]);  // at most 30 bits
    }
    w.Flush();
  }
  w.Finish();
  out.resize(at + body);
}

// Decodes one Huffman block body until the sink is full. True only if that
// consumed the body exactly, padding bits zero.
template <typename Sink>
bool ReadHuffmanBlock(ByteView body, Sink& sink) {
  huffman::BitReader in(body);
  in.Refill();
  const std::size_t nlit = in.Take(9) + 1;
  const std::size_t ndist = in.Take(5);
  if (ndist > kDist) return false;
  std::uint8_t cl_lengths[kCodeLen];
  for (std::size_t i = 0; i < kCodeLen; ++i) {
    in.Refill();
    cl_lengths[i] = static_cast<std::uint8_t>(in.Take(3));
  }
  huffman::Decoder code_len;
  if (!code_len.Init(cl_lengths, kCodeLen, kCodeLenMaxBits)) return false;

  std::uint8_t lengths[kLitLen + kDist] = {};
  const std::size_t total = nlit + ndist;
  std::uint8_t prev = 0;
  for (std::size_t i = 0; i < total;) {
    in.Refill();
    const int s = code_len.Decode(in);
    if (s < 0) return false;
    std::size_t repeat = 1;
    std::uint8_t value = static_cast<std::uint8_t>(s);
    if (s == 16) {
      if (i == 0) return false;
      value = prev;
      repeat = 3 + in.Take(2);
    } else if (s > 16) {
      value = 0;
      repeat = s == 17 ? 3 + in.Take(3) : 11 + in.Take(7);
    }
    if (repeat > total - i) return false;
    for (; repeat > 0; --repeat, ++i) lengths[i < nlit ? i : kLitLen + i - nlit] = value;
    prev = value;
  }
  huffman::Decoder lit;
  huffman::Decoder dist;
  if (!lit.Init(lengths, kLitLen, huffman::kMaxBits) ||
      !dist.Init(lengths + kLitLen, kDist, huffman::kMaxBits)) {
    return false;
  }

  constexpr int kLiteralSymbols = static_cast<int>(lz::kLiteralSymbols);
  while (sink.room() > 0) {
    // A refill leaves at least 56 bits: a token takes at most 45 (15 for
    // its literal/length code, 15 + 15 for a distance code and its extra
    // bits), and a literal and the next literal/length code at most 30.
    in.Refill();
    int sym = lit.Decode(in);
    if (sym < kLiteralSymbols) {
      if (sym < 0) return false;
      sink.Literal(static_cast<std::uint8_t>(sym));
      if (sink.room() == 0) break;
      sym = lit.Decode(in);
      if (sym < kLiteralSymbols) {
        if (sym < 0) return false;
        sink.Literal(static_cast<std::uint8_t>(sym));
        continue;
      }
      in.Refill();
    }
    const int ds = dist.Decode(in);
    if (ds < 0) return false;
    const unsigned s = static_cast<unsigned>(ds);
    const std::size_t d1 = DistBase(s) + in.Take(DistExtraBits(s));
    if (!sink.Match(d1 + 1, static_cast<std::size_t>(sym - kLiteralSymbols) + lz::kMinMatch)) {
      return false;
    }
  }
  const std::size_t used = in.consumed();
  if ((used + 7) / 8 != body.size()) return false;
  in.Refill();
  const int pad = static_cast<int>(body.size() * 8 - used);
  return in.Peek(pad) == 0;
}

// Decodes the blocks after the size header into the sink, whose out must
// be 0 and whose end is set per block; `size` is the declared size.
template <typename Sink>
bool ReadBlocks(ByteView in, std::size_t size, Sink& sink) {
  std::size_t pos = 0;
  while (sink.out < size) {
    if (pos >= in.size()) return false;
    const std::uint8_t type = in[pos++];
    const auto out_len = GetVarint(in, pos);
    const auto body_len = GetVarint(in, pos);
    if (!out_len || !body_len || *out_len == 0 || *out_len > size - sink.out ||
        *body_len > in.size() - pos) {
      return false;
    }
    sink.end = sink.out + *out_len;
    const ByteView body = in.subspan(pos, *body_len);
    if (type == kHuffmanBlock) {
      if (!ReadHuffmanBlock(body, sink)) return false;
    } else if (type != kV1Block || !lz::ReadV1Tokens(body, sink)) {
      return false;
    }
    pos += *body_len;
  }
  return pos == in.size();
}

}  // namespace

Bytes Lzh::Compress(ByteView input) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  CompressAppend(input, out);
  return out;
}

void Lzh::CompressAppend(ByteView input, Bytes& out) {
  PutVarint(out, input.size());
  if (input.empty()) return;
  lz::Parser parser(input);
  lz::Token* const tokens = lz::TokenScratch(std::min(input.size(), kBlockBytes));
  while (!parser.done()) {
    const std::size_t start = parser.pos();
    lz::TokenCounts counts = {};
    const std::size_t n = parser.Parse(start + kBlockBytes, tokens, counts);
    WriteBlock(tokens, n, counts, parser.pos() - start, out);
  }
}

std::optional<Bytes> Lzh::Decompress(ByteView input) {
  const auto size = DecodedSize(input);
  if (!size) return std::nullopt;
  Bytes out(*size);
  if (!DecompressInto(input, out.data(), out.size())) return std::nullopt;
  return out;
}

std::optional<std::size_t> Lzh::DecodedSize(ByteView input) {
  std::size_t pos = 0;
  const auto size = GetVarint(input, pos);
  if (!size || *size > (input.size() - pos) * kMaxExpansion) return std::nullopt;
  return static_cast<std::size_t>(*size);
}

bool Lzh::DecompressInto(ByteView input, std::uint8_t* dst, std::size_t len) {
  std::size_t pos = 0;
  const auto size = GetVarint(input, pos);
  if (!size || *size != len) return false;
  lz::OutputSink sink{dst, 0, 0};
  return ReadBlocks(input.subspan(pos), len, sink);
}

std::optional<std::vector<lz::Token>> Lzh::Tokens(ByteView input) {
  const auto size = DecodedSize(input);
  if (!size) return std::nullopt;
  std::size_t pos = 0;
  (void)GetVarint(input, pos);
  std::vector<lz::Token> tokens;
  lz::TokenSink sink{&tokens, 0, 0};
  if (!ReadBlocks(input.subspan(pos), *size, sink)) return std::nullopt;
  return tokens;
}

}  // namespace ginja
