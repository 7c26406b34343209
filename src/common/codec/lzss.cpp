#include "common/codec/lzss.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace ginja {

namespace lz {
namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr int kMaxChainProbes = 16;  // "fastest" profile: few probes

inline std::uint32_t HashAt(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of a and b, capped at max_len. Compares a word
// at a time; the XOR of two words pinpoints the first differing byte.
inline std::size_t CommonPrefix(const std::uint8_t* a, const std::uint8_t* b,
                                std::size_t max_len) {
  std::size_t len = 0;
#if defined(__GNUC__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (len + 8 <= max_len) {
    std::uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    const std::uint64_t diff = x ^ y;
    if (diff != 0) {
      return len + static_cast<std::size_t>(__builtin_ctzll(diff) >> 3);
    }
    len += 8;
  }
#endif
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

inline std::size_t PutVarintAt(std::uint8_t* p, std::size_t at, std::size_t v) {
  while (v >= 0x80) {
    p[at++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  p[at++] = static_cast<std::uint8_t>(v);
  return at;
}

}  // namespace

Parser::Parser(ByteView input) : input_(input) {
  // Hash chains: head[h] = most recent position with hash h; prev[i] = the
  // previous position with the same hash as i. The tables are thread-local
  // so repeated calls (and the per-chunk parallel encoders) skip the
  // allocation, and they store positions offset by `base_`, which starts
  // past every value an earlier parse on this thread stored: an entry below
  // base_ reads as "no position", so `head` needs no reset per parse (it
  // is 128 KiB; clearing it dominated small inputs). `prev` needs no
  // initialisation at all — a chain only reaches entries inserted this
  // parse, and insertion writes prev[i] before linking i into its chain.
  thread_local std::vector<std::uint32_t> head;
  thread_local std::vector<std::uint32_t> prev;
  thread_local std::uint64_t next_base = 0;
  if (head.empty() || next_base + input.size() > UINT32_MAX) {
    head.assign(kHashSize, 0);
    next_base = 1;
  }
  base_ = static_cast<std::uint32_t>(next_base);
  next_base += input.size();
  if (prev.size() < input.size()) prev.resize(input.size());
  head_ = head.data();
  prev_ = prev.data();
}

std::size_t Parser::Parse(std::size_t limit, Token* out, TokenCounts& counts) {
  const std::uint8_t* const data = input_.data();
  const std::size_t size = input_.size();
  const std::uint32_t base = base_;
  limit = std::min(limit, size);
  std::size_t n = 0;
  std::size_t pos = pos_;
  auto insert = [&](std::size_t at) {
    const std::uint32_t h = HashAt(data + at);
    prev_[at] = head_[h];
    head_[h] = base + static_cast<std::uint32_t>(at);
  };
  while (pos < limit) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (pos + kMinMatch <= size) {
      // The next position's chain head, fetched while this one's chain is
      // walked: most positions are literals, which move on by one.
      if (pos + 1 + kMinMatch <= size) __builtin_prefetch(&head_[HashAt(data + pos + 1)]);
      std::uint32_t entry = head_[HashAt(data + pos)];
      const std::size_t max_len = std::min(kMaxMatch, size - pos);
      for (int probes = 0; entry >= base && probes < kMaxChainProbes; ++probes) {
        const std::size_t cand = entry - base;
        const std::size_t dist = pos - cand;
        if (dist > kWindow) break;
        const std::uint8_t* a = data + cand;
        const std::uint8_t* b = data + pos;
        // A candidate can only beat best_len if it also matches at that
        // offset, so reject most losers with one byte compare.
        if (best_len > 0 && a[best_len] != b[best_len]) {
          entry = prev_[cand];
          continue;
        }
        const std::size_t len = CommonPrefix(a, b, max_len);
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
          if (len == max_len) break;
        }
        entry = prev_[cand];
      }
    }

    if (best_len >= kMinMatch) {
      const Token t = MatchToken(best_dist, best_len);
      out[n++] = t;
      ++counts.litlen[Symbol(t)];
      ++counts.dist[DistSymbol(t)];
      // Insert hash entries for every covered position (cheap, improves
      // later matches on page-structured data).
      const std::size_t end = pos + best_len;
      for (; pos < end && pos + kMinMatch <= size; ++pos) insert(pos);
      pos = end;
    } else {
      out[n++] = LiteralToken(data[pos]);
      ++counts.litlen[data[pos]];
      if (pos + kMinMatch <= size) insert(pos);
      ++pos;
    }
  }
  pos_ = pos;
  return n;
}

Token* TokenScratch(std::size_t n) {
  thread_local std::vector<Token> tokens;
  if (tokens.size() < n) tokens.resize(n);
  return tokens.data();
}

void V1Writer::Put(const Token* tokens, std::size_t n) {
  // A token takes at most 5 bytes and a group's flag byte one more per 8
  // tokens; the slack is trimmed at the end.
  std::size_t at = out_.size();
  out_.resize(at + n * 5 + n / 8 + 1);
  std::uint8_t* const p = out_.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (count_ == 0) {
      flag_pos_ = at;
      p[at++] = 0;
    }
    const Token t = tokens[i];
    if (IsMatch(t)) {
      p[flag_pos_] |= static_cast<std::uint8_t>(1u << count_);
      at = PutVarintAt(p, at, MatchDistance(t));
      at = PutVarintAt(p, at, MatchLength(t) - kMinMatch);
    } else {
      p[at++] = static_cast<std::uint8_t>(Symbol(t));
    }
    if (++count_ == 8) count_ = 0;
  }
  out_.resize(at);
}

}  // namespace lz

Bytes Lzss::Compress(ByteView input) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  CompressAppend(input, out);
  return out;
}

void Lzss::CompressAppend(ByteView input, Bytes& out) {
  PutVarint(out, input.size());
  if (input.empty()) return;
  constexpr std::size_t kStep = 64 * 1024;  // tokens buffered per write
  lz::Parser parser(input);
  lz::V1Writer writer(out);
  lz::Token* const tokens = lz::TokenScratch(kStep);
  lz::TokenCounts unused = {};  // the v1 layout needs no symbol counts
  while (!parser.done()) {
    writer.Put(tokens, parser.Parse(parser.pos() + kStep, tokens, unused));
  }
}

std::optional<Bytes> Lzss::Decompress(ByteView input) {
  const auto size = DecodedSize(input);
  if (!size) return std::nullopt;
  Bytes out(*size);
  if (!DecompressInto(input, out.data(), out.size())) return std::nullopt;
  return out;
}

std::optional<std::size_t> Lzss::DecodedSize(ByteView input) {
  std::size_t pos = 0;
  const auto size = GetVarint(input, pos);
  // Every match token spends at least two bytes on at most kMaxMatch bytes
  // of output and a literal spends one on one, so kMaxMatch per stream
  // byte is a safe (loose) ceiling.
  if (!size || *size > (input.size() - pos) * kMaxMatch) return std::nullopt;
  return static_cast<std::size_t>(*size);
}

bool Lzss::DecompressInto(ByteView input, std::uint8_t* dst, std::size_t len) {
  std::size_t pos = 0;
  const auto orig_size = GetVarint(input, pos);
  if (!orig_size || *orig_size != len) return false;
  lz::OutputSink sink{dst, 0, len};
  return lz::ReadV1Tokens(input.subspan(pos), sink);
}

std::optional<std::vector<lz::Token>> Lzss::Tokens(ByteView input) {
  const auto size = DecodedSize(input);
  if (!size) return std::nullopt;
  std::size_t pos = 0;
  (void)GetVarint(input, pos);
  std::vector<lz::Token> tokens;
  lz::TokenSink sink{&tokens, 0, *size};
  if (!lz::ReadV1Tokens(input.subspan(pos), sink)) return std::nullopt;
  return tokens;
}

}  // namespace ginja
