// The LZ77 layer shared by both compressed stream layouts (the v1 LZSS
// stream in lzss.h and the entropy-coded stream in lzh.h): the greedy
// hash-chain parse, the tokens it produces, the v1 token layout, and the
// match copy every decoder uses.
//
// The v1 token layout: each control byte holds 8 flags (LSB first);
// flag=0 → literal byte, flag=1 → match: varint distance (>=1), varint
// length - kMinMatch (a match is at most kMaxMatch bytes).
#pragma once

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/bytes.h"

namespace ginja::lz {

inline constexpr std::size_t kMinMatch = 4;
inline constexpr std::size_t kMaxMatch = 255 + kMinMatch;
inline constexpr std::size_t kWindow = 1 << 16;

// A token packs its literal/length symbol above bit 16 and, for a match,
// distance - 1 below: literal b is b << 16; a match of n bytes at
// distance d is (256 + n - kMinMatch) << 16 | (d - 1). The symbol is the
// entropy coder's literal/length alphabet index.
using Token = std::uint32_t;
inline constexpr unsigned kLiteralSymbols = 256;
inline constexpr unsigned kLitLenSymbols =
    kLiteralSymbols + (kMaxMatch - kMinMatch + 1);  // 512

inline Token LiteralToken(std::uint8_t b) { return Token{b} << 16; }
inline Token MatchToken(std::size_t dist, std::size_t len) {
  return static_cast<Token>((kLiteralSymbols + len - kMinMatch) << 16 |
                            (dist - 1));
}
inline unsigned Symbol(Token t) { return t >> 16; }
inline bool IsMatch(Token t) { return Symbol(t) >= kLiteralSymbols; }
inline std::size_t MatchLength(Token t) {
  return Symbol(t) - kLiteralSymbols + kMinMatch;
}
inline std::size_t MatchDistance(Token t) { return (t & 0xFFFFu) + 1; }

// The entropy coder's distance alphabet: a match's distance symbol is
// bit_width(distance - 1), 0..16.
inline constexpr unsigned kDistSymbols = 17;
inline unsigned DistSymbol(Token t) { return static_cast<unsigned>(std::bit_width(t & 0xFFFFu)); }

// Symbol counts of a run of tokens, gathered while parsing them (where the
// increments hide behind the match search) rather than in a pass of
// their own.
struct TokenCounts {
  std::uint32_t litlen[kLitLenSymbols];
  std::uint32_t dist[kDistSymbols];  // matches only
};

// The greedy hash-chain parse ("fastest" profile: few probes). The chains
// live in thread-local scratch, so one thread runs one parser at a time.
class Parser {
 public:
  explicit Parser(ByteView input);

  // Parses from pos() and stops at the first token boundary at or past
  // `limit` (clamped to the input's end). `out` must hold limit - pos()
  // tokens; returns how many were written, and adds them to `counts`.
  std::size_t Parse(std::size_t limit, Token* out, TokenCounts& counts);

  std::size_t pos() const { return pos_; }
  bool done() const { return pos_ >= input_.size(); }

 private:
  ByteView input_;
  std::size_t pos_ = 0;
  std::uint32_t base_;
  std::uint32_t* head_;
  std::uint32_t* prev_;
};

// Copies an n-byte match from `dist` bytes back; source and destination
// overlap when dist < n, which repeats the dist-byte period.
inline void CopyMatch(std::uint8_t* to, std::size_t dist, std::size_t n) {
  const std::uint8_t* from = to - dist;
  if (dist >= n) {
    std::memcpy(to, from, n);
  } else if (dist == 1) {
    std::memset(to, *from, n);
  } else if (dist >= 8) {
    // Each 8-byte step reads bytes written at least one step earlier.
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t v;
      std::memcpy(&v, from + i, 8);
      std::memcpy(to + i, &v, 8);
    }
    for (; i < n; ++i) to[i] = from[i];
  } else {
    // Short period: seed it, then double the copied region.
    std::memcpy(to, from, dist);
    std::size_t copied = dist;
    while (copied < n) {
      const std::size_t m = std::min(copied, n - copied);
      std::memcpy(to + copied, to, m);
      copied += m;
    }
  }
}

// Where decoded tokens go. Decoders check room() before a literal; Match
// bounds-checks the back-reference and the length itself. `out` counts
// from the stream's first byte, so a match may reach into earlier blocks.
struct OutputSink {
  std::uint8_t* dst;
  std::size_t out;
  std::size_t end;

  std::size_t room() const { return end - out; }
  void Literal(std::uint8_t b) { dst[out++] = b; }
  void Literals(const std::uint8_t* p, std::size_t n) {
    std::memcpy(dst + out, p, n);
    out += n;
  }
  bool Match(std::size_t dist, std::size_t len) {
    if (dist == 0 || dist > out || len > end - out) return false;
    std::uint8_t* const to = dst + out;
    if (dist >= 8 && end - out >= len + 8) {
      // Room to round the copy up to whole 8-byte steps: the bytes past
      // the match are rewritten by the tokens after it.
      for (std::size_t i = 0; i < len; i += 8) {
        std::uint64_t v;
        std::memcpy(&v, to - dist + i, 8);
        std::memcpy(to + i, &v, 8);
      }
    } else {
      CopyMatch(to, dist, len);
    }
    out += len;
    return true;
  }
};

// The same checks as OutputSink, recording tokens instead of bytes: lets
// tests compare the parses two streams hold.
struct TokenSink {
  std::vector<Token>* tokens;
  std::size_t out;
  std::size_t end;

  std::size_t room() const { return end - out; }
  void Literal(std::uint8_t b) {
    tokens->push_back(LiteralToken(b));
    ++out;
  }
  void Literals(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) Literal(p[i]);
  }
  bool Match(std::size_t dist, std::size_t len) {
    if (dist == 0 || dist > out || len > end - out) return false;
    tokens->push_back(MatchToken(dist, len));
    out += len;
    return true;
  }
};

// Reads v1-layout tokens from `in` until the sink is full. True only if
// that consumed `in` exactly (the encoder never leaves trailing bytes).
template <typename Sink>
bool ReadV1Tokens(ByteView in, Sink& sink) {
  std::size_t pos = 0;
  while (sink.room() > 0) {
    if (pos >= in.size()) return false;
    const std::uint8_t flags = in[pos++];
    for (int bit = 0; bit < 8 && sink.room() > 0; ++bit) {
      if (flags & (1u << bit)) {
        const auto dist = GetVarint(in, pos);
        const auto len_enc = GetVarint(in, pos);
        if (!dist || !len_enc || *len_enc > kMaxMatch - kMinMatch ||
            !sink.Match(*dist, *len_enc + kMinMatch)) {
          return false;
        }
      } else {
        // Literal run: every consecutive 0-flag in this group in one copy.
        std::size_t run = 1;
        while (bit + run < 8 && !(flags & (1u << (bit + run)))) ++run;
        const std::size_t take = std::min({run, sink.room(), in.size() - pos});
        if (take == 0) return false;
        sink.Literals(in.data() + pos, take);
        pos += take;
        bit += static_cast<int>(take) - 1;
      }
    }
  }
  return pos == in.size();
}

// Bytes a varint of v takes; v1 distances and lengths fit in three.
inline std::size_t VarintSize(std::size_t v) {
  return 1 + (v >= (1u << 7)) + (v >= (1u << 14));
}

// The calling thread's token buffer, holding at least n tokens.
Token* TokenScratch(std::size_t n);

// Writes tokens in the v1 layout, continuing one flag group across calls
// so a stream parsed in blocks lays out exactly like one parsed whole.
class V1Writer {
 public:
  explicit V1Writer(Bytes& out) : out_(out) {}

  void Put(const Token* tokens, std::size_t n);

 private:
  Bytes& out_;
  std::size_t flag_pos_ = 0;
  int count_ = 0;  // tokens in the open group; 0 = none open
};

}  // namespace ginja::lz
