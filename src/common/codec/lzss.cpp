#include "common/codec/lzss.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace ginja {

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
inline std::size_t MatchLength(const std::uint8_t* a, const std::uint8_t* b,
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

}  // namespace

Bytes Lzss::Compress(ByteView input) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  CompressAppend(input, out);
  return out;
}

void Lzss::CompressAppend(ByteView input, Bytes& out) {
  PutVarint(out, input.size());
  if (input.empty()) return;

  // Hash chains: head[h] = most recent position with hash h; prev[i] = the
  // previous position with the same hash as i. The scratch vectors are
  // thread-local so repeated calls (and the per-chunk parallel encoders)
  // skip the allocation; `head` must be reset every call, but `prev` needs
  // no initialisation — a chain only reaches entries inserted this call,
  // and insertion writes prev[i] before linking i into its chain.
  thread_local std::vector<std::int32_t> head;
  thread_local std::vector<std::int32_t> prev;
  head.assign(kHashSize, -1);
  if (prev.size() < input.size()) prev.resize(input.size());

  Bytes pending;          // token payload bytes for the current flag group
  std::uint8_t flags = 0; // bit i set => token i is a match
  int flag_count = 0;
  std::size_t flag_pos = out.size();
  out.push_back(0);  // placeholder for first control byte

  auto flush_group = [&](bool start_new) {
    out[flag_pos] = flags;
    Append(out, View(pending));
    pending.clear();
    flags = 0;
    flag_count = 0;
    if (start_new) {
      flag_pos = out.size();
      out.push_back(0);
    }
  };

  std::size_t pos = 0;
  while (pos < input.size()) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (pos + kMinMatch <= input.size()) {
      const std::uint32_t h = HashAt(input.data() + pos);
      std::int32_t cand = head[h];
      const std::size_t max_len = std::min(kMaxMatch, input.size() - pos);
      for (int probes = 0; cand >= 0 && probes < kMaxChainProbes; ++probes) {
        const std::size_t dist = pos - static_cast<std::size_t>(cand);
        if (dist > kWindow) break;
        const std::uint8_t* a = input.data() + cand;
        const std::uint8_t* b = input.data() + pos;
        // A candidate can only beat best_len if it also matches at that
        // offset, so reject most losers with one byte compare.
        if (best_len > 0 && a[best_len] != b[best_len]) {
          cand = prev[cand];
          continue;
        }
        const std::size_t len = MatchLength(a, b, max_len);
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
          if (len == max_len) break;
        }
        cand = prev[cand];
      }
    }

    if (best_len >= kMinMatch) {
      flags |= static_cast<std::uint8_t>(1u << flag_count);
      PutVarint(pending, best_dist);
      PutVarint(pending, best_len - kMinMatch);
      // Insert hash entries for every covered position (cheap, improves
      // later matches on page-structured data).
      const std::size_t end = pos + best_len;
      for (; pos < end && pos + kMinMatch <= input.size(); ++pos) {
        const std::uint32_t h = HashAt(input.data() + pos);
        prev[pos] = head[h];
        head[h] = static_cast<std::int32_t>(pos);
      }
      pos = end;
    } else {
      pending.push_back(input[pos]);
      if (pos + kMinMatch <= input.size()) {
        const std::uint32_t h = HashAt(input.data() + pos);
        prev[pos] = head[h];
        head[h] = static_cast<std::int32_t>(pos);
      }
      ++pos;
    }

    if (++flag_count == 8) flush_group(pos < input.size());
  }
  if (flag_count > 0) flush_group(false);
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

  std::size_t out = 0;
  while (out < len) {
    if (pos >= input.size()) return false;
    const std::uint8_t flags = input[pos++];
    for (int bit = 0; bit < 8 && out < len; ++bit) {
      if (flags & (1u << bit)) {
        const auto dist = GetVarint(input, pos);
        const auto len_enc = GetVarint(input, pos);
        if (!dist || !len_enc || *dist == 0 || *dist > out ||
            *len_enc > kMaxMatch - kMinMatch ||
            *len_enc + kMinMatch > len - out) {
          return false;
        }
        const std::size_t n = *len_enc + kMinMatch;
        std::uint8_t* to = dst + out;
        const std::uint8_t* from = to - *dist;
        if (*dist >= n) {
          std::memcpy(to, from, n);
        } else {
          // Overlapping run: seed with the `dist`-byte period, then double
          // the copied region until the match is filled.
          std::memcpy(to, from, *dist);
          std::size_t copied = *dist;
          while (copied < n) {
            const std::size_t m = std::min(copied, n - copied);
            std::memcpy(to + copied, to, m);
            copied += m;
          }
        }
        out += n;
      } else {
        // Literal run: consume every consecutive 0-flag in this group with
        // one block copy instead of a byte-at-a-time loop.
        int run = 1;
        while (bit + run < 8 && !(flags & (1u << (bit + run)))) ++run;
        const std::size_t take = std::min<std::size_t>(
            {static_cast<std::size_t>(run), len - out, input.size() - pos});
        if (take == 0) return false;
        std::memcpy(dst + out, input.data() + pos, take);
        pos += take;
        out += take;
        bit += static_cast<int>(take) - 1;
      }
    }
  }
  return pos == input.size();  // the encoder never leaves trailing bytes
}

}  // namespace ginja
