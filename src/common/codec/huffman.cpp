#include "common/codec/huffman.h"

#include <algorithm>

namespace ginja::huffman {

namespace {

// The low `len` bits of code in reverse order (len <= 16).
std::uint32_t Reverse(std::uint32_t v, int len) {
  v = ((v >> 1) & 0x5555u) | ((v & 0x5555u) << 1);
  v = ((v >> 2) & 0x3333u) | ((v & 0x3333u) << 2);
  v = ((v >> 4) & 0x0F0Fu) | ((v & 0x0F0Fu) << 4);
  v = ((v >> 8) & 0x00FFu) | ((v & 0x00FFu) << 8);
  return v >> (16 - len);
}

// Writes the indices of the nonzero entries of v[0, n) to `used`, in
// order, and returns their count. Branch-free: most of an alphabet is
// unused, in no predictable pattern.
template <typename T>
std::size_t NonZero(const T* v, std::size_t n, std::uint16_t* used) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    used[k] = static_cast<std::uint16_t>(i);
    k += v[i] != 0;
  }
  return k;
}

// Moffat and Katajainen's in-place minimum-redundancy code: a[0, n) holds
// frequencies in ascending order and is overwritten with each leaf's depth.
void MinimumRedundancy(std::uint32_t* a, std::size_t n) {
  if (n == 1) {
    a[0] = 0;
    return;
  }
  // Pass 1, left to right: pair the two lightest of leaves and internal
  // nodes, leaving parent pointers behind.
  a[0] += a[1];
  std::size_t root = 0;
  std::size_t leaf = 2;
  for (std::size_t next = 1; next < n - 1; ++next) {
    if (leaf >= n || a[root] < a[leaf]) {
      a[next] = a[root];
      a[root++] = static_cast<std::uint32_t>(next);
    } else {
      a[next] = a[leaf++];
    }
    if (leaf >= n || (root < next && a[root] < a[leaf])) {
      a[next] += a[root];
      a[root++] = static_cast<std::uint32_t>(next);
    } else {
      a[next] += a[leaf++];
    }
  }
  // Pass 2, right to left: internal node depths.
  a[n - 2] = 0;
  for (std::size_t next = n - 2; next-- > 0;) a[next] = a[a[next]] + 1;
  // Pass 3, right to left: leaf depths.
  std::size_t avail = 1;
  std::size_t used = 0;
  std::uint32_t depth = 0;
  std::ptrdiff_t r = static_cast<std::ptrdiff_t>(n) - 2;
  std::size_t next = n;
  while (avail > 0) {
    while (r >= 0 && a[r] == depth) {
      ++used;
      --r;
    }
    while (avail > used) {
      a[--next] = depth;
      --avail;
    }
    avail = 2 * used;
    ++depth;
    used = 0;
  }
}

}  // namespace

void BuildCode(const std::uint32_t* freqs, std::size_t n, int max_bits,
               std::uint8_t* lengths, std::uint32_t* codes) {
  std::memset(lengths, 0, n);
  std::memset(codes, 0, n * sizeof(*codes));
  std::uint16_t used[kMaxSymbols];
  const std::size_t nused = NonZero(freqs, n, used);
  if (nused == 0) return;
  std::uint32_t count[kMaxBits + 1] = {};
  if (nused == 1) {
    lengths[used[0]] = 1;
    count[1] = 1;
  } else {
    // Rank by (frequency, index): a block has under 2^23 tokens, so the
    // key packs both into one word.
    std::uint32_t key[kMaxSymbols];
    for (std::size_t k = 0; k < nused; ++k) key[k] = freqs[used[k]] << 9 | used[k];
    std::sort(key, key + nused);
    std::uint32_t depth[kMaxSymbols];
    for (std::size_t k = 0; k < nused; ++k) depth[k] = key[k] >> 9;
    MinimumRedundancy(depth, nused);

    // Clamp to max_bits, then restore the Kraft sum one unit at a time:
    // drop a leaf from the deepest level and hang it, with a leaf from the
    // deepest shorter level, one level lower.
    for (std::size_t k = 0; k < nused; ++k) {
      ++count[std::min<std::uint32_t>(depth[k], static_cast<std::uint32_t>(max_bits))];
    }
    std::uint32_t kraft = 0;
    for (int len = 1; len <= max_bits; ++len) kraft += count[len] << (max_bits - len);
    for (; kraft > (1u << max_bits); --kraft) {
      --count[max_bits];
      for (int len = max_bits - 1; len > 0; --len) {
        if (count[len] != 0) {
          --count[len];
          count[len + 1] += 2;
          break;
        }
      }
    }
    // The most frequent symbols (the end of the ranking) get the shortest
    // codes.
    std::size_t k = nused;
    for (int len = 1; len <= max_bits; ++len) {
      for (std::uint32_t c = count[len]; c > 0; --c) {
        lengths[key[--k] & 511u] = static_cast<std::uint8_t>(len);
      }
    }
  }
  // Canonical codes: consecutive within a length, in symbol order.
  std::uint32_t next[kMaxBits + 1] = {};
  for (int len = 1; len < max_bits; ++len) next[len + 1] = (next[len] + count[len]) << 1;
  for (std::size_t k = 0; k < nused; ++k) {
    const int len = lengths[used[k]];
    codes[used[k]] = Reverse(next[len]++, len) | static_cast<std::uint32_t>(len) << 16;
  }
}

bool Decoder::Init(const std::uint8_t* lengths, std::size_t n, int max_bits) {
  max_bits_ = max_bits;
  std::uint16_t used[kMaxSymbols];
  const std::size_t nused = NonZero(lengths, n, used);
  std::uint32_t count[kMaxBits + 1] = {};
  for (std::size_t k = 0; k < nused; ++k) {
    const int len = lengths[used[k]];
    if (len > max_bits) return false;
    ++count[len];
  }
  // Kraft check: `left` counts the unused codes at each length.
  int left = 1;
  for (int len = 1; len <= max_bits; ++len) {
    left = (left << 1) - static_cast<int>(count[len]);
    if (left < 0) return false;  // over-subscribed
  }
  if (left > 0 && nused > 1) return false;        // incomplete
  if (nused == 1 && count[1] != 1) return false;  // a lone code has length 1

  // Canonical codes: the first code of each length, and where its symbol
  // sits in sorted_.
  std::uint32_t first = 0;
  std::uint32_t offset[kMaxBits + 1];
  std::uint32_t at = 0;
  for (int len = 1; len <= max_bits; ++len) {
    offset[len] = at;
    index_[len] = static_cast<std::int32_t>(at) - static_cast<std::int32_t>(first);
    limit_[len] = (first + count[len]) << (max_bits - len);
    at += count[len];
    first = (first + count[len]) << 1;
  }
  for (std::size_t k = 0; k < nused; ++k) sorted_[offset[lengths[used[k]]]++] = used[k];

  std::memset(fast_, 0, sizeof(fast_));
  std::uint32_t code = 0;
  std::size_t k = 0;
  for (int len = 1; len <= std::min(max_bits, kTableBits); ++len) {
    for (std::uint32_t c = 0; c < count[len]; ++c, ++k, ++code) {
      const auto entry = static_cast<std::uint16_t>(sorted_[k] << 4 | len);
      for (std::uint32_t j = Reverse(code, len); j < (1u << kTableBits); j += 1u << len) {
        fast_[j] = entry;
      }
    }
    code <<= 1;
  }
  return true;
}

int Decoder::DecodeSlow(BitReader& in) const {
  const std::uint32_t v = Reverse(in.Peek(max_bits_), max_bits_);
  for (int len = kTableBits + 1; len <= max_bits_; ++len) {
    if (v < limit_[len]) {
      in.Skip(len);
      return sorted_[index_[len] + static_cast<std::int32_t>(v >> (max_bits_ - len))];
    }
  }
  return -1;
}

}  // namespace ginja::huffman
