#include "common/codec/crc32.h"

#include <array>

#if defined(__x86_64__) && defined(__GNUC__)
#define GINJA_PCLMUL_CAPABLE 1
#include <immintrin.h>
#endif

namespace ginja {

namespace {

// Slicing-by-8 tables: kTables[0] is the classic byte-wise table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes at once (Intel's slicing-by-8 scheme, the
// portable fallback PostgreSQL uses where no CRC instruction exists).
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

// Little-endian load; compilers fold the shifts into one 32-bit load.
inline std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// Advances the raw (pre-inverted) CRC state `c` over `n` bytes at `p`.
std::uint32_t SliceBy8(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = LoadLe32(p) ^ c;
    const std::uint32_t hi = LoadLe32(p + 4);
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c;
}

#ifdef GINJA_PCLMUL_CAPABLE

bool HasPclmul() {
  static const bool has = __builtin_cpu_supports("pclmul") &&
                          __builtin_cpu_supports("sse4.1");
  return has;
}

// Free functions rather than lambdas: GCC lambdas do not inherit the
// enclosing function's target attribute.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Load128(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds 128 bits of state `x` forward by the distance `k` encodes and
// XORs in `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i x,
                                                             __m128i k,
                                                             __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with the
// paper's bit-reflected constants for 0xEDB88320: k1/k2 fold 512 bits
// forward, k3/k4 fold 128, k5 folds 64 to 32, and the last pair is the
// Barrett reduction's quotient and polynomial. Four lanes fold 64 bytes per
// step, collapse into one, fold the remaining 16-byte blocks, then reduce.
// `n` is a multiple of 16 and at least 64; `c` is the raw CRC state.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t FoldPclmul(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold(x1, k3k4, Load128(p));

  // 128 -> 64 bits, then 64 -> 32.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction to the 32-bit remainder.
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif  // GINJA_PCLMUL_CAPABLE

}  // namespace

std::uint32_t Crc32(ByteView data, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#ifdef GINJA_PCLMUL_CAPABLE
  if (n >= 64 && HasPclmul()) {
    const std::size_t body = n & ~std::size_t{15};
    c = FoldPclmul(c, p, body);
    p += body;
    n -= body;
  }
#endif
  return SliceBy8(c, p, n) ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32Portable(ByteView data, std::uint32_t seed) {
  return SliceBy8(seed ^ 0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

}  // namespace ginja
