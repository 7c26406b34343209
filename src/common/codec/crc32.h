// CRC-32 (IEEE 802.3 polynomial, reflected) — used to detect torn WAL
// records during crash recovery, mirroring what PostgreSQL and InnoDB do
// with per-record/page checksums. The engine checksums every WAL page on
// commit and every page and record at redo, so `Crc32` folds the 16-byte-
// multiple body of inputs of 64 bytes or more with PCLMULQDQ carry-less
// multiplies (chosen once at runtime, like SHA-NI and AES-NI) and finishes
// the tail slicing-by-8 (eight table lookups per 8 input bytes). The values
// are the standard CRC-32 ones, chainable through `seed`.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace ginja {

std::uint32_t Crc32(ByteView data, std::uint32_t seed = 0);

// The slicing-by-8 path alone: what `Crc32` computes on hosts without
// PCLMULQDQ. Exposed so tests cover the fallback on hosts that have it.
std::uint32_t Crc32Portable(ByteView data, std::uint32_t seed = 0);

}  // namespace ginja
