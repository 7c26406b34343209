// CRC-32 (IEEE 802.3 polynomial, reflected) — used to detect torn WAL
// records during crash recovery, mirroring what PostgreSQL and InnoDB do
// with per-record/page checksums. The engine checksums every WAL page on
// commit and every page and record at redo, so this is computed
// slicing-by-8 (eight table lookups per 8 input bytes); the values are the
// standard CRC-32 ones, chainable through `seed`.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace ginja {

std::uint32_t Crc32(ByteView data, std::uint32_t seed = 0);

}  // namespace ginja
