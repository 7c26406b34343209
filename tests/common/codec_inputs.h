// Seeded payloads shaped like what Ginja compresses: table pages (8 KiB,
// rows of TPC-C-like text at the head, a zero tail) and WAL (records of a
// small header and a row image, packed back to back).
#pragma once

#include <algorithm>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"

namespace ginja::testing_inputs {

// One TPC-C-like row: digits, a 26-letter alphabet and separators.
inline void AppendRow(Bytes& out, SplitMix64& rng) {
  std::string row = std::to_string(rng.NextBelow(100000)) + "|";
  const std::size_t words = 2 + rng.NextBelow(4);
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t len = 3 + rng.NextBelow(10);
    for (std::size_t i = 0; i < len; ++i) {
      row.push_back(static_cast<char>('a' + rng.NextBelow(26)));
    }
    row.push_back('|');
  }
  row += std::to_string(rng.NextBelow(1000)) + "." + std::to_string(rng.NextBelow(100));
  Append(out, View(ToBytes(row)));
}

inline Bytes PageShaped(std::size_t size, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes out;
  out.reserve(size + 8192);
  while (out.size() < size) {
    const std::size_t page_start = out.size();
    PutU64(out, rng.Next());  // page header: LSN, then a used count
    const std::size_t fill = 1024 + rng.NextBelow(4096);
    while (out.size() - page_start < fill) AppendRow(out, rng);
    out.resize(page_start + 8192, 0);
  }
  out.resize(size);
  return out;
}

inline Bytes WalShaped(std::size_t size, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes out;
  out.reserve(size + 256);
  std::uint64_t lsn = rng.NextBelow(1 << 20);
  while (out.size() < size) {
    Bytes row;
    AppendRow(row, rng);
    lsn += 16 + row.size();
    PutU64(out, lsn);
    PutU32(out, static_cast<std::uint32_t>(rng.Next()));  // record CRC
    PutU16(out, static_cast<std::uint16_t>(rng.NextBelow(9)));  // table id
    PutU16(out, static_cast<std::uint16_t>(row.size()));
    Append(out, View(row));
  }
  out.resize(size);
  return out;
}

}  // namespace ginja::testing_inputs
