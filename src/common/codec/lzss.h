// LZSS compression implemented from scratch.
//
// Stand-in for the paper's "ZLIB configured for fastest operation" (§6):
// a greedy LZ77 variant with a hash-chain match finder, emitting
// (literal | back-reference) tokens with varint lengths. On WAL pages full
// of TPC-C rows it achieves roughly the paper's compression rate (~1.4×).
//
// Format: [varint original_size] then a token stream. Each control byte
// holds 8 flags (LSB first); flag=0 → literal byte, flag=1 → match:
// varint distance (>=1), varint length - kMinMatch (a match is at most
// kMaxMatch bytes). The stream ends exactly after the token that completes
// original_size.
#pragma once

#include <optional>

#include "common/bytes.h"

namespace ginja {

class Lzss {
 public:
  static constexpr std::size_t kMinMatch = 4;
  static constexpr std::size_t kMaxMatch = 255 + kMinMatch;
  static constexpr std::size_t kWindow = 1 << 16;

  static Bytes Compress(ByteView input);

  // Appends the compressed stream to `out` without allocating an output
  // buffer of its own — the envelope encoder compresses straight into the
  // upload buffer it has already reserved.
  static void CompressAppend(ByteView input, Bytes& out);

  // Returns nullopt if the stream is malformed/truncated.
  static std::optional<Bytes> Decompress(ByteView input);

  // The original size a stream declares, or nullopt when the header is
  // truncated or declares more than any valid stream of this length can
  // expand to (so a corrupt header never sizes a huge buffer).
  static std::optional<std::size_t> DecodedSize(ByteView input);

  // Decompresses into the caller's buffer [dst, dst + len), which must be
  // exactly the stream's declared size. Returns false — having read only
  // inside `input` and written only inside the buffer — on a size mismatch
  // or a malformed, truncated or over-long stream. Back-references may not
  // reach before dst.
  static bool DecompressInto(ByteView input, std::uint8_t* dst, std::size_t len);
};

}  // namespace ginja
