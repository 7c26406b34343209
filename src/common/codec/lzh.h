// LZ77 + canonical Huffman: the compressed stream every envelope writes.
//
// The stand-in for the paper's "ZLIB configured for fastest operation"
// (§6), which is LZ77 followed by a Huffman stage. The LZ77 parse is the
// v1 stream's (lz_tokens.h) token for token; this stream entropy-codes
// those tokens per block instead of writing them raw.
//
// Format: [varint original_size], then blocks until original_size bytes
// are out. A block covers the tokens of about kBlockBytes of input:
//   u8 type          0 = Huffman, 1 = v1 tokens
//   varint out_len   bytes the block decodes to (>= 1)
//   varint body_len
//   body
// A Huffman body is one LSB-first bit stream, zero-padded to a byte:
//   9 bits nlit - 1, 5 bits ndist (<= 17)
//   19 x 3 bits      the code-length code's lengths (<= 7)
//   nlit literal/length then ndist distance code lengths, coded with the
//                    code-length code: 0-15 a length, 16 the previous
//                    length 3-6 times (2 extra bits), 17 3-10 zeros
//                    (3 bits), 18 11-138 zeros (7 bits)
//   tokens           a literal/length symbol (< 256 a literal, 256 + n - 4
//                    a match of n bytes); after a match, a distance symbol
//                    s and max(s - 1, 0) extra bits: distance - 1 is s for
//                    s <= 1, else 2^(s-1) + extra
// Both codes are canonical with lengths of at most 15 bits, built per
// block with ties broken by symbol index, so encoding is deterministic.
// A v1-token body is the v1 layout of lz_tokens.h with its flag groups
// restarting at the block; the encoder sends a block that way whenever
// that is no larger, so no stream is more than a few header bytes larger
// than the v1 stream of the same input.
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/codec/lz_tokens.h"

namespace ginja {

class Lzh {
 public:
  // Input bytes whose tokens share one block's codes. It also caps the
  // thread-local token buffer (4 bytes a token, at most a token a byte)
  // that every encoding thread keeps; per-block tables cost under 0.5% of
  // a 256 KiB chunk's WAL bytes.
  static constexpr std::size_t kBlockBytes = 64 * 1024;
  // Most bytes out per stream byte: a kMaxMatch-byte match costs at least
  // two bits (one-bit literal/length and distance codes).
  static constexpr std::size_t kMaxExpansion = 4 * lz::kMaxMatch;

  static Bytes Compress(ByteView input);

  // Appends the compressed stream to `out` — the envelope encoder
  // compresses straight into the upload buffer it has already reserved.
  static void CompressAppend(ByteView input, Bytes& out);

  // Returns nullopt if the stream is malformed/truncated.
  static std::optional<Bytes> Decompress(ByteView input);

  // The original size a stream declares, or nullopt when the header is
  // truncated or declares more than any valid stream of this length can
  // expand to.
  static std::optional<std::size_t> DecodedSize(ByteView input);

  // Decompresses into [dst, dst + len), which must be exactly the declared
  // size. Returns false — having read only inside `input` and written only
  // inside the buffer — on a size mismatch or any malformed, truncated or
  // over-long stream or code table.
  static bool DecompressInto(ByteView input, std::uint8_t* dst, std::size_t len);

  // The tokens a stream holds, or nullopt when it is malformed.
  static std::optional<std::vector<lz::Token>> Tokens(ByteView input);
};

}  // namespace ginja
