// LZSS compression implemented from scratch: the v1 compressed stream.
//
// The first stand-in for the paper's "ZLIB configured for fastest
// operation" (§6): the greedy hash-chain LZ77 parse of lz_tokens.h with
// its tokens written raw. Envelopes no longer write this stream (they
// write the entropy-coded one of lzh.h over the same parse); its decoder
// stays so objects written before restore, and its encoder stays for
// tests, fixtures and benchmarks.
//
// Format: [varint original_size] then the v1 token layout (lz_tokens.h).
// The stream ends exactly after the token that completes original_size.
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/codec/lz_tokens.h"

namespace ginja {

class Lzss {
 public:
  static constexpr std::size_t kMinMatch = lz::kMinMatch;
  static constexpr std::size_t kMaxMatch = lz::kMaxMatch;
  static constexpr std::size_t kWindow = lz::kWindow;

  static Bytes Compress(ByteView input);

  // Appends the compressed stream to `out`.
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

  // The tokens a stream holds, or nullopt when it is malformed.
  static std::optional<std::vector<lz::Token>> Tokens(ByteView input);
};

}  // namespace ginja
