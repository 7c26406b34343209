// Object envelope: the on-cloud byte format of every Ginja object.
//
// Encoding applies, in order: compression (optional; LZ77 + Huffman, lzh.h)
// → AES-128-CTR encryption (optional) → HMAC-SHA1 over the processed
// payload (always, §5.4: "basic integrity protection by storing a MAC of
// each object together with it"). Decoding verifies the MAC before doing
// anything else and reverses the pipeline.
//
// Two wire versions share a 33-byte header (magic u32, flags u8, nonce u64,
// mac 20B):
//
//   v1 'GNJ1' — payload is a single stream:
//     payload ...            (compressed stream if bit0, AES-CTR'd if bit1)
//
//   v2 'GNJ2' — chunked layout used above parallel_encode_threshold:
//     varint total_size      logical payload bytes
//     varint chunk_bytes     logical bytes per chunk (last may be short)
//     per chunk: u32 token = (enc_len << 1) | compressed, enc_len bytes
//
// Flag bits: 0x01 compressed, 0x02 encrypted, 0x04 entropy-coded (set with
// 0x01: compressed streams are Lzh streams; without it they are the v1
// LZSS streams of objects written before the entropy stage, which still
// decode). Encoders write 0x04 whenever they compress. A decoder rejects
// any other bit as Corruption. The flags byte sits outside the MAC.
//
// v2 chunks hold independent compressed streams and use CTR counter offset
// chunk_index * blocks_per_chunk, so chunks encode concurrently with
// disjoint keystream ranges and byte-identical output regardless of the
// thread count. Incompressible chunks store raw (compressed bit 0), which
// bounds enc_len <= chunk_bytes and keeps keystream ranges disjoint. The
// MAC always covers everything after the header.
//
// A third wire version carries *streamed* objects — uploads whose bytes
// leave the machine before the object is complete, so nothing can be
// patched retroactively (v1/v2 seal their header MAC last, which forbids
// streaming them):
//
//   v3 'GNJ3' — segment container, no header MAC:
//     u32 magic, u8 flags (reserved, 0; else Corruption)  the 5-byte prologue
//     per segment: u32 seg_len, seg_len bytes     a complete v1/v2 envelope
//
// Each segment is a self-contained envelope with its own MAC and its own
// nonce (the commit pipeline tags stream-segment nonces into a dedicated
// subspace), so integrity is per segment and a torn tail — a final
// segment whose bytes never all landed — decodes as Corruption while
// every preceding segment stays verifiable. Decoding concatenates the
// segment payloads in order.
//
// The hot path is EncodeInto: it consumes a scatter-gather PayloadView,
// reserves the output once, compresses straight into it, encrypts in place
// (CTR XORs the keystream over the written bytes), and patches the MAC into
// the reserved header slot — no intermediate full-payload buffers.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/codec/aes128.h"
#include "common/codec/hmac.h"
#include "common/result.h"
#include "common/stats.h"

namespace ginja {

class CodecPool;

struct EnvelopeOptions {
  bool compress = false;
  bool encrypt = false;
  // Password for key derivation. When encryption is off, only the MAC key is
  // derived from it (paper: a default configuration string).
  std::string password = "ginja-default-mac-key";
  // Payloads strictly larger than this encode as chunked v2 objects; at or
  // below, as v1. The format depends only on this threshold (never on
  // whether a codec pool is attached), so serial and parallel encodes of
  // the same payload are byte-identical.
  std::size_t parallel_encode_threshold = 256 * 1024;
  // Logical bytes per v2 chunk.
  std::size_t encode_chunk_bytes = 256 * 1024;
};

// Cumulative work counters, consumed by the Table-4 resource-usage model.
struct CodecStats {
  Counter bytes_compressed;    // plaintext bytes through the compressor
  Counter bytes_decompressed;
  Counter bytes_encrypted;     // bytes through AES-CTR (either direction)
  Counter bytes_macced;        // bytes through HMAC
  Counter bytes_copied;        // payload bytes gathered into scratch buffers
                               // on the encode path (the copy-counting hook:
                               // zero-copy encodes keep this at ~0)
};

class Envelope {
 public:
  explicit Envelope(EnvelopeOptions options);

  // Optional worker pool for chunk-parallel v2 encoding. Without one (or
  // with a single-threaded pool) chunks encode serially — same bytes out.
  void SetCodecPool(std::shared_ptr<CodecPool> pool) { pool_ = std::move(pool); }
  // The attached pool (may be null). The checkpoint pipeline borrows it to
  // fan delta-dump chunk hashing across the same codec budget.
  const std::shared_ptr<CodecPool>& codec_pool() const { return pool_; }

  // Encodes a payload for upload. Nonce must be unique per object; Ginja
  // uses the object timestamp.
  Bytes Encode(ByteView payload, std::uint64_t nonce) const;

  // Zero-copy encode: consumes the payload as scatter-gather pieces and
  // replaces `out` (clearing it first, reusing its capacity) with the
  // enveloped object.
  void EncodeInto(const PayloadView& payload, std::uint64_t nonce,
                  Bytes& out) const;

  // Derived-key variants for content-addressed objects (delta-dump
  // chunks). The AES key is derived per object — HMAC-SHA1(master enc
  // key, key_tweak) truncated to 16 bytes — so keystream is reused across
  // two objects only if their *entire* tweak collides. Ginja passes the
  // chunk's full 160-bit content digest, which removes the two-time-pad
  // risk of a truncated-nonce collision while keeping the encoding
  // deterministic in (payload, tweak, nonce): identical chunks still
  // produce identical ciphertext, so convergent dedup keeps working. The
  // MAC key and wire format are unchanged. Decoding with a wrong tweak
  // MAC-verifies but yields wrong bytes (or Corruption when compressed) —
  // content-addressed callers must verify the decoded bytes' digest,
  // which the chunk fetch path already does. When encryption is off these
  // are exactly Encode/Decode.
  Bytes EncodeDerived(ByteView payload, std::uint64_t nonce,
                      ByteView key_tweak) const;
  Result<Bytes> DecodeDerived(ByteView enveloped, ByteView key_tweak) const;

  // Verifies the MAC and reverses compression/encryption. Accepts all
  // three wire versions (v3 decodes each segment and concatenates the
  // payloads). A thin wrapper over DecodeInto with a fresh buffer.
  Result<Bytes> Decode(ByteView enveloped) const;

  // Decode-in-place counterpart of EncodeInto: replaces `out` with the
  // payload, reusing its allocation. Every payload byte is written once,
  // straight into its final slot (v2 chunks decompress into their own
  // slices); `out` only ever grows to fit, so a caller that decodes many
  // objects through one buffer pays no per-object allocation or page
  // faults. On error `out` holds unspecified bytes.
  Status DecodeInto(ByteView enveloped, Bytes& out) const;

  // The payload size Decode would produce, read from the headers alone
  // (no MAC check, no decompression): a figure to size buffers by before
  // decoding. A damaged object may state a wrong size; DecodeInto still
  // verifies everything and fails it.
  Result<std::size_t> PayloadSize(ByteView enveloped) const;

  // -- v3 streamed container helpers ----------------------------------------
  // The producer builds a stream as: StreamPrologue() once, then one
  // AppendStreamSegment per enveloped segment. Any byte-concatenation of
  // those parts in order is a valid (possibly torn) v3 object.
  static Bytes StreamPrologue();
  static void AppendStreamSegment(Bytes& out, ByteView enveloped_segment);

  const EnvelopeOptions& options() const { return options_; }
  const CodecStats& stats() const { return stats_; }

  static constexpr std::size_t kHeaderSize = 4 + 1 + 8 + 20;
  static constexpr std::size_t kStreamPrologueSize = 4 + 1;

 private:
  // Resolves logical range [begin, begin+len) of the payload: a direct
  // subspan when it lies within one piece, else a gather into `scratch`
  // (counted in stats_.bytes_copied).
  ByteView GatherRange(const PayloadView& payload, std::size_t begin,
                       std::size_t len, Bytes& scratch) const;

  // Expands the per-object AES schedule for a derived-key encode/decode
  // (HMAC-SHA1(enc_key_, key_tweak) truncated to the AES key size).
  Aes128 DeriveObjectAes(ByteView key_tweak) const;

  // The encode/decode cores, parameterized on the AES schedule so the
  // derived-key entry points share every byte of the format logic.
  // DecodeAt verifies and decodes one v1/v2 envelope into out[at, end),
  // growing `out` as needed (never shrinking it), and returns `end`.
  void EncodeIntoWith(const PayloadView& payload, std::uint64_t nonce,
                      const Aes128& aes, Bytes& out) const;
  Result<std::size_t> DecodeAt(ByteView enveloped, const Aes128& aes,
                               Bytes& out, std::size_t at) const;

  void EncodeV1Into(const PayloadView& payload, std::uint64_t nonce,
                    const Aes128& aes, Bytes& out) const;
  void EncodeV2Into(const PayloadView& payload, std::uint64_t nonce,
                    const Aes128& aes, Bytes& out) const;
  // Writes the 33-byte header over out[0..kHeaderSize): magic, flags,
  // nonce, and the MAC of out[kHeaderSize..].
  void SealHeader(std::uint32_t magic, std::uint8_t flags, std::uint64_t nonce,
                  Bytes& out) const;

  Result<std::size_t> DecodeV1At(std::uint8_t flags, std::uint64_t nonce,
                                 const Aes128& aes, ByteView body, Bytes& out,
                                 std::size_t at) const;
  Result<std::size_t> DecodeV2At(std::uint8_t flags, std::uint64_t nonce,
                                 const Aes128& aes, ByteView body, Bytes& out,
                                 std::size_t at) const;
  // Segments decode back to back from out[0]; returns the payload end.
  Result<std::size_t> DecodeV3At(ByteView enveloped, Bytes& out) const;

  EnvelopeOptions options_;
  std::array<std::uint8_t, 16> enc_key_;
  std::array<std::uint8_t, 16> mac_key_;
  Aes128 enc_aes_;  // key schedule expanded once, shared by every encode
  std::shared_ptr<CodecPool> pool_;
  mutable CodecStats stats_;
};

}  // namespace ginja
