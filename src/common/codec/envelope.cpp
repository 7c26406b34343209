#include "common/codec/envelope.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/codec/codec_pool.h"
#include "common/codec/lzh.h"
#include "common/codec/lzss.h"

namespace ginja {

namespace {
constexpr std::uint32_t kMagicV1 = 0x314A4E47u;  // "GNJ1" little-endian
constexpr std::uint32_t kMagicV2 = 0x324A4E47u;  // "GNJ2" little-endian
constexpr std::uint32_t kMagicV3 = 0x334A4E47u;  // "GNJ3" little-endian
constexpr std::uint8_t kFlagCompressed = 0x01;
constexpr std::uint8_t kFlagEncrypted = 0x02;
// Set with kFlagCompressed: the compressed streams are Lzh streams, not the
// v1 LZSS streams of objects written before the entropy stage.
constexpr std::uint8_t kFlagEntropyCoded = 0x04;
constexpr std::uint8_t kKnownFlags =
    kFlagCompressed | kFlagEncrypted | kFlagEntropyCoded;

// The decoder for a compressed stream under `flags`.
struct StreamCodec {
  std::optional<std::size_t> (*decoded_size)(ByteView);
  bool (*decompress_into)(ByteView, std::uint8_t*, std::size_t);
  std::size_t max_expansion;  // most bytes out per stream byte
};
constexpr StreamCodec kLzssCodec{&Lzss::DecodedSize, &Lzss::DecompressInto,
                                 Lzss::kMaxMatch};
constexpr StreamCodec kLzhCodec{&Lzh::DecodedSize, &Lzh::DecompressInto,
                                Lzh::kMaxExpansion};
const StreamCodec& CodecFor(std::uint8_t flags) {
  return (flags & kFlagEntropyCoded) ? kLzhCodec : kLzssCodec;
}

// CTR blocks reserved per v2 chunk: chunk i starts its keystream at counter
// i * BlocksPerChunk. enc_len never exceeds chunk_bytes (raw-store
// fallback), so chunk keystream ranges cannot overlap.
inline std::uint64_t BlocksPerChunk(std::size_t chunk_bytes) {
  return (static_cast<std::uint64_t>(chunk_bytes) + 15) / 16;
}

bool IsStream(ByteView enveloped) {
  return enveloped.size() >= Envelope::kStreamPrologueSize &&
         GetU32(enveloped.data()) == kMagicV3;
}

// Grows `out` to at least `size` bytes. Never shrinks it: a reused decode
// buffer keeps its (already faulted-in) bytes, and only growth is
// zero-filled.
void EnsureSize(Bytes& out, std::size_t size) {
  if (out.size() < size) out.resize(size);
}

// Decrypts a compressed stream into a per-thread scratch buffer and
// returns a view of it, valid until the thread's next call. The stream is
// read once, on its way into the caller's buffer, and is at most one v2
// chunk or one (small) v1 object, so the scratch stays small while the
// payload itself is never staged.
ByteView DecryptToScratch(const Aes128& aes, ByteView cipher,
                          std::uint64_t nonce, std::uint64_t counter) {
  thread_local Bytes scratch;
  scratch.assign(cipher.begin(), cipher.end());
  aes.CtrInPlace(scratch.data(), scratch.size(), nonce, counter);
  return View(scratch);
}
// Calls fn(segment) for each segment of a v3 container, in order, and
// stops at the first non-OK status; a frame or segment cut short is
// Corruption.
template <typename Fn>
Status ForEachSegment(ByteView enveloped, Fn&& fn) {
  std::size_t pos = Envelope::kStreamPrologueSize;
  while (pos < enveloped.size()) {
    if (pos + 4 > enveloped.size()) {
      return Status::Corruption("v3 segment frame truncated");
    }
    const std::uint32_t seg_len = GetU32(enveloped.data() + pos);
    pos += 4;
    if (seg_len == 0 || seg_len > enveloped.size() - pos) {
      return Status::Corruption("v3 segment truncated");
    }
    GINJA_RETURN_IF_ERROR(fn(enveloped.subspan(pos, seg_len)));
    pos += seg_len;
  }
  return Status::Ok();
}

}  // namespace

Envelope::Envelope(EnvelopeOptions options)
    : options_(std::move(options)),
      enc_key_(DeriveKey(options_.password, "ginja-enc")),
      mac_key_(DeriveKey(options_.password, "ginja-mac")),
      enc_aes_(enc_key_) {}

Bytes Envelope::Encode(ByteView payload, std::uint64_t nonce) const {
  Bytes out;
  EncodeInto(OnePiece(payload), nonce, out);
  return out;
}

void Envelope::EncodeInto(const PayloadView& payload, std::uint64_t nonce,
                          Bytes& out) const {
  EncodeIntoWith(payload, nonce, enc_aes_, out);
}

void Envelope::EncodeIntoWith(const PayloadView& payload, std::uint64_t nonce,
                              const Aes128& aes, Bytes& out) const {
  if (payload.size() > options_.parallel_encode_threshold) {
    EncodeV2Into(payload, nonce, aes, out);
  } else {
    EncodeV1Into(payload, nonce, aes, out);
  }
}

Aes128 Envelope::DeriveObjectAes(ByteView key_tweak) const {
  const MacTag prf =
      HmacSha1(ByteView(enc_key_.data(), enc_key_.size()), key_tweak);
  Aes128::Key key;
  std::memcpy(key.data(), prf.data(), key.size());
  return Aes128(key);
}

Bytes Envelope::EncodeDerived(ByteView payload, std::uint64_t nonce,
                              ByteView key_tweak) const {
  if (!options_.encrypt) return Encode(payload, nonce);
  Bytes out;
  EncodeIntoWith(OnePiece(payload), nonce, DeriveObjectAes(key_tweak), out);
  return out;
}

Result<Bytes> Envelope::DecodeDerived(ByteView enveloped,
                                      ByteView key_tweak) const {
  if (!options_.encrypt) return Decode(enveloped);
  if (IsStream(enveloped)) {
    // Chunks are never stream containers; recursing with a derived key
    // would mix key domains across segments.
    return Status::Corruption("derived-key object cannot be a v3 stream");
  }
  Bytes out;
  auto end = DecodeAt(enveloped, DeriveObjectAes(key_tweak), out, 0);
  if (!end.ok()) return end.status();
  out.resize(*end);
  return out;
}

ByteView Envelope::GatherRange(const PayloadView& payload, std::size_t begin,
                               std::size_t len, Bytes& scratch) const {
  if (len == 0) return ByteView();
  std::size_t off = 0;
  std::size_t first = 0;
  for (; first < payload.pieces.size(); ++first) {
    const ByteView piece = payload.pieces[first];
    if (begin < off + piece.size()) {
      const std::size_t within = begin - off;
      if (piece.size() - within >= len) {
        return piece.subspan(within, len);  // whole range in one piece
      }
      break;
    }
    off += piece.size();
  }

  scratch.clear();
  scratch.reserve(len);
  stats_.bytes_copied.Add(len);
  std::size_t remaining = len;
  std::size_t pos = begin;
  for (std::size_t i = first; i < payload.pieces.size() && remaining > 0; ++i) {
    const ByteView piece = payload.pieces[i];
    if (pos >= off + piece.size()) {
      off += piece.size();
      continue;
    }
    const std::size_t within = pos - off;
    const std::size_t take = std::min(piece.size() - within, remaining);
    Append(scratch, piece.subspan(within, take));
    pos += take;
    remaining -= take;
    off += piece.size();
  }
  return View(scratch);
}

void Envelope::SealHeader(std::uint32_t magic, std::uint8_t flags,
                          std::uint64_t nonce, Bytes& out) const {
  const ByteView body = ByteView(out).subspan(kHeaderSize);
  stats_.bytes_macced.Add(body.size());
  const MacTag mac =
      HmacSha1(ByteView(mac_key_.data(), mac_key_.size()), body);

  std::uint8_t* h = out.data();
  for (int i = 0; i < 4; ++i) h[i] = static_cast<std::uint8_t>(magic >> (8 * i));
  h[4] = flags;
  for (int i = 0; i < 8; ++i) h[5 + i] = static_cast<std::uint8_t>(nonce >> (8 * i));
  std::memcpy(h + 13, mac.data(), mac.size());
}

void Envelope::EncodeV1Into(const PayloadView& payload, std::uint64_t nonce,
                            const Aes128& aes, Bytes& out) const {
  out.clear();
  out.reserve(kHeaderSize + payload.size() + 16);
  out.resize(kHeaderSize);  // header patched last, once the body is final

  std::uint8_t flags = 0;
  if (options_.compress) {
    stats_.bytes_compressed.Add(payload.size());
    Bytes scratch;
    const ByteView whole = GatherRange(payload, 0, payload.size(), scratch);
    Lzh::CompressAppend(whole, out);
    if (out.size() - kHeaderSize < payload.size()) {
      flags |= kFlagCompressed | kFlagEntropyCoded;
    } else {
      // Incompressible: store raw so the envelope never costs more storage
      // than the plaintext would.
      out.resize(kHeaderSize);
      Append(out, whole);
    }
  } else {
    for (ByteView piece : payload.pieces) Append(out, piece);
  }

  if (options_.encrypt) {
    stats_.bytes_encrypted.Add(out.size() - kHeaderSize);
    aes.CtrInPlace(out.data() + kHeaderSize, out.size() - kHeaderSize, nonce);
    flags |= kFlagEncrypted;
  }

  SealHeader(kMagicV1, flags, options_.encrypt ? nonce : 0, out);
}

void Envelope::EncodeV2Into(const PayloadView& payload, std::uint64_t nonce,
                            const Aes128& aes, Bytes& out) const {
  const std::size_t chunk_bytes = options_.encode_chunk_bytes;
  const std::size_t total = payload.size();
  const std::size_t nchunks = (total + chunk_bytes - 1) / chunk_bytes;
  const std::uint64_t blocks_per_chunk = BlocksPerChunk(chunk_bytes);

  std::uint8_t flags = 0;
  if (options_.compress) flags |= kFlagCompressed | kFlagEntropyCoded;
  if (options_.encrypt) flags |= kFlagEncrypted;

  out.clear();
  out.reserve(kHeaderSize + 24 + total + nchunks * 8);
  out.resize(kHeaderSize);
  PutVarint(out, total);
  PutVarint(out, chunk_bytes);

  if (options_.compress) stats_.bytes_compressed.Add(total);
  if (options_.encrypt) stats_.bytes_encrypted.Add(total);

  // Encodes logical chunk i (compress + encrypt) appending to `dst`, whose
  // current tail must start at the chunk body position. Returns the token.
  auto encode_chunk = [&](std::size_t i, Bytes& dst, Bytes& scratch) {
    const std::size_t begin = i * chunk_bytes;
    const std::size_t len = std::min(chunk_bytes, total - begin);
    const ByteView chunk = GatherRange(payload, begin, len, scratch);
    const std::size_t body_pos = dst.size();

    bool compressed = false;
    if (options_.compress) {
      Lzh::CompressAppend(chunk, dst);
      if (dst.size() - body_pos < len) {
        compressed = true;
      } else {
        dst.resize(body_pos);  // raw-store: keeps enc_len <= chunk_bytes
      }
    }
    if (!compressed) Append(dst, chunk);

    const std::size_t enc_len = dst.size() - body_pos;
    if (options_.encrypt) {
      aes.CtrInPlace(dst.data() + body_pos, enc_len, nonce,
                     static_cast<std::uint64_t>(i) * blocks_per_chunk);
    }
    return static_cast<std::uint32_t>((enc_len << 1) |
                                      (compressed ? 1u : 0u));
  };

  const bool parallel = pool_ && pool_->threads() > 1 && nchunks > 1;
  if (!parallel) {
    Bytes scratch;
    for (std::size_t i = 0; i < nchunks; ++i) {
      const std::size_t tok_pos = out.size();
      out.resize(tok_pos + 4);  // token patched once enc_len is known
      const std::uint32_t token = encode_chunk(i, out, scratch);
      for (int b = 0; b < 4; ++b) {
        out[tok_pos + b] = static_cast<std::uint8_t>(token >> (8 * b));
      }
    }
  } else {
    // Chunks encode concurrently into per-chunk buffers, then concatenate.
    // Identical bytes to the serial path: each chunk's stream and CTR
    // counter range depend only on (payload, chunk index).
    std::vector<Bytes> bodies(nchunks);
    std::vector<std::uint32_t> tokens(nchunks);
    pool_->ParallelFor(nchunks, [&](std::size_t i) {
      Bytes scratch;
      tokens[i] = encode_chunk(i, bodies[i], scratch);
    });
    for (std::size_t i = 0; i < nchunks; ++i) {
      PutU32(out, tokens[i]);
      Append(out, View(bodies[i]));
    }
  }

  SealHeader(kMagicV2, flags, options_.encrypt ? nonce : 0, out);
}

Bytes Envelope::StreamPrologue() {
  Bytes out;
  out.reserve(kStreamPrologueSize);
  PutU32(out, kMagicV3);
  out.push_back(0);  // flags, reserved
  return out;
}

void Envelope::AppendStreamSegment(Bytes& out, ByteView enveloped_segment) {
  PutU32(out, static_cast<std::uint32_t>(enveloped_segment.size()));
  Append(out, enveloped_segment);
}

Result<Bytes> Envelope::Decode(ByteView enveloped) const {
  Bytes out;
  const Status st = DecodeInto(enveloped, out);
  if (!st.ok()) return st;
  return out;
}

Status Envelope::DecodeInto(ByteView enveloped, Bytes& out) const {
  // The v3 container has no header MAC of its own — integrity lives in the
  // per-segment envelopes — so it branches off before the MAC logic.
  auto end = IsStream(enveloped) ? DecodeV3At(enveloped, out)
                                 : DecodeAt(enveloped, enc_aes_, out, 0);
  if (!end.ok()) return end.status();
  out.resize(*end);  // trims a reused buffer that was larger; fills nothing
  return Status::Ok();
}

Result<std::size_t> Envelope::PayloadSize(ByteView enveloped) const {
  if (IsStream(enveloped)) {
    std::size_t total = 0;
    GINJA_RETURN_IF_ERROR(ForEachSegment(enveloped, [&](ByteView seg) {
      auto size = PayloadSize(seg);
      if (!size.ok()) return size.status();
      total += *size;
      return Status::Ok();
    }));
    return total;
  }
  if (enveloped.size() < kHeaderSize) {
    return Status::Corruption("envelope shorter than header");
  }
  const std::uint32_t magic = GetU32(enveloped.data());
  const std::uint8_t flags = enveloped[4];
  ByteView body = enveloped.subspan(kHeaderSize);
  std::size_t pos = 0;
  if (magic == kMagicV2) {
    const auto total = GetVarint(body, pos);
    if (!total) return Status::Corruption("v2 envelope header truncated");
    return static_cast<std::size_t>(*total);
  }
  if (magic != kMagicV1) return Status::Corruption("bad envelope magic");
  if (!(flags & kFlagCompressed)) return body.size();
  // A compressed v1 body opens with the stream's size varint (Lzh and v1
  // LZSS streams alike), under the keystream's first bytes when encrypted.
  body = body.first(std::min<std::size_t>(body.size(), 10));
  if (flags & kFlagEncrypted) {
    body = DecryptToScratch(enc_aes_, body, GetU64(enveloped.data() + 5), 0);
  }
  const auto size = GetVarint(body, pos);
  if (!size) return Status::Corruption("compressed stream corrupt");
  return static_cast<std::size_t>(*size);
}

Result<std::size_t> Envelope::DecodeAt(ByteView enveloped, const Aes128& aes,
                                       Bytes& out, std::size_t at) const {
  if (enveloped.size() < kHeaderSize) {
    return Status::Corruption("envelope shorter than header");
  }
  const std::uint32_t magic = GetU32(enveloped.data());
  if (magic != kMagicV1 && magic != kMagicV2) {
    return Status::Corruption("bad envelope magic");
  }
  const std::uint8_t flags = enveloped[4];
  if ((flags & ~kKnownFlags) != 0 ||
      (flags & (kFlagCompressed | kFlagEntropyCoded)) == kFlagEntropyCoded) {
    return Status::Corruption("unknown envelope flags");
  }
  const std::uint64_t nonce = GetU64(enveloped.data() + 5);

  MacTag stored_mac;
  std::memcpy(stored_mac.data(), enveloped.data() + 13, stored_mac.size());
  const ByteView body = enveloped.subspan(kHeaderSize);

  stats_.bytes_macced.Add(body.size());
  const MacTag actual =
      HmacSha1(ByteView(mac_key_.data(), mac_key_.size()), body);
  if (!MacEqual(stored_mac, actual)) {
    return Status::Corruption("object MAC mismatch");
  }

  return magic == kMagicV1 ? DecodeV1At(flags, nonce, aes, body, out, at)
                           : DecodeV2At(flags, nonce, aes, body, out, at);
}

Result<std::size_t> Envelope::DecodeV3At(ByteView enveloped, Bytes& out) const {
  // A torn stream — the final segment's frame or bytes cut short — is
  // Corruption: recovery treats the object like any other undecodable WAL
  // tail (truncate there). Every complete segment still MAC-verifies on
  // its own, so corruption inside an earlier segment is caught too. Each
  // segment decodes straight after the previous one's payload.
  if (enveloped[4] != 0) return Status::Corruption("unknown stream flags");
  std::size_t end = 0;
  GINJA_RETURN_IF_ERROR(ForEachSegment(enveloped, [&](ByteView seg) {
    auto seg_end = DecodeAt(seg, enc_aes_, out, end);
    if (!seg_end.ok()) return seg_end.status();
    end = *seg_end;
    return Status::Ok();
  }));
  return end;
}

Result<std::size_t> Envelope::DecodeV1At(std::uint8_t flags,
                                         std::uint64_t nonce,
                                         const Aes128& aes, ByteView body,
                                         Bytes& out, std::size_t at) const {
  if (!(flags & kFlagCompressed)) {
    // The single copy: the stored bytes land in place and decrypt there.
    EnsureSize(out, at + body.size());
    if (!body.empty()) std::memcpy(out.data() + at, body.data(), body.size());
    if (flags & kFlagEncrypted) {
      stats_.bytes_encrypted.Add(body.size());
      aes.CtrInPlace(out.data() + at, body.size(), nonce);
    }
    return at + body.size();
  }
  if (flags & kFlagEncrypted) {
    stats_.bytes_encrypted.Add(body.size());
    body = DecryptToScratch(aes, body, nonce, 0);
  }
  const StreamCodec& codec = CodecFor(flags);
  const auto size = codec.decoded_size(body);
  if (!size) return Status::Corruption("compressed stream corrupt");
  EnsureSize(out, at + *size);
  if (!codec.decompress_into(body, out.data() + at, *size)) {
    return Status::Corruption("compressed stream corrupt");
  }
  stats_.bytes_decompressed.Add(*size);
  return at + *size;
}

Result<std::size_t> Envelope::DecodeV2At(std::uint8_t flags,
                                         std::uint64_t nonce,
                                         const Aes128& aes, ByteView body,
                                         Bytes& out, std::size_t at) const {
  std::size_t pos = 0;
  const auto total = GetVarint(body, pos);
  const auto chunk_bytes = GetVarint(body, pos);
  if (!total || !chunk_bytes || *chunk_bytes == 0) {
    return Status::Corruption("v2 envelope header truncated");
  }
  const ByteView stream = body.subspan(pos);

  // The token table is scanned and validated whole before anything is
  // written (it is a few bytes per chunk and each token's position depends
  // on the previous chunk's enc_len). Every chunk must be able to produce
  // its share of `total`, which bounds the output allocation by the
  // stream's own size.
  struct ChunkRef {
    std::size_t stream_off = 0;
    std::size_t enc_len = 0;
    std::size_t begin = 0;   // payload offset
    std::size_t expect = 0;  // payload bytes
    bool compressed = false;
  };
  const StreamCodec& codec = CodecFor(flags);
  std::vector<ChunkRef> chunks;
  std::size_t spos = 0;
  std::size_t logical = 0;
  std::size_t enc_total = 0;
  while (logical < *total) {
    if (stream.size() - spos < 4) {
      return Status::Corruption("v2 chunk token truncated");
    }
    const std::uint32_t token = GetU32(stream.data() + spos);
    spos += 4;
    const std::size_t enc_len = token >> 1;
    const bool compressed = (token & 1u) != 0;
    const std::size_t expect =
        std::min<std::uint64_t>(*chunk_bytes, *total - logical);
    if (enc_len > *chunk_bytes || enc_len > stream.size() - spos) {
      return Status::Corruption("v2 chunk length out of range");
    }
    if (compressed ? expect > enc_len * codec.max_expansion : expect != enc_len) {
      return Status::Corruption("v2 chunk size mismatch");
    }
    chunks.push_back({spos, enc_len, logical, expect, compressed});
    spos += enc_len;
    enc_total += enc_len;
    logical += expect;
  }
  if (spos != stream.size()) {
    return Status::Corruption("v2 envelope trailing garbage");
  }

  // Each chunk lands straight in its fixed [begin, begin + expect) slice
  // of the caller's buffer: a raw chunk is copied there (and decrypted in
  // place), a compressed one decompresses there — from the stored bytes,
  // or from a per-thread decrypted copy of just that chunk. Chunks touch
  // disjoint slices and disjoint CTR counter ranges, so they fan out
  // across the codec pool with no coordination.
  const bool encrypted = (flags & kFlagEncrypted) != 0;
  if (encrypted) stats_.bytes_encrypted.Add(enc_total);
  EnsureSize(out, at + *total);
  std::uint8_t* const dst = out.data() + at;
  const std::uint64_t blocks_per_chunk = BlocksPerChunk(*chunk_bytes);
  std::atomic<bool> corrupt{false};
  std::atomic<std::uint64_t> decompressed{0};
  auto decode_chunk = [&](std::size_t i) {
    if (corrupt.load(std::memory_order_relaxed)) return;
    const ChunkRef& c = chunks[i];
    ByteView src = stream.subspan(c.stream_off, c.enc_len);
    const std::uint64_t counter = static_cast<std::uint64_t>(i) * blocks_per_chunk;
    if (!c.compressed) {
      std::memcpy(dst + c.begin, src.data(), c.expect);
      if (encrypted) aes.CtrInPlace(dst + c.begin, c.expect, nonce, counter);
      return;
    }
    if (encrypted) src = DecryptToScratch(aes, src, nonce, counter);
    if (!codec.decompress_into(src, dst + c.begin, c.expect)) {
      corrupt.store(true, std::memory_order_relaxed);
      return;
    }
    decompressed.fetch_add(c.expect, std::memory_order_relaxed);
  };
  if (pool_ && pool_->threads() > 1 && chunks.size() > 1) {
    pool_->ParallelFor(chunks.size(), decode_chunk);
  } else {
    for (std::size_t i = 0; i < chunks.size(); ++i) decode_chunk(i);
  }
  stats_.bytes_decompressed.Add(decompressed.load(std::memory_order_relaxed));
  if (corrupt.load(std::memory_order_relaxed)) {
    return Status::Corruption("v2 chunk stream corrupt");
  }
  return at + *total;
}

}  // namespace ginja
