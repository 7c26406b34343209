#include "ginja/dedup.h"

#include <algorithm>
#include <limits>

#include "common/codec/codec_pool.h"
#include "ginja/object_id.h"
#include "obs/log.h"

namespace ginja {

namespace {

constexpr std::uint32_t kManifestMagic = 0x31464D47;  // "GMF1" little-endian
constexpr std::size_t kHexDigestLen = Sha1::kDigestSize * 2;
// Sanity bound on a manifest ref's path: generous for any real database
// file name, small enough that a corrupt length can't drive a huge
// allocation before the trailing-bytes check would catch it.
constexpr std::uint64_t kMaxManifestPathLen = 4096;
// The smallest encoded ref: empty path, one-byte offset and length
// varints, and the digest.
constexpr std::size_t kMinManifestRefBytes = 3 + Sha1::kDigestSize;

}  // namespace

std::string ChunkObjectId::Encode() const {
  return "CHUNK/" + ToHex(ByteView(digest.data(), digest.size())) + "_" +
         std::to_string(size);
}

std::optional<ChunkObjectId> ChunkObjectId::Decode(std::string_view name) {
  if (!name.starts_with("CHUNK/")) return std::nullopt;
  name.remove_prefix(6);
  if (name.size() < kHexDigestLen + 2 || name[kHexDigestLen] != '_') {
    return std::nullopt;
  }
  const std::string_view hex = name.substr(0, kHexDigestLen);
  const auto raw = FromHex(hex);
  // Canonical spelling only (lowercase hex, see object_id.h).
  if (!raw || ToHex(View(*raw)) != hex) return std::nullopt;
  const auto size = ParseDecimal(name.substr(kHexDigestLen + 1));
  if (!size) return std::nullopt;
  ChunkObjectId out;
  std::copy(raw->begin(), raw->end(), out.digest.begin());
  out.size = *size;
  return out;
}

std::uint64_t ChunkNonce(const Sha1::Digest& digest) {
  // Top byte 0x51 tags the chunk subspace; the remaining 56 bits come from
  // the digest prefix, so identical content yields an identical nonce
  // (convergent encryption). Distinct chunks collide on this truncation at
  // the ~2^28 birthday bound, which would be a real two-time pad under a
  // shared key at fleet scale — chunks therefore also encrypt under a
  // per-chunk AES key derived from the *full* digest (the EncodeDerived
  // tweak), so a nonce collision reuses no keystream.
  std::uint64_t v = 0x51ull << 56;
  for (int i = 0; i < 7; ++i) {
    v |= static_cast<std::uint64_t>(digest[i]) << (8 * (6 - i));
  }
  return v;
}

std::vector<ChunkRef> ChunkDumpEntries(const std::vector<FileEntry>& entries,
                                       std::size_t chunk_bytes,
                                       CodecPool* pool) {
  const std::size_t step = std::max<std::size_t>(1, chunk_bytes);
  std::vector<ChunkRef> refs;
  std::vector<ByteView> slices;
  for (const auto& entry : entries) {
    const ByteView data = View(entry.data);
    std::size_t pos = 0;
    do {
      const std::size_t len = std::min(step, data.size() - pos);
      ChunkRef ref;
      ref.path = entry.path;
      ref.offset = entry.offset + pos;
      ref.length = static_cast<std::uint32_t>(len);
      refs.push_back(std::move(ref));
      slices.push_back(data.subspan(pos, len));
      pos += len;
    } while (pos < data.size());
  }
  // Hashing dominates delta-dump build time for a large image; fan it
  // across the shared codec pool (SHA-NI per worker where available).
  auto hash_one = [&](std::size_t i) { refs[i].digest = Sha1::Hash(slices[i]); };
  if (pool != nullptr && pool->threads() > 1) {
    pool->ParallelFor(refs.size(), hash_one);
  } else {
    for (std::size_t i = 0; i < refs.size(); ++i) hash_one(i);
  }
  return refs;
}

Bytes EncodeManifest(const std::vector<ChunkRef>& refs) {
  Bytes out;
  PutU32(out, kManifestMagic);
  PutVarint(out, refs.size());
  for (const auto& ref : refs) {
    PutVarint(out, ref.path.size());
    Append(out, ByteView(reinterpret_cast<const std::uint8_t*>(ref.path.data()),
                         ref.path.size()));
    PutVarint(out, ref.offset);
    PutVarint(out, ref.length);
    Append(out, ByteView(ref.digest.data(), ref.digest.size()));
  }
  return out;
}

Result<std::vector<ChunkRef>> DecodeManifest(ByteView payload) {
  if (payload.size() < 4 || GetU32(payload.data()) != kManifestMagic) {
    return Status::Corruption("manifest: bad magic");
  }
  std::size_t pos = 4;
  const auto count = GetVarint(payload, pos);
  if (!count) return Status::Corruption("manifest: truncated count");
  // Bound the count before reserving: a ref takes at least three one-byte
  // varints plus its digest, so a crafted count cannot drive the
  // allocation past what the payload could hold.
  if (*count > (payload.size() - pos) / kMinManifestRefBytes) {
    return Status::Corruption("manifest: count exceeds payload");
  }
  std::vector<ChunkRef> refs;
  refs.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto path_len = GetVarint(payload, pos);
    // Overflow-safe bound: pos <= payload.size() after a successful
    // GetVarint, so the subtraction cannot wrap, whereas `pos + *path_len`
    // could for a crafted 64-bit length — letting the check pass and the
    // assign below read far out of bounds.
    if (!path_len || *path_len > kMaxManifestPathLen ||
        *path_len > payload.size() - pos) {
      return Status::Corruption("manifest: truncated path");
    }
    ChunkRef ref;
    ref.path.assign(reinterpret_cast<const char*>(payload.data() + pos),
                    static_cast<std::size_t>(*path_len));
    pos += static_cast<std::size_t>(*path_len);
    const auto offset = GetVarint(payload, pos);
    const auto length = GetVarint(payload, pos);
    if (!offset || !length ||
        *length > std::numeric_limits<std::uint32_t>::max() ||
        Sha1::kDigestSize > payload.size() - pos) {
      return Status::Corruption("manifest: truncated ref");
    }
    ref.offset = *offset;
    ref.length = static_cast<std::uint32_t>(*length);
    std::copy(payload.begin() + pos, payload.begin() + pos + Sha1::kDigestSize,
              ref.digest.begin());
    pos += Sha1::kDigestSize;
    refs.push_back(std::move(ref));
  }
  if (pos != payload.size()) return Status::Corruption("manifest: trailing bytes");
  return refs;
}

bool ChunkIndex::Contains(const Sha1::Digest& digest) const {
  std::lock_guard<std::mutex> lock(mu_);
  return chunks_.count(digest) > 0;
}

void ChunkIndex::MarkPresent(const Sha1::Digest& digest, std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  chunks_[digest].size = size;
}

void ChunkIndex::RegisterManifest(std::uint64_t seq,
                                  const std::vector<ChunkRef>& refs) {
  std::lock_guard<std::mutex> lock(mu_);
  if (manifests_.count(seq) > 0) return;
  std::set<Sha1::Digest> unique;
  for (const auto& ref : refs) unique.insert(ref.digest);
  auto& digests = manifests_[seq];
  digests.reserve(unique.size());
  for (const auto& d : unique) {
    auto& entry = chunks_[d];  // presence is implied by the reference
    ++entry.refs;
    digests.push_back(d);
  }
}

void ChunkIndex::ReleaseManifest(std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = manifests_.find(seq);
  if (it == manifests_.end()) return;
  for (const auto& d : it->second) {
    auto chunk = chunks_.find(d);
    if (chunk != chunks_.end() && chunk->second.refs > 0) {
      --chunk->second.refs;
    }
  }
  manifests_.erase(it);
}

std::vector<ChunkObjectId> ChunkIndex::ZeroRefChunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Quarantined: some visible manifest's references are unknown, so no
  // chunk can be proven unreferenced (header comment).
  if (quarantined_) return {};
  std::vector<ChunkObjectId> out;
  for (const auto& [digest, entry] : chunks_) {
    if (entry.refs == 0) out.push_back({digest, entry.size});
  }
  return out;
}

void ChunkIndex::SetQuarantined() {
  std::lock_guard<std::mutex> lock(mu_);
  quarantined_ = true;
}

bool ChunkIndex::quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_;
}

void ChunkIndex::RemoveChunk(const Sha1::Digest& digest) {
  std::lock_guard<std::mutex> lock(mu_);
  chunks_.erase(digest);
}

std::size_t ChunkIndex::ChunkCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chunks_.size();
}

std::uint64_t ChunkIndex::TotalChunkBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [digest, entry] : chunks_) total += entry.size;
  return total;
}

std::uint64_t ChunkIndex::RefCount(const Sha1::Digest& digest) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = chunks_.find(digest);
  return it == chunks_.end() ? 0 : it->second.refs;
}

void ChunkIndex::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  quarantined_ = false;
  chunks_.clear();
  manifests_.clear();
}

Status RebuildChunkIndex(ObjectStore& store, const Envelope& envelope,
                         const std::vector<ObjectMeta>& objects,
                         ChunkIndex* index) {
  index->Clear();
  std::vector<DbObjectId> manifests;
  for (const auto& meta : objects) {
    if (auto chunk = ChunkObjectId::Decode(meta.name)) {
      index->MarkPresent(chunk->digest, chunk->size);
      continue;
    }
    if (auto db = DbObjectId::Decode(meta.name)) {
      if (db->type == DbObjectType::kManifest) manifests.push_back(*db);
    }
  }
  for (const auto& id : manifests) {
    auto blob = store.Get(id.Encode());
    if (!blob.ok()) {
      // Vanished between LIST and GET: really gone, nothing to register.
      if (blob.status().code() == ErrorCode::kNotFound) continue;
      // Possibly transient (outage, throttling): fail the rebuild. If the
      // manifest were treated as absent, its chunks would rebuild at
      // refcount zero and — because the manifest itself stays visible and
      // may be the newest dump — the next zero-ref sweep would delete
      // chunks recovery still needs. See header comment.
      return blob.status();
    }
    auto payload = envelope.Decode(View(*blob));
    auto refs = payload.ok()
                    ? DecodeManifest(View(*payload))
                    : Result<std::vector<ChunkRef>>(payload.status());
    if (!refs.ok()) {
      // Genuinely corrupt (the envelope MAC rules out a bad fetch):
      // recovery would reject this manifest too, so the reboot proceeds —
      // but with the zero-ref sweep quarantined, since the corrupt
      // manifest's references are unknowable (header comment).
      Log(LogLevel::kWarn, "dedup",
          "corrupt manifest: chunk GC quarantined",
          {{"name", id.Encode()}, {"status", refs.status().ToString()}});
      index->SetQuarantined();
      continue;
    }
    index->RegisterManifest(id.seq, *refs);
  }
  return Status::Ok();
}

Result<ChunkAudit> AuditChunks(ObjectStore& store, const Envelope& envelope) {
  auto objects = store.List("");
  if (!objects.ok()) return objects.status();
  ChunkAudit audit;
  std::map<Sha1::Digest, std::uint64_t> present;  // digest -> named size
  std::vector<DbObjectId> manifests;
  for (const auto& meta : *objects) {
    if (auto chunk = ChunkObjectId::Decode(meta.name)) {
      present[chunk->digest] = chunk->size;
      ++audit.chunks;
      continue;
    }
    if (auto db = DbObjectId::Decode(meta.name)) {
      if (db->type == DbObjectType::kManifest) manifests.push_back(*db);
    }
  }
  std::set<Sha1::Digest> referenced;
  for (const auto& id : manifests) {
    ++audit.manifests;
    auto blob = store.Get(id.Encode());
    if (!blob.ok()) return blob.status();
    auto payload = envelope.Decode(View(*blob));
    if (!payload.ok()) return payload.status();
    auto refs = DecodeManifest(View(*payload));
    if (!refs.ok()) return refs.status();
    for (const auto& ref : *refs) {
      referenced.insert(ref.digest);
      if (present.count(ref.digest) == 0) {
        audit.missing.push_back(ChunkObjectId{ref.digest, ref.length}.Encode());
      }
    }
  }
  // Report orphans under their *actual* object names — the size suffix is
  // part of the name, so a report built with a dummy size would name
  // objects that do not exist and could not be GET/DELETEd.
  for (const auto& [d, size] : present) {
    if (referenced.count(d) == 0) {
      audit.orphans.push_back(ChunkObjectId{d, size}.Encode());
    }
  }
  return audit;
}

}  // namespace ginja
