// Cloud object naming — the paper's data model (§5.2) plus two additions.
//
// Paper format:
//   WAL/<ts>_<filename>_<offset>   (ts totally orders WAL objects)
//   DB/<ts>_<type>_<size>          (type ∈ {dump, checkpoint})
//
// This implementation extends the names with recovery-safety metadata that
// the paper keeps implicit (documented in DESIGN.md):
//   * WAL objects carry `maxlsn`, the exclusive end of the WAL-stream range
//     they cover. Garbage collection deletes a WAL object only when the
//     uploaded checkpoint's redo LSN has passed `maxlsn` — required for
//     soundness with InnoDB-style *fuzzy* checkpoints, where the redo point
//     can lag the checkpoint-begin timestamp. Because maxlsn is monotone in
//     ts, this still always deletes a prefix (no gaps are created).
//   * DB objects carry a sequence number (breaking ts ties between
//     checkpoints with no intervening commits) and a part index, since
//     objects are split at the 20 MB limit (§5.2 footnote 3).
//
//   WAL/<ts>_<escaped-filename>_<offset>_<maxlsn>
//   DB/<ts>_<type>_<size>_s<seq>_l<redolsn>_p<part>of<total>
//
// DB objects also carry their checkpoint's redo LSN (`redolsn`), which
// lets the point-in-time retention policy (§5.4) compute exactly which
// WAL objects each kept snapshot still needs — even after a reboot, when
// only the names survive.
//
// '/' in file names is escaped as '|' so names stay flat object keys.
//
// Decoding accepts only the canonical spelling — the one Encode() writes
// (decimal fields without leading zeros, 32-bit fields within range) — so
// every accepted name re-encodes to itself. Recovery and GC address
// objects by id.Encode(); a second spelling of the same id would make
// them GET or DELETE a name that does not exist.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ginja {

struct WalObjectId {
  std::uint64_t ts = 0;
  std::string filename;       // local WAL segment path (unescaped)
  std::uint64_t offset = 0;   // position of the content in the segment
  std::uint64_t max_lsn = 0;  // exclusive end of covered WAL-stream range

  std::string Encode() const;
  static std::optional<WalObjectId> Decode(std::string_view name);
};

// Early-ack tail object (streaming commit path): one already-enveloped
// stream segment of an in-progress WAL object, PUT as soon as the
// segment seals so its writes can acknowledge before the enclosing
// object finishes. `max_lsn` is the exclusive end of the WAL-stream range
// covered by segments 0..seg of that batch (cumulative, so monotone in
// seg), which makes GC of superseded tails a seg-prefix — recovery can
// rely on the surviving tails of a ts being a dense suffix-run.
//
//   WALTAIL/<ts>_<seg>_<replica>_<maxlsn>
struct TailObjectId {
  std::uint64_t ts = 0;       // the enclosing WAL object's ts
  std::uint32_t seg = 0;      // 0-based segment index within the stream
  std::uint32_t replica = 0;  // the writer PUTs 0; recovery tries any
  std::uint64_t max_lsn = 0;  // exclusive end covered by segments 0..seg

  std::string Encode() const;
  static std::optional<TailObjectId> Decode(std::string_view name);
};

// kManifest is the delta-dump form of kDump (see ginja/dedup.h): a
// single-part DB object whose payload lists CHUNK/ references instead of
// file contents. Its `size` field carries the *logical* database bytes the
// manifest covers, so the 150% dump rule's TotalDbBytes sum keeps its
// meaning regardless of representation.
enum class DbObjectType { kDump, kCheckpoint, kManifest };

struct DbObjectId {
  std::uint64_t ts = 0;  // last WAL-object ts before the checkpoint began
  DbObjectType type = DbObjectType::kCheckpoint;
  std::uint64_t size = 0;     // logical payload bytes (pre-envelope)
  std::uint64_t seq = 0;      // global checkpoint sequence number
  std::uint64_t redo_lsn = 0; // the checkpoint's redo point (WAL-stream pos)
  std::uint32_t part = 0;     // 0-based part index
  std::uint32_t total_parts = 1;

  std::string Encode() const;
  static std::optional<DbObjectId> Decode(std::string_view name);
};

// A canonical decimal field: digits only, no leading zero (except "0"
// itself), at most UINT64_MAX.
std::optional<std::uint64_t> ParseDecimal(std::string_view s);

std::string EscapePath(std::string_view path);
std::string UnescapePath(std::string_view escaped);

}  // namespace ginja
