// Payload format shared by WAL and DB objects: a list of file-write
// entries (path, offset, content). A WAL object holds the aggregated
// segment writes of one batch; a DB object holds the file writes of one
// checkpoint, or entire files for a dump. Recovery applies entries in
// order with plain positional writes.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace ginja {

struct FileEntry {
  std::string path;
  std::uint64_t offset = 0;
  Bytes data;
};

// Borrowed form of FileEntry used on the encode hot path: the referenced
// path/data storage must outlive the ref (and any PayloadView built on it).
struct FileEntryRef {
  std::string_view path;
  std::uint64_t offset = 0;
  ByteView data;
};

std::vector<FileEntryRef> MakeEntryRefs(const std::vector<FileEntry>& entries);

Bytes EncodeEntries(const std::vector<FileEntry>& entries);

// Zero-copy form of EncodeEntries: writes only the per-entry framing
// (varints + paths) into `framing` and returns a scatter-gather view that
// interleaves framing slices with the entries' own data buffers — byte
// identical to EncodeEntries without copying entry data. `framing` is
// cleared and must outlive the returned view.
PayloadView EncodeEntriesView(const std::vector<FileEntryRef>& entries,
                              Bytes& framing);

// Accepts one count-prefixed entry list, or several back to back: a
// streamed (GNJ3) WAL object decodes to its segments' payloads
// concatenated, each a self-contained list. Entries are returned in
// byte order, so later segments' rewrites stay last-write-wins. The refs
// are views into `payload` — nothing is copied — so the payload buffer
// must outlive them (recovery applies them before decoding the next
// object into the same buffer).
Result<std::vector<FileEntryRef>> DecodeEntries(ByteView payload);

}  // namespace ginja
