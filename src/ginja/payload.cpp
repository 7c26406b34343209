#include "ginja/payload.h"

namespace ginja {

std::vector<FileEntryRef> MakeEntryRefs(const std::vector<FileEntry>& entries) {
  std::vector<FileEntryRef> refs;
  refs.reserve(entries.size());
  for (const auto& e : entries) {
    refs.push_back({e.path, e.offset, View(e.data)});
  }
  return refs;
}

Bytes EncodeEntries(const std::vector<FileEntry>& entries) {
  Bytes out;
  PutVarint(out, entries.size());
  for (const auto& e : entries) {
    PutVarint(out, e.path.size());
    Append(out, View(ToBytes(e.path)));
    PutVarint(out, e.offset);
    PutVarint(out, e.data.size());
    Append(out, View(e.data));
  }
  return out;
}

PayloadView EncodeEntriesView(const std::vector<FileEntryRef>& entries,
                              Bytes& framing) {
  // Pass 1: write every framing run (count, then per entry: path_len, path,
  // offset, data_len) into one buffer, remembering where each run ends.
  // Views are built afterwards so buffer reallocation can't invalidate them.
  framing.clear();
  std::vector<std::size_t> marks;
  marks.reserve(entries.size());
  PutVarint(framing, entries.size());
  for (const auto& e : entries) {
    PutVarint(framing, e.path.size());
    Append(framing, ByteView(reinterpret_cast<const std::uint8_t*>(e.path.data()),
                             e.path.size()));
    PutVarint(framing, e.offset);
    PutVarint(framing, e.data.size());
    marks.push_back(framing.size());
  }

  // Pass 2: interleave framing slices with the borrowed data buffers.
  PayloadView view;
  view.pieces.reserve(entries.size() * 2 + 1);
  const ByteView f = View(framing);
  std::size_t prev = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    view.Add(f.subspan(prev, marks[i] - prev));
    view.Add(entries[i].data);
    prev = marks[i];
  }
  if (prev < f.size()) view.Add(f.subspan(prev));  // empty list: just count
  return view;
}

Result<std::vector<FileEntryRef>> DecodeEntries(ByteView payload) {
  std::size_t pos = 0;
  std::vector<FileEntryRef> out;
  // A streamed object's payload is several count-prefixed lists back to
  // back (one per segment); keep parsing until the buffer is exhausted.
  // At least one run is required — an empty payload is corrupt. Lengths
  // are checked against the bytes left (`len > size - pos`), which cannot
  // overflow however large a corrupt varint is.
  do {
    const auto count = GetVarint(payload, pos);
    if (!count) return Status::Corruption("entry count truncated");
    // Each entry takes at least three framing bytes, so a count the rest
    // of the payload cannot hold is rejected before it sizes anything.
    if (*count > (payload.size() - pos) / 3) {
      return Status::Corruption("entry count exceeds payload");
    }
    out.reserve(out.size() + *count);
    for (std::uint64_t i = 0; i < *count; ++i) {
      FileEntryRef e;
      const auto path_len = GetVarint(payload, pos);
      if (!path_len || *path_len > payload.size() - pos) {
        return Status::Corruption("entry path truncated");
      }
      e.path = std::string_view(
          reinterpret_cast<const char*>(payload.data() + pos), *path_len);
      pos += *path_len;
      const auto offset = GetVarint(payload, pos);
      if (!offset) return Status::Corruption("entry offset truncated");
      e.offset = *offset;
      const auto data_len = GetVarint(payload, pos);
      if (!data_len || *data_len > payload.size() - pos) {
        return Status::Corruption("entry data truncated");
      }
      e.data = payload.subspan(pos, *data_len);
      pos += *data_len;
      out.push_back(e);
    }
  } while (pos < payload.size());
  return out;
}

}  // namespace ginja
