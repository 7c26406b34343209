#include "ginja/object_id.h"

#include <charconv>
#include <limits>
#include <vector>

namespace ginja {

namespace {

std::optional<std::uint32_t> ParseU32(std::string_view s) {
  const auto v = ParseDecimal(s);
  if (!v || *v > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
  return static_cast<std::uint32_t>(*v);
}

// Splits on '_' from the right into exactly `n` trailing fields plus the
// head, which may itself contain '_' (file names can): numeric fields are
// parsed from fixed positions right-to-left.
std::vector<std::string_view> RSplit(std::string_view s, char sep, int n) {
  std::vector<std::string_view> fields;
  for (int i = 0; i < n; ++i) {
    const auto pos = s.rfind(sep);
    if (pos == std::string_view::npos) return {};
    fields.push_back(s.substr(pos + 1));
    s = s.substr(0, pos);
  }
  fields.push_back(s);  // head
  return fields;        // [field_n, ..., field_1, head]
}

}  // namespace

std::optional<std::uint64_t> ParseDecimal(std::string_view s) {
  if (s.empty() || (s.size() > 1 && s[0] == '0')) return std::nullopt;
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::string EscapePath(std::string_view path) {
  std::string out(path);
  for (char& c : out) {
    if (c == '/') c = '|';
  }
  return out;
}

std::string UnescapePath(std::string_view escaped) {
  std::string out(escaped);
  for (char& c : out) {
    if (c == '|') c = '/';
  }
  return out;
}

std::string WalObjectId::Encode() const {
  return "WAL/" + std::to_string(ts) + "_" + EscapePath(filename) + "_" +
         std::to_string(offset) + "_" + std::to_string(max_lsn);
}

std::optional<WalObjectId> WalObjectId::Decode(std::string_view name) {
  if (!name.starts_with("WAL/")) return std::nullopt;
  name.remove_prefix(4);
  // Layout: <ts>_<escaped>_<offset>_<maxlsn>; escaped may contain '_'.
  const auto fields = RSplit(name, '_', 2);  // [maxlsn, offset, ts_escaped]
  if (fields.size() != 3) return std::nullopt;
  const auto max_lsn = ParseDecimal(fields[0]);
  const auto offset = ParseDecimal(fields[1]);
  if (!max_lsn || !offset) return std::nullopt;
  const std::string_view head = fields[2];
  const auto us = head.find('_');
  if (us == std::string_view::npos) return std::nullopt;
  const auto ts = ParseDecimal(head.substr(0, us));
  // A raw '/' would unescape and re-encode as '|': not this name.
  const std::string_view escaped = head.substr(us + 1);
  if (!ts || escaped.find('/') != std::string_view::npos) return std::nullopt;

  WalObjectId out;
  out.ts = *ts;
  out.filename = UnescapePath(escaped);
  out.offset = *offset;
  out.max_lsn = *max_lsn;
  return out;
}

std::string TailObjectId::Encode() const {
  return "WALTAIL/" + std::to_string(ts) + "_" + std::to_string(seg) + "_" +
         std::to_string(replica) + "_" + std::to_string(max_lsn);
}

std::optional<TailObjectId> TailObjectId::Decode(std::string_view name) {
  if (!name.starts_with("WALTAIL/")) return std::nullopt;
  name.remove_prefix(8);
  const auto fields = RSplit(name, '_', 3);  // [maxlsn, replica, seg, ts]
  if (fields.size() != 4) return std::nullopt;
  const auto max_lsn = ParseDecimal(fields[0]);
  const auto replica = ParseU32(fields[1]);
  const auto seg = ParseU32(fields[2]);
  const auto ts = ParseDecimal(fields[3]);
  if (!max_lsn || !replica || !seg || !ts) return std::nullopt;
  TailObjectId out;
  out.ts = *ts;
  out.seg = *seg;
  out.replica = *replica;
  out.max_lsn = *max_lsn;
  return out;
}

std::string DbObjectId::Encode() const {
  return "DB/" + std::to_string(ts) + "_" +
         std::string(type == DbObjectType::kDump       ? "dump"
                     : type == DbObjectType::kManifest ? "manifest"
                                                       : "checkpoint") +
         "_" + std::to_string(size) + "_s" + std::to_string(seq) + "_l" +
         std::to_string(redo_lsn) + "_p" + std::to_string(part) + "of" +
         std::to_string(total_parts);
}

std::optional<DbObjectId> DbObjectId::Decode(std::string_view name) {
  if (!name.starts_with("DB/")) return std::nullopt;
  name.remove_prefix(3);
  // [p<part>of<total>, l<redolsn>, s<seq>, <size>, <ts>_<type>]
  const auto fields = RSplit(name, '_', 4);
  if (fields.size() != 5) return std::nullopt;
  auto tagged = [](std::string_view field, char tag) {
    return field.starts_with(tag) ? ParseDecimal(field.substr(1)) : std::nullopt;
  };
  const auto of = fields[0].find("of");
  const std::string_view head = fields[4];
  const auto us = head.find('_');
  if (!fields[0].starts_with('p') || of == std::string_view::npos ||
      us == std::string_view::npos) {
    return std::nullopt;
  }
  const auto part = ParseU32(fields[0].substr(1, of - 1));
  const auto total = ParseU32(fields[0].substr(of + 2));
  const auto redo_lsn = tagged(fields[1], 'l');
  const auto seq = tagged(fields[2], 's');
  const auto size = ParseDecimal(fields[3]);
  const auto ts = ParseDecimal(head.substr(0, us));
  if (!part || !total || *total == 0 || *part >= *total || !redo_lsn ||
      !seq || !size || !ts) {
    return std::nullopt;
  }
  DbObjectId out{*ts, DbObjectType::kCheckpoint, *size, *seq, *redo_lsn,
                 *part, *total};
  const std::string_view type = head.substr(us + 1);
  if (type == "dump") {
    out.type = DbObjectType::kDump;
  } else if (type == "manifest") {
    out.type = DbObjectType::kManifest;
  } else if (type != "checkpoint") {
    return std::nullopt;
  }
  return out;
}

}  // namespace ginja
