#include "db/wal.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "common/codec/crc32.h"

namespace ginja {

namespace {

constexpr std::uint8_t kRecordMagic = 0xA7;
constexpr std::size_t kRecordHeaderSize = 1 + 1 + 4 + 4;  // magic, type, len, crc
constexpr std::size_t kMaxRecordBody = 16 * 1024 * 1024;

Bytes SerializeBody(const WalRecord& r) {
  Bytes body;
  PutVarint(body, r.txn_id);
  if (r.type != WalRecordType::kCommit) {
    PutVarint(body, r.table.size());
    Append(body, View(ToBytes(r.table)));
    PutVarint(body, r.key.size());
    Append(body, View(ToBytes(r.key)));
    if (r.type == WalRecordType::kPut) {
      PutVarint(body, r.value.size());
      Append(body, View(r.value));
    }
  }
  return body;
}

// Parses one record from `buf` at `pos`. Returns false when the buffer does
// not hold a complete, valid record (caller decides whether more pages can
// be appended or the stream ends here).
bool ParseRecord(const Bytes& buf, std::size_t& pos, WalRecord* out, bool* corrupt) {
  *corrupt = false;
  if (pos + kRecordHeaderSize > buf.size()) return false;
  if (buf[pos] != kRecordMagic) {
    *corrupt = true;
    return false;
  }
  const auto type = static_cast<WalRecordType>(buf[pos + 1]);
  if (type != WalRecordType::kPut && type != WalRecordType::kDelete &&
      type != WalRecordType::kCommit) {
    *corrupt = true;
    return false;
  }
  const std::uint32_t body_len = GetU32(buf.data() + pos + 2);
  const std::uint32_t body_crc = GetU32(buf.data() + pos + 6);
  if (body_len > kMaxRecordBody) {
    *corrupt = true;
    return false;
  }
  if (pos + kRecordHeaderSize + body_len > buf.size()) return false;
  const ByteView body(buf.data() + pos + kRecordHeaderSize, body_len);
  if (Crc32(body) != body_crc) {
    *corrupt = true;
    return false;
  }

  std::size_t p = 0;
  auto txn = GetVarint(body, p);
  if (!txn) {
    *corrupt = true;
    return false;
  }
  out->type = type;
  out->txn_id = *txn;
  out->table.clear();
  out->key.clear();
  out->value.clear();
  if (type != WalRecordType::kCommit) {
    auto read_str = [&](std::string* s) {
      auto len = GetVarint(body, p);
      if (!len || p + *len > body.size()) return false;
      s->assign(reinterpret_cast<const char*>(body.data() + p), *len);
      p += *len;
      return true;
    };
    if (!read_str(&out->table) || !read_str(&out->key)) {
      *corrupt = true;
      return false;
    }
    if (type == WalRecordType::kPut) {
      auto len = GetVarint(body, p);
      if (!len || p + *len > body.size()) {
        *corrupt = true;
        return false;
      }
      out->value.assign(body.begin() + static_cast<long>(p),
                        body.begin() + static_cast<long>(p + *len));
      p += *len;
    }
  }
  pos += kRecordHeaderSize + body_len;
  return true;
}

}  // namespace

Bytes WalRecord::Serialize() const {
  const Bytes body = SerializeBody(*this);
  Bytes out;
  out.reserve(kRecordHeaderSize + body.size());
  out.push_back(kRecordMagic);
  out.push_back(static_cast<std::uint8_t>(type));
  PutU32(out, static_cast<std::uint32_t>(body.size()));
  PutU32(out, Crc32(View(body)));
  Append(out, View(body));
  return out;
}

WalWriter::WalWriter(VfsPtr vfs, DbLayout layout, Lsn start_lsn,
                     std::function<void()> on_wrap_needed)
    : vfs_(std::move(vfs)),
      layout_(layout),
      on_wrap_needed_(std::move(on_wrap_needed)),
      end_lsn_(start_lsn),
      current_page_(start_lsn / layout.WalPayloadSize()) {
  // Rehydrate the partially-filled tail page after a reboot/recovery.
  const std::size_t fill = start_lsn % layout_.WalPayloadSize();
  if (fill > 0) {
    const auto loc = layout_.LocateWalPage(current_page_);
    auto page = vfs_->Read(loc.file, loc.offset + DbLayout::kWalPageHeaderSize,
                           fill);
    if (page.ok() && page->size() == fill) {
      current_payload_ = std::move(*page);
    } else {
      current_payload_.assign(fill, 0);  // unreadable tail: zero-filled
    }
  }
}

Lsn WalWriter::EndLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_lsn_;
}

void WalWriter::SetCheckpointLsn(Lsn lsn) {
  checkpoint_lsn_.store(lsn, std::memory_order_relaxed);
}

void WalWriter::EnsureWrapSafe(std::uint64_t logical_page) {
  if (!layout_.circular_wal) return;
  const std::uint64_t slots = layout_.CircularSlots();
  // Writing `logical_page` recycles the slot previously holding page
  // (logical_page - slots); that page must already be below the checkpoint.
  for (int attempts = 0; attempts < 3; ++attempts) {
    if (logical_page < slots) return;
    const std::uint64_t recycled = logical_page - slots;
    const std::uint64_t oldest_needed =
        PageOfLsn(checkpoint_lsn_.load(std::memory_order_relaxed));
    if (recycled < oldest_needed) return;
    if (!on_wrap_needed_) break;
    on_wrap_needed_();  // engine must flush + advance the checkpoint
  }
  assert(false && "circular WAL wrapped over un-checkpointed pages");
}

Status WalWriter::FlushPage(std::uint64_t logical_page, bool sync) {
  EnsureWrapSafe(logical_page);
  const std::size_t payload_size = layout_.WalPayloadSize();
  Bytes page;
  page.reserve(layout_.wal_page_size);
  // Header: crc (filled below), used, logical page number.
  PutU32(page, 0);
  PutU16(page, static_cast<std::uint16_t>(current_payload_.size()));
  PutU64(page, logical_page);
  Append(page, View(current_payload_));
  page.resize(layout_.wal_page_size, 0);
  const std::uint32_t crc = Crc32(ByteView(page.data() + 4, page.size() - 4));
  page[0] = static_cast<std::uint8_t>(crc);
  page[1] = static_cast<std::uint8_t>(crc >> 8);
  page[2] = static_cast<std::uint8_t>(crc >> 16);
  page[3] = static_cast<std::uint8_t>(crc >> 24);
  (void)payload_size;

  const auto loc = layout_.LocateWalPage(logical_page);
  return vfs_->Write(loc.file, loc.offset, View(page), sync);
}

Result<Lsn> WalWriter::AppendAndSync(const std::vector<WalRecord>& records) {
  Bytes blob;
  for (const auto& r : records) Append(blob, View(r.Serialize()));

  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t payload_size = layout_.WalPayloadSize();
  std::size_t pos = 0;
  while (pos < blob.size()) {
    const std::size_t room = payload_size - current_payload_.size();
    const std::size_t take = std::min(room, blob.size() - pos);
    current_payload_.insert(current_payload_.end(),
                            blob.begin() + static_cast<long>(pos),
                            blob.begin() + static_cast<long>(pos + take));
    pos += take;
    const bool page_full = current_payload_.size() == payload_size;
    const bool last_write = pos == blob.size();
    // Intermediate full pages are plain writes; the final write of the
    // commit is synchronous — the "update commit" event of Table 1.
    GINJA_RETURN_IF_ERROR(FlushPage(current_page_, last_write));
    if (page_full) {
      ++current_page_;
      current_payload_.clear();
    }
  }
  end_lsn_ += blob.size();
  return end_lsn_;
}

std::vector<std::string> WalWriter::RemoveSegmentsBelow(Lsn checkpoint_lsn) {
  std::vector<std::string> removed;
  // Circular logs recycle in place. Checked before locking: the forced-
  // checkpoint callback runs while AppendAndSync holds mu_.
  if (layout_.circular_wal) return removed;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t needed_page = PageOfLsn(checkpoint_lsn);
  const std::uint64_t needed_segment = needed_page / layout_.PagesPerSegment();
  auto files = vfs_->ListFiles("pg_xlog/");
  if (!files.ok()) return removed;
  // Segment index is recoverable by matching generated names.
  for (std::uint64_t seg = 0; seg < needed_segment; ++seg) {
    const std::string name = layout_.WalFileName(seg);
    if (vfs_->Exists(name)) {
      if (vfs_->Remove(name).ok()) removed.push_back(name);
    }
  }
  return removed;
}

WalReader::WalReader(VfsPtr vfs, DbLayout layout)
    : vfs_(std::move(vfs)), layout_(layout) {}

Result<std::optional<Bytes>> WalReader::ReadPagePayload(
    std::uint64_t logical_page) {
  const std::optional<Bytes> end_of_log;
  const auto loc = layout_.LocateWalPage(logical_page);
  auto page = vfs_->Read(loc.file, loc.offset, layout_.wal_page_size);
  if (!page.ok()) {
    if (page.status().code() == ErrorCode::kNotFound) return end_of_log;
    return page.status();
  }
  if (page->size() < DbLayout::kWalPageHeaderSize) return end_of_log;
  // Short page (recovered tail): pad to full size for uniform handling.
  if (page->size() < layout_.wal_page_size) {
    page->resize(layout_.wal_page_size, 0);
  }
  const std::uint32_t stored_crc = GetU32(page->data());
  if (Crc32(ByteView(page->data() + 4, page->size() - 4)) != stored_crc) {
    return end_of_log;
  }
  const std::uint16_t used = GetU16(page->data() + 4);
  const std::uint64_t page_number = GetU64(page->data() + 6);
  if (page_number != logical_page) return end_of_log;  // older wrap cycle
  if (used > layout_.WalPayloadSize()) return end_of_log;
  return std::optional<Bytes>(std::in_place,
                              page->begin() + DbLayout::kWalPageHeaderSize,
                              page->begin() + DbLayout::kWalPageHeaderSize + used);
}

Result<Lsn> WalReader::Replay(
    Lsn from_lsn, const std::function<void(WalRecord&)>& on_record) {
  const std::size_t payload_size = layout_.WalPayloadSize();
  std::uint64_t page = from_lsn / payload_size;
  const std::size_t skip = from_lsn % payload_size;

  // Transactions buffer until their commit record proves atomicity.
  std::map<std::uint64_t, std::vector<WalRecord>> pending;

  // buf[consumed..] is the unparsed stream; buf[0] sits at buf_start_lsn.
  Bytes buf;
  Lsn buf_start_lsn = from_lsn;
  std::size_t consumed = 0;
  bool last_page_full = false;

  {
    auto payload = ReadPagePayload(page);
    if (!payload.ok()) return payload.status();
    if (!*payload) return from_lsn;  // nothing beyond the checkpoint
    if ((*payload)->size() < skip) return from_lsn;
    buf.assign((*payload)->begin() + static_cast<long>(skip), (*payload)->end());
    last_page_full = (*payload)->size() == payload_size;
  }

  while (true) {
    WalRecord record;
    bool corrupt = false;
    std::size_t pos = consumed;
    if (ParseRecord(buf, pos, &record, &corrupt)) {
      record.lsn = buf_start_lsn + consumed;
      consumed = pos;
      if (record.type == WalRecordType::kCommit) {
        auto it = pending.find(record.txn_id);
        if (it != pending.end()) {
          for (auto& r : it->second) on_record(r);
          pending.erase(it);
        }
      } else {
        pending[record.txn_id].push_back(std::move(record));
      }
      continue;
    }
    if (corrupt) break;
    // Incomplete record: only continue if the current page was full, i.e.
    // the stream provably continues on the next page.
    if (!last_page_full) break;
    ++page;
    auto payload = ReadPagePayload(page);
    if (!payload.ok()) return payload.status();
    if (!*payload) break;
    last_page_full = (*payload)->size() == payload_size;
    // Drop the parsed prefix so the window stays one page plus the record
    // that spans into it.
    buf.erase(buf.begin(), buf.begin() + static_cast<long>(consumed));
    buf_start_lsn += consumed;
    consumed = 0;
    Append(buf, View(**payload));
  }

  return buf_start_lsn + consumed;
}

}  // namespace ginja
