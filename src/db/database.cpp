#include "db/database.h"

#include <algorithm>
#include <cassert>

#include "common/codec/crc32.h"

namespace ginja {

namespace {

constexpr std::uint32_t kCatalogMagic = 0x47544143u;  // "CATG"

Bytes EncodeCatalog(const std::map<std::string, Table>& tables) {
  Bytes body;
  PutVarint(body, tables.size());
  for (const auto& [name, table] : tables) {
    PutVarint(body, name.size());
    Append(body, View(ToBytes(name)));
    PutU32(body, table.bucket_count());
  }
  Bytes out;
  PutU32(out, kCatalogMagic);
  PutU32(out, Crc32(View(body)));
  PutU32(out, static_cast<std::uint32_t>(body.size()));
  Append(out, View(body));
  return out;
}

Result<std::vector<std::pair<std::string, std::uint32_t>>> DecodeCatalog(
    ByteView bytes) {
  if (bytes.size() < 12 || GetU32(bytes.data()) != kCatalogMagic) {
    return Status::Corruption("bad catalog magic");
  }
  const std::uint32_t crc = GetU32(bytes.data() + 4);
  const std::uint32_t len = GetU32(bytes.data() + 8);
  if (bytes.size() < 12 + len) return Status::Corruption("catalog truncated");
  const ByteView body(bytes.data() + 12, len);
  if (Crc32(body) != crc) return Status::Corruption("catalog crc mismatch");

  std::size_t pos = 0;
  auto count = GetVarint(body, pos);
  if (!count) return Status::Corruption("catalog count");
  std::vector<std::pair<std::string, std::uint32_t>> out;
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto name_len = GetVarint(body, pos);
    if (!name_len || pos + *name_len + 4 > body.size()) {
      return Status::Corruption("catalog entry truncated");
    }
    std::string name(reinterpret_cast<const char*>(body.data() + pos), *name_len);
    pos += *name_len;
    const std::uint32_t buckets = GetU32(body.data() + pos);
    pos += 4;
    out.emplace_back(std::move(name), buckets);
  }
  return out;
}

}  // namespace

Database::Database(VfsPtr vfs, DbLayout layout, DbOptions options)
    : vfs_(std::move(vfs)), layout_(layout), options_(options) {
  if (options_.default_buckets == 0) options_.default_buckets = 64;
}

Status Database::Create() {
  std::lock_guard<std::mutex> lock(mu_);
  tables_.clear();
  checkpoint_lsn_ = 0;
  next_txn_id_ = 1;
  GINJA_RETURN_IF_ERROR(WriteCatalogLocked());
  GINJA_RETURN_IF_ERROR(WriteControlLocked(0));
  // The forced-flush callback runs while the commit path already holds mu_.
  wal_ = std::make_unique<WalWriter>(vfs_, layout_, /*start_lsn=*/0,
                                     [this] { (void)CheckpointLocked(); });
  wal_->SetCheckpointLsn(0);
  return Status::Ok();
}

Result<ControlBlock> Database::ReadControl() {
  ControlBlock best;
  bool found = false;
  for (int slot = 0; slot < layout_.ControlSlotCount(); ++slot) {
    auto bytes = vfs_->Read(layout_.ControlFileName(),
                            layout_.ControlOffset(slot),
                            ControlBlock::kEncodedSize);
    if (!bytes.ok()) {
      if (bytes.status().code() == ErrorCode::kNotFound) continue;
      return bytes.status();
    }
    ControlBlock block;
    if (!ControlBlock::Decode(bytes->data(), bytes->size(), &block)) continue;
    if (!found || block.counter > best.counter) {
      best = block;
      found = true;
    }
  }
  if (!found) return Status::Corruption("no valid control block");
  return best;
}

Status Database::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  tables_.clear();

  auto catalog_bytes = vfs_->ReadAll(layout_.CatalogFileName());
  if (!catalog_bytes.ok()) return catalog_bytes.status();
  auto catalog = DecodeCatalog(View(*catalog_bytes));
  if (!catalog.ok()) return catalog.status();

  auto control = ReadControl();
  if (!control.ok()) return control.status();
  checkpoint_lsn_ = control->checkpoint_lsn;
  control_counter_ = control->counter;

  for (const auto& [name, buckets] : *catalog) {
    Table table(name, buckets, layout_.data_page_size);
    // A table never checkpointed has no file yet; any other read failure
    // must fail the open rather than load the table empty. The table loads
    // straight from the file's bytes, without a copy where the Vfs allows.
    Status loaded = vfs_->ReadAllView(
        layout_.TableFileName(name),
        [&table](ByteView file) { return table.LoadFile(file); });
    if (!loaded.ok() && loaded.code() != ErrorCode::kNotFound) return loaded;
    tables_.emplace(name, std::move(table));
  }

  // Redo: replay committed transactions past the checkpoint. Logical,
  // ordered, idempotent row operations need no per-page LSN gate.
  WalReader reader(vfs_, layout_);
  auto end = reader.Replay(checkpoint_lsn_, [this](WalRecord& r) {
    auto it = tables_.find(r.table);
    if (it == tables_.end()) return;  // table dropped/unknown: skip
    if (r.type == WalRecordType::kPut) {
      it->second.Put(r.key, std::move(r.value), r.lsn);
    } else {
      it->second.Delete(r.key, r.lsn);
    }
  });
  if (!end.ok()) return end.status();

  wal_ = std::make_unique<WalWriter>(vfs_, layout_, *end,
                                     [this] { (void)CheckpointLocked(); });
  wal_->SetCheckpointLsn(checkpoint_lsn_);
  next_txn_id_ = *end + 1;  // strictly larger than any replayed txn id
  wal_bytes_since_checkpoint_ = *end - checkpoint_lsn_;
  return Status::Ok();
}

Status Database::CreateTable(const std::string& name, std::uint32_t buckets) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) > 0) return Status::AlreadyExists(name);
  tables_.emplace(name, Table(name, buckets == 0 ? options_.default_buckets : buckets,
                              layout_.data_page_size));
  return WriteCatalogLocked();
}

bool Database::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0;
}

Database::Transaction Database::Begin() {
  Transaction txn;
  txn.active_ = true;
  return txn;
}

Status Database::Put(Transaction& txn, const std::string& table,
                     const std::string& key, Bytes value) {
  if (!txn.active_) return Status::InvalidArgument("transaction not active");
  // A row must fit one data page (bucket pages are the I/O unit); 16 bytes
  // of page header plus varint row framing. Real engines TOAST/overflow
  // such rows; this one rejects them up front.
  if (key.size() + value.size() + 36 > layout_.data_page_size) {
    return Status::InvalidArgument("row larger than a data page");
  }
  WalRecord r;
  r.type = WalRecordType::kPut;
  r.table = table;
  r.key = key;
  r.value = std::move(value);
  txn.ops_.push_back(std::move(r));
  return Status::Ok();
}

Status Database::Delete(Transaction& txn, const std::string& table,
                        const std::string& key) {
  if (!txn.active_) return Status::InvalidArgument("transaction not active");
  WalRecord r;
  r.type = WalRecordType::kDelete;
  r.table = table;
  r.key = key;
  txn.ops_.push_back(std::move(r));
  return Status::Ok();
}

Status Database::Commit(Transaction& txn) {
  if (!txn.active_) return Status::InvalidArgument("transaction not active");
  txn.active_ = false;
  if (txn.ops_.empty()) return Status::Ok();  // read-only

  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t txn_id = next_txn_id_++;
  const Lsn lsn_base = wal_ ? wal_->EndLsn() : 0;

  for (auto& op : txn.ops_) {
    op.txn_id = txn_id;
    auto it = tables_.find(op.table);
    if (it == tables_.end()) return Status::NotFound("table " + op.table);
    if (op.type == WalRecordType::kPut) {
      it->second.Put(op.key, op.value, lsn_base);
    } else {
      it->second.Delete(op.key, lsn_base);
    }
  }

  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn_id = txn_id;
  txn.ops_.push_back(std::move(commit));

  auto end = wal_->AppendAndSync(txn.ops_);
  if (!end.ok()) return end.status();
  wal_bytes_since_checkpoint_ = *end - checkpoint_lsn_;
  committed_txns_.Add();

  if (options_.auto_checkpoint_wal_bytes > 0 &&
      wal_bytes_since_checkpoint_ >= options_.auto_checkpoint_wal_bytes) {
    return layout_.flavor == DbFlavor::kMySql ? FuzzyFlushLocked()
                                              : CheckpointLocked();
  }
  return Status::Ok();
}

std::optional<Bytes> Database::Get(const std::string& table,
                                   const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return std::nullopt;
  return it->second.Get(key);
}

Status Database::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

Status Database::FuzzyFlush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FuzzyFlushLocked();
}

Status Database::WriteClogLocked() {
  // PostgreSQL's commit-status log: its sync write is the paper's
  // checkpoint-begin event (Table 1). Content is a status page whose exact
  // bytes are irrelevant to recovery in this engine.
  Bytes page;
  PutU64(page, control_counter_);
  page.resize(layout_.data_page_size, 0);
  return vfs_->Write("pg_clog/0000", 0, View(page), /*sync=*/true);
}

Status Database::CheckpointLocked() {
  if (in_commit_path_checkpoint_) return Status::Ok();  // re-entrant guard
  in_commit_path_checkpoint_ = true;
  auto finally = [&](Status st) {
    in_commit_path_checkpoint_ = false;
    return st;
  };

  if (layout_.flavor == DbFlavor::kPostgres) {
    Status st = WriteClogLocked();
    if (!st.ok()) return finally(st);
  }

  // Redo point: everything applied so far is about to be flushed. All
  // applied records have lsn_base <= this value.
  const Lsn redo_lsn = wal_ ? wal_bytes_since_checkpoint_ + checkpoint_lsn_ : 0;

  // MySQL's fuzzy flushes use sync data writes (checkpoint-begin per
  // Table 1); PostgreSQL writes data pages without sync, the clog sync
  // write above being its begin marker.
  const bool sync_data = layout_.flavor == DbFlavor::kMySql;
  for (auto& [name, table] : tables_) {
    const std::string file = layout_.TableFileName(name);
    for (const auto& dirty : table.DirtyPages()) {
      const Bytes page = table.SerializeBucket(dirty.bucket, redo_lsn);
      Status st = vfs_->Write(file, table.PageOffset(dirty.bucket), View(page),
                              sync_data);
      if (!st.ok()) return finally(st);
      table.MarkClean(dirty.bucket);
    }
  }

  Status st = WriteCatalogLocked();
  if (!st.ok()) return finally(st);
  st = WriteControlLocked(redo_lsn);
  if (!st.ok()) return finally(st);

  checkpoint_lsn_ = redo_lsn;
  wal_bytes_since_checkpoint_ = 0;
  if (wal_) {
    wal_->SetCheckpointLsn(redo_lsn);
    wal_->RemoveSegmentsBelow(redo_lsn);
  }
  return finally(Status::Ok());
}

Status Database::FuzzyFlushLocked() {
  // Collect dirty pages across tables, oldest-first (InnoDB flush list),
  // and flush at most one batch.
  struct Entry {
    Table* table;
    std::uint32_t bucket;
    Lsn first_dirty;
  };
  std::vector<Entry> entries;
  for (auto& [name, table] : tables_) {
    for (const auto& d : table.DirtyPages()) {
      entries.push_back({&table, d.bucket, d.first_dirty_lsn});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.first_dirty < b.first_dirty; });
  if (entries.size() > options_.fuzzy_batch_pages) {
    entries.resize(options_.fuzzy_batch_pages);
  }

  const Lsn wal_end = checkpoint_lsn_ + wal_bytes_since_checkpoint_;
  for (const auto& e : entries) {
    const Bytes page = e.table->SerializeBucket(e.bucket, wal_end);
    GINJA_RETURN_IF_ERROR(vfs_->Write(layout_.TableFileName(e.table->name()),
                                      e.table->PageOffset(e.bucket), View(page),
                                      /*sync=*/true));
    e.table->MarkClean(e.bucket);
  }

  // New checkpoint LSN = oldest change still not flushed (or WAL end when
  // everything is clean). Monotone by construction.
  Lsn new_checkpoint = wal_end;
  for (auto& [name, table] : tables_) {
    if (auto oldest = table.OldestDirtyLsn()) {
      new_checkpoint = std::min(new_checkpoint, *oldest);
    }
  }
  new_checkpoint = std::max(new_checkpoint, checkpoint_lsn_);

  GINJA_RETURN_IF_ERROR(WriteCatalogLocked());
  GINJA_RETURN_IF_ERROR(WriteControlLocked(new_checkpoint));
  checkpoint_lsn_ = new_checkpoint;
  wal_bytes_since_checkpoint_ = wal_end - new_checkpoint;
  if (wal_) wal_->SetCheckpointLsn(new_checkpoint);
  return Status::Ok();
}

Status Database::WriteControlLocked(Lsn checkpoint_lsn) {
  ControlBlock block;
  block.checkpoint_lsn = checkpoint_lsn;
  block.wal_end_hint = checkpoint_lsn + wal_bytes_since_checkpoint_;
  block.counter = ++control_counter_;
  std::uint8_t encoded[ControlBlock::kEncodedSize];
  block.EncodeTo(encoded);
  // MySQL alternates between the two InnoDB header slots; PostgreSQL
  // rewrites pg_control in place.
  const int slot = layout_.ControlSlotCount() == 1
                       ? 0
                       : static_cast<int>(control_counter_ % 2);
  return vfs_->Write(layout_.ControlFileName(), layout_.ControlOffset(slot),
                     ByteView(encoded, sizeof encoded), /*sync=*/true);
}

Status Database::WriteCatalogLocked() {
  const Bytes encoded = EncodeCatalog(tables_);
  return vfs_->Write(layout_.CatalogFileName(), 0, View(encoded), /*sync=*/true);
}

Lsn Database::WalEndLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_ ? wal_->EndLsn() : 0;
}

Lsn Database::CheckpointLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_lsn_;
}

std::uint64_t Database::ApproxDataBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [name, table] : tables_) total += table.ApproxDataBytes();
  return total;
}

std::vector<std::string> Database::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

std::uint64_t Database::RowCount(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second.row_count();
}

}  // namespace ginja
