#include "db/database.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <thread>
#include <utility>

#include "common/codec/codec_pool.h"
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

// Redo on K threads (DESIGN.md, "Recovery data path", item 7). The threads
// load the tables, largest file first, while one of them parses the WAL
// and hands each table its committed records; a table's records are
// applied in LSN order, by one thread at a time, once it has loaded.
// Tables share nothing, so per-table order is all redo needs: every table
// ends with the same rows, buckets and first-dirty LSNs for any K.
class ParallelRedo {
 public:
  // `tables` (each with its file) in catalog order.
  ParallelRedo(Vfs& vfs, std::vector<std::pair<Table*, std::string>> tables)
      : vfs_(vfs), slots_(tables.size()) {
    std::vector<std::uint64_t> sizes;
    for (std::size_t i = 0; i < tables.size(); ++i) {
      slots_[i].table = tables[i].first;
      slots_[i].file = std::move(tables[i].second);
      auto size = vfs_.FileSize(slots_[i].file);
      sizes.push_back(size.ok() ? *size : 0);
      load_order_.push_back(i);
    }
    std::stable_sort(load_order_.begin(), load_order_.end(),
                     [&](std::size_t a, std::size_t b) { return sizes[a] > sizes[b]; });
  }

  // The parsing thread: queues a committed record of table `t`. Records go
  // out in batches, and the parser helps with the other work while too many
  // bytes of them are handed out and not yet applied.
  void Add(std::size_t t, WalRecord& record) {
    Slot& slot = slots_[t];
    slot.staged_bytes += sizeof(WalRecord) + record.key.size() + record.value.size();
    slot.staged.push_back(std::move(record));
    if (++staged_ < kBatchRecords) return;
    std::unique_lock<std::mutex> lock(mu_);
    HandOverLocked();
    while (outstanding_bytes_ > kMaxOutstandingBytes) {
      if (!RunOneLocked(lock)) cv_.wait(lock);
    }
  }

  // The parsing thread, once the log ends.
  void ParseDone() {
    std::lock_guard<std::mutex> lock(mu_);
    HandOverLocked();
    parsed_ = true;
  }

  // Every thread: loads and applies until nothing is left to start.
  void Work() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (RunOneLocked(lock)) continue;
      // Nothing to start: what is still busy, the thread running it ends.
      if (parsed_ && next_load_ == slots_.size()) break;
      cv_.wait(lock);
    }
  }

  // After every Work() returned: the first failed load in catalog order.
  Status LoadStatus() const {
    for (const Slot& slot : slots_) {
      if (!slot.load_status.ok()) return slot.load_status;
    }
    return Status::Ok();
  }

 private:
  // Records go out in batches of kBatchRecords; the parser stops to help
  // while more than kMaxOutstandingBytes of them wait, which bounds what a
  // table that loads slowly can hold back.
  static constexpr std::size_t kBatchRecords = 1024;
  static constexpr std::size_t kMaxOutstandingBytes = 64 << 20;

  struct Slot {
    Table* table = nullptr;
    std::string file;
    Status load_status;
    bool loaded = false;
    bool busy = false;  // a thread is loading it or applying to it
    std::vector<WalRecord> pending;  // handed out, not yet applied
    std::size_t pending_bytes = 0;
    std::vector<WalRecord> staged;   // parser only
    std::size_t staged_bytes = 0;    // parser only
  };

  void HandOverLocked() {
    for (Slot& slot : slots_) {
      if (slot.staged.empty()) continue;
      if (slot.pending.empty()) {
        slot.pending.swap(slot.staged);
      } else {
        slot.pending.insert(slot.pending.end(),
                            std::make_move_iterator(slot.staged.begin()),
                            std::make_move_iterator(slot.staged.end()));
        slot.staged.clear();
      }
      slot.pending_bytes += slot.staged_bytes;
      outstanding_bytes_ += slot.staged_bytes;
      slot.staged_bytes = 0;
    }
    staged_ = 0;
    cv_.notify_all();
  }

  // Runs one load (largest file first) or one table's pending records,
  // without the lock. False when neither can start now.
  bool RunOneLocked(std::unique_lock<std::mutex>& lock) {
    if (next_load_ < slots_.size()) {
      Slot& slot = slots_[load_order_[next_load_++]];
      slot.busy = true;
      lock.unlock();
      // A table never checkpointed has no file yet; any other read failure
      // must fail the open rather than load the table empty. The table
      // loads straight from the file's bytes, without a copy where the Vfs
      // allows.
      Status loaded = vfs_.ReadAllView(slot.file, [&slot](ByteView file) {
        return slot.table->LoadFile(file);
      });
      if (loaded.code() == ErrorCode::kNotFound) loaded = Status::Ok();
      lock.lock();
      slot.load_status = std::move(loaded);
      slot.loaded = true;
      slot.busy = false;
      cv_.notify_all();
      return true;
    }
    auto ready = std::find_if(slots_.begin(), slots_.end(), [](const Slot& s) {
      return s.loaded && !s.busy && !s.pending.empty();
    });
    if (ready == slots_.end()) return false;
    Slot& slot = *ready;
    slot.busy = true;
    std::vector<WalRecord> batch;
    batch.swap(slot.pending);
    const std::size_t bytes = std::exchange(slot.pending_bytes, 0);
    lock.unlock();
    // A table that failed to load fails the open; its records are dropped.
    if (slot.load_status.ok()) {
      for (WalRecord& r : batch) {
        if (r.type == WalRecordType::kPut) {
          slot.table->Put(r.key, std::move(r.value), r.lsn);
        } else {
          slot.table->Delete(r.key, r.lsn);
        }
      }
    }
    batch = {};  // frees the records outside the lock
    lock.lock();
    outstanding_bytes_ -= bytes;
    slot.busy = false;
    cv_.notify_all();
    return true;
  }

  Vfs& vfs_;
  std::vector<Slot> slots_;              // catalog order
  std::vector<std::size_t> load_order_;  // largest file first
  std::size_t staged_ = 0;               // parser only

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t next_load_ = 0;
  std::size_t outstanding_bytes_ = 0;  // handed out, not yet applied
  bool parsed_ = false;
};

}  // namespace

Database::Database(VfsPtr vfs, DbLayout layout, DbOptions options,
                   int redo_threads)
    : vfs_(std::move(vfs)),
      layout_(layout),
      options_(options),
      redo_threads_(redo_threads > 0
                        ? redo_threads
                        : static_cast<int>(std::thread::hardware_concurrency())) {
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

  std::vector<std::pair<Table*, std::string>> tables;
  std::map<std::string_view, std::size_t> index;  // name -> position in `tables`
  for (const auto& [name, buckets] : *catalog) {
    auto [it, inserted] =
        tables_.emplace(name, Table(name, buckets, layout_.data_page_size));
    if (!inserted) continue;
    index.emplace(it->first, tables.size());
    tables.emplace_back(&it->second, layout_.TableFileName(name));
  }

  // Redo: replay committed transactions past the checkpoint. Logical,
  // ordered, idempotent row operations need no per-page LSN gate.
  ParallelRedo redo(*vfs_, std::move(tables));
  const int threads = std::clamp<int>(redo_threads_, 1,
                                      std::max<int>(1, index.size()));
  Result<Lsn> end = checkpoint_lsn_;
  CodecPool pool(threads);
  pool.ParallelFor(static_cast<std::size_t>(threads), [&](std::size_t i) {
    if (i == 0) {  // one thread parses the log first; all load and apply
      WalReader reader(vfs_, layout_);
      end = reader.Replay(checkpoint_lsn_, [&](WalRecord& r) {
        auto it = index.find(r.table);
        if (it == index.end()) return;  // table dropped/unknown: skip
        redo.Add(it->second, r);
      });
      redo.ParseDone();
    }
    redo.Work();
  });
  GINJA_RETURN_IF_ERROR(redo.LoadStatus());
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

std::vector<Table::DirtyPage> Database::DirtyPages(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? std::vector<Table::DirtyPage>{} : it->second.DirtyPages();
}

std::uint64_t Database::RowCount(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second.row_count();
}

}  // namespace ginja
