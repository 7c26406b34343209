#include "ginja/ginja.h"

#include <algorithm>

#include "common/codec/crc32.h"
#include "ginja/fleet_runtime.h"
#include "ginja/payload.h"
#include "ginja/standby.h"
#include "obs/log.h"

namespace ginja {

namespace {

// Exclusive end of the WAL stream a PostgreSQL segment holds: the max over
// its valid pages of page × payload + used — the rule
// DbIoProcessor::OnWalWrite applies to each intercepted page write. Pages
// that fail their checksum (never written, or torn) cover nothing.
Lsn WalSegmentEndLsn(const DbLayout& layout, ByteView segment) {
  const std::size_t page_size = layout.wal_page_size;
  Lsn end = 0;
  for (std::size_t off = 0; page_size <= segment.size() - off;
       off += page_size) {
    const std::uint8_t* page = segment.data() + off;
    if (Crc32(ByteView(page + 4, page_size - 4)) != GetU32(page)) continue;
    const std::uint16_t used = GetU16(page + 4);
    if (used > layout.WalPayloadSize()) continue;
    const std::uint64_t logical_page = GetU64(page + 6);
    end = std::max<Lsn>(end, logical_page * layout.WalPayloadSize() + used);
  }
  return end;
}

}  // namespace

Ginja::Ginja(VfsPtr local_vfs, ObjectStorePtr store,
             std::shared_ptr<Clock> clock, DbLayout layout, GinjaConfig config)
    : local_vfs_(std::move(local_vfs)),
      store_(std::move(store)),
      clock_(std::move(clock)),
      layout_(layout),
      config_(config),
      view_(std::make_shared<CloudView>()),
      retention_(std::make_shared<RetentionPolicy>()),
      chunk_index_(std::make_shared<ChunkIndex>()),
      envelope_(std::make_shared<Envelope>(config.envelope)) {
  // Every Ginja carries an observability bundle: metrics gauges and stage
  // histograms are always reachable via observability(), with the tracer
  // enabled only when the caller's TraceOptions say so. A fleet member
  // defaults to the runtime's shared bundle (one registry for the fleet,
  // per-tenant series split by the tenant label).
  if (!config_.obs) {
    config_.obs = config_.runtime ? config_.runtime->obs()
                                  : std::make_shared<Observability>(config_.trace);
  }
  // Standalone is a one-tenant fleet: a private runtime whose uploader
  // pool, transfer manager and codec pool serve both pipelines.
  if (!config_.runtime) {
    config_.runtime = MakeStandaloneRuntime(store_, clock_, config_);
  }
  envelope_->SetCodecPool(config_.runtime->codec_pool());
  commits_ = std::make_unique<CommitPipeline>(store_, view_, clock_, config_,
                                              envelope_);
  checkpoints_ = std::make_unique<CheckpointPipeline>(
      store_, view_, clock_, config_, envelope_, local_vfs_, layout_);
  checkpoints_->SetRetentionPolicy(retention_);
  checkpoints_->SetChunkIndex(chunk_index_);
  checkpoints_->SetWalFrontierFn(
      [this] { return commits_->UploadedWalFrontier(); });
  // Frontier advances wake the checkpointer's WAL-coverage wait directly
  // instead of the old 1 ms poll.
  commits_->SetFrontierListener([this] { checkpoints_->NotifyFrontier(); });
  processor_ = std::make_unique<DbIoProcessor>(layout_, commits_.get(),
                                               checkpoints_.get());
  MetricLabels labels;
  if (!config_.tenant_id.empty()) labels = {{"tenant", config_.tenant_id}};
  config_.obs->registry.RegisterGauge(
      this, "ginja_unclassified_events", std::move(labels),
      [this] { return static_cast<double>(processor_->unclassified_events()); });
}

Ginja::~Ginja() {
  config_.obs->registry.Unregister(this);
  if (started_ && !stopped_) Kill();
}

Status Ginja::Boot() {
  // A config whose zero knobs would hang the pipelines is rejected here,
  // before any pipeline thread starts.
  GINJA_RETURN_IF_ERROR(ValidateGinjaConfig(config_));
  // One WAL object per local WAL segment, in segment order (Alg. 1 l. 9–13).
  auto files = local_vfs_->ListFiles("");
  if (!files.ok()) return files.status();

  // Read the control block (if any) for a conservative max-LSN bound on the
  // circular-log segments, whose internal LSN ranges Boot cannot cheaply
  // order. PostgreSQL segments get precise per-segment bounds.
  Lsn wal_end_hint = 0;
  for (int slot = 0; slot < layout_.ControlSlotCount(); ++slot) {
    auto bytes = local_vfs_->Read(layout_.ControlFileName(),
                                  layout_.ControlOffset(slot),
                                  ControlBlock::kEncodedSize);
    if (!bytes.ok()) continue;
    ControlBlock block;
    if (ControlBlock::Decode(bytes->data(), bytes->size(), &block)) {
      wal_end_hint = std::max(wal_end_hint, block.wal_end_hint);
    }
  }

  std::vector<std::string> wal_files;
  for (const auto& path : *files) {
    if (layout_.Classify(path, layout_.wal_header_pages * layout_.wal_page_size) ==
        FileKind::kWalSegment) {
      wal_files.push_back(path);
    }
  }
  std::sort(wal_files.begin(), wal_files.end());

  for (const auto& path : wal_files) {
    auto content = local_vfs_->ReadAll(path);
    if (!content.ok()) return content.status();

    WalObjectId id;
    id.ts = view_->NextWalTs();
    id.filename = path;
    id.offset = 0;
    id.max_lsn = wal_end_hint;
    if (layout_.flavor == DbFlavor::kPostgres) {
      // Precise bound from the segment's own pages. The segment's capacity
      // would overstate a segment still being filled: GC would then keep
      // this object while deleting the covered WAL objects after it, and
      // recovery would stop at the false ts gap that leaves.
      id.max_lsn = WalSegmentEndLsn(layout_, View(*content));
    }

    std::vector<FileEntry> entries;
    entries.push_back({path, 0, std::move(*content)});
    const Bytes payload = EncodeEntries(entries);
    const Bytes enveloped = envelope_->Encode(View(payload), id.ts);
    GINJA_RETURN_IF_ERROR(store_->Put(id.Encode(), View(enveloped)));
    view_->AddWal(id);
  }

  // One dump DB object (Alg. 1 lines 14–18) — split at the size limit.
  checkpoints_->OnCheckpointBegin();
  checkpoints_->OnCheckpointEnd(/*redo_lsn=*/0);
  checkpoints_->Start();
  checkpoints_->Drain();  // the dump is durable before the DBMS may start
  commits_->Start();
  started_ = true;
  return Status::Ok();
}

Status Ginja::Reboot() {
  GINJA_RETURN_IF_ERROR(ValidateGinjaConfig(config_));
  auto objects = store_->List("");
  if (!objects.ok()) return objects.status();
  view_->Clear();
  for (const auto& meta : *objects) view_->AddFromName(meta.name);
  // Delta dumps: the chunk inventory (presence from CHUNK/ names,
  // references from the visible manifests) is rebuilt whatever
  // dedup_dumps says — GC must still collect an earlier run's chunks —
  // and before the first dump decides what to skip, or all re-uploads.
  GINJA_RETURN_IF_ERROR(
      RebuildChunkIndex(*store_, *envelope_, *objects, chunk_index_.get()));
  checkpoints_->Start();
  commits_->Start();
  started_ = true;
  return Status::Ok();
}

void Ginja::OnFileEvent(const FileEvent& event) {
  if (!started_ || stopped_) return;
  processor_->OnFileEvent(event);
}

void Ginja::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  commits_->Stop();
  checkpoints_->Stop();
}

void Ginja::Kill() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  commits_->Kill();
  checkpoints_->Kill();
}

void Ginja::Drain() {
  commits_->Drain();
  checkpoints_->Drain();
}

std::optional<std::uint64_t> Ginja::ProtectCurrentState() {
  Drain();  // the point must be fully durable in the cloud
  const auto ts = view_->LastAssignedWalTs();
  if (ts) retention_->Protect(*ts);
  return ts;
}

Status Ginja::Recover(ObjectStorePtr store, const GinjaConfig& config,
                      const DbLayout& layout, VfsPtr target,
                      RecoveryReport* report,
                      std::optional<std::uint64_t> up_to_ts,
                      std::shared_ptr<Clock> clock) {
  (void)layout;
  RecoveryReport local_report;
  RecoveryReport& r = report ? *report : local_report;
  const std::uint64_t started_at = clock ? clock->NowMicros() : 0;

  // Recovery is one full pass of a standby opened at `up_to_ts`: the same
  // LIST → plan → windowed apply that bootstraps and resyncs a warm
  // replica, into the caller's target, with no tail thread (tail_apply.h
  // explains why the plan is computable before the first GET). Its
  // transfer series carry component="recovery".
  StandbyOptions options;
  options.open_at_ts = up_to_ts;
  options.component = "recovery";
  StandbyReplica reader(std::move(store), config, clock, std::move(options));
  GINJA_RETURN_IF_ERROR(reader.RecoverInto(std::move(target), &r));

  if (clock) r.duration_micros = clock->NowMicros() - started_at;
  if (r.gap_detected) {
    // Recovery still succeeded, but the tail past the gap is lost — that's
    // the bounded S-write loss made concrete, so it gets a record.
    Log(LogLevel::kWarn, "recovery", "WAL tail truncated at a ts gap",
        {{"recovered_to_ts", r.recovered_to_ts},
         {"wal_objects_applied", r.wal_objects_applied}});
  }
  Log(LogLevel::kInfo, "recovery", "recovery complete",
      {{"objects", r.objects_downloaded},
       {"bytes", r.bytes_downloaded},
       {"wal_applied", r.wal_objects_applied},
       {"db_applied", r.db_objects_applied},
       {"duration_us", r.duration_micros}});
  return Status::Ok();
}

}  // namespace ginja
