#include "workloads.h"

#include "common/codec/sha1.h"

namespace perfbench {

using namespace ginja;

GinjaConfig BenchConfig() {
  GinjaConfig config;
  config.envelope.compress = true;
  config.envelope.encrypt = true;
  return config;
}

Stack::~Stack() {
  if (intercept) intercept->SetListener(nullptr);
  if (ginja) ginja->Kill();
}

std::uint64_t Stack::ConfirmedWal() const {
  // Read passed first: both counts only grow, so a later PendingWrites()
  // can only make the difference smaller, never claim an unconfirmed write.
  const std::uint64_t passed = listener->wal_passed();
  const std::uint64_t pending = ginja->PendingWrites();
  return passed > pending ? passed - pending : 0;
}

std::uint64_t Stack::CheckpointsUploaded() const {
  const auto& s = ginja->checkpoint_stats();
  return s.checkpoints_uploaded.Get() + s.dumps_uploaded.Get();
}

std::map<std::string, std::uint64_t> Stack::RowCounts() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& table : db->TableNames()) out[table] = db->RowCount(table);
  return out;
}

Result<std::unique_ptr<Stack>> BuildStack(const StackOptions& options,
                                          Tracer& tracer) {
  auto stack = std::make_unique<Stack>();
  stack->clock = std::make_shared<RealClock>();
  stack->local = std::make_shared<MemFs>();
  stack->intercept = std::make_shared<InterceptFs>(stack->local, stack->clock);
  const DbLayout layout = DbLayout::Postgres();
  stack->db = std::make_unique<Database>(stack->intercept, layout);
  GINJA_RETURN_IF_ERROR(stack->db->Create());

  TpccConfig tpcc;
  tpcc.warehouses = options.warehouses;
  tpcc.scale = options.tpcc_scale;
  tpcc.seed = options.tpcc_seed;
  stack->tpcc = std::make_unique<TpccWorkload>(stack->db.get(), tpcc);
  GINJA_RETURN_IF_ERROR(stack->tpcc->Populate());
  GINJA_RETURN_IF_ERROR(stack->db->Checkpoint());

  stack->bucket = std::make_shared<MemoryStore>();
  ObjectStorePtr below =
      options.wrap_bucket ? options.wrap_bucket(stack->bucket) : stack->bucket;
  stack->metered = std::make_shared<MeteredStore>(
      below, stack->clock,
      std::make_shared<LatencyModel>(options.latency, stack->clock,
                                     options.latency_seed));
  ObjectStorePtr ginja_store = stack->metered;
  if (options.probes) {
    stack->store = std::make_shared<TimingStore>(stack->metered, &tracer);
    ginja_store = stack->store;
  }
  stack->ginja = std::make_unique<Ginja>(stack->local, ginja_store,
                                         stack->clock, layout, options.config);
  GINJA_RETURN_IF_ERROR(stack->ginja->Boot());
  if (options.probes) {
    stack->listener =
        std::make_unique<TimedListener>(stack->ginja.get(), layout, &tracer);
    stack->intercept->SetListener(stack->listener.get());
  } else {
    stack->intercept->SetListener(stack->ginja.get());
  }
  return stack;
}

void TxnStats::Append(const TxnStats& other) {
  txn_us.Append(other.txn_us);
  durable_us.Append(other.durable_us);
  db_self_us.Append(other.db_self_us);
  late_us.Append(other.late_us);
  attempted += other.attempted;
  completed += other.completed;
  failed += other.failed;
  if (first_error.empty()) first_error = other.first_error;
}

Terminal::Terminal(Stack& stack, Tracer& tracer, std::uint64_t seed)
    : stack_(stack), tracer_(tracer), rng_(seed) {}

void Terminal::RunOne(std::uint64_t due_ns, std::uint64_t txn_id, bool measured) {
  const auto type = stack_.tpcc->PickType(rng_);
  const std::uint64_t fs_before = TimedListener::ThreadFsNs();
  const std::uint64_t wal_before = TimedListener::ThreadLastWal();
  const std::uint64_t start = NowNs();
  Status st;
  {
    SpanScope span(tracer_, "db.txn", txn_id);
    st = stack_.tpcc->Execute(type, rng_);
  }
  const std::uint64_t end = NowNs();
  ++stats.attempted;
  if (!st.ok() && st.code() != ErrorCode::kAborted) {
    ++stats.failed;
    if (stats.first_error.empty()) stats.first_error = st.ToString();
    return;
  }
  if (!measured) return;
  ++stats.completed;
  stats.txn_us.Add(static_cast<double>(end - due_ns) / 1e3);
  const std::uint64_t fs_ns = TimedListener::ThreadFsNs() - fs_before;
  stats.db_self_us.Add(static_cast<double>(end - start - fs_ns) / 1e3);
  const std::uint64_t last_wal = TimedListener::ThreadLastWal();
  if (last_wal != wal_before) waiting_.push_back({last_wal, due_ns});
}

void Terminal::PollDurable() {
  if (waiting_.empty()) return;
  const std::uint64_t confirmed = stack_.ConfirmedWal();
  const std::uint64_t now = NowNs();
  while (!waiting_.empty() && waiting_.front().wal_index <= confirmed) {
    stats.durable_us.Add(static_cast<double>(now - waiting_.front().due_ns) / 1e3);
    waiting_.pop_front();
  }
}

void Terminal::DrainDurable(std::uint64_t timeout_ns) {
  const std::uint64_t deadline = NowNs() + timeout_ns;
  PollDurable();
  while (!waiting_.empty() && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    PollDurable();
  }
}

Checkpointer::Checkpointer(Database& db, Tracer& tracer, std::uint64_t every)
    : db_(db), tracer_(tracer), every_(every), thread_([this] { Loop(); }) {}

Checkpointer::~Checkpointer() { Stop(); }

void Checkpointer::OnCompleted(std::uint64_t total_completed) {
  if (every_ == 0 || total_completed % every_ != 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++requested_;
  }
  cv_.notify_one();
}

void Checkpointer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

void Checkpointer::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || requested_ > done_; });
    if (stop_) return;
    done_ = requested_;  // requests that piled up collapse into one
    lock.unlock();
    const std::uint64_t start = NowNs();
    Status st;
    {
      SpanScope span(tracer_, "db.checkpoint");
      st = db_.Checkpoint();
    }
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    lock.lock();
    checkpoint_ms.Add(ms);
    if (!st.ok() && status.ok()) status = st;
  }
}

RecoveryRun RecoverOnce(const std::shared_ptr<MemoryStore>& bucket,
                        const LatencyParams& latency,
                        std::uint64_t latency_seed, Tracer& tracer) {
  RecoveryRun run;
  auto clock = std::make_shared<RealClock>();
  auto metered = std::make_shared<MeteredStore>(
      bucket, clock, std::make_shared<LatencyModel>(latency, clock, latency_seed));
  auto store = std::make_shared<TimingStore>(metered, &tracer);
  auto target = std::make_shared<MemFs>();
  const DbLayout layout = DbLayout::Postgres();
  SpanScope span(tracer, "recover");
  const std::uint64_t start = NowNs();
  {
    SpanScope ginja_span(tracer, "recover.ginja");
    run.status = Ginja::Recover(store, BenchConfig(), layout, target, &run.report,
                                std::nullopt, clock);
  }
  const std::uint64_t recovered = NowNs();
  run.ginja_s = static_cast<double>(recovered - start) / 1e9;
  run.cloud = store->Take();
  if (!run.status.ok()) return run;
  Database db(target, layout);
  {
    SpanScope redo_span(tracer, "recover.redo");
    run.status = db.Open();
  }
  run.redo_s = static_cast<double>(NowNs() - recovered) / 1e9;
  if (!run.status.ok()) return run;
  for (const auto& table : db.TableNames()) run.row_counts[table] = db.RowCount(table);
  return run;
}

std::string BucketDigest(MemoryStore& bucket) {
  Sha1 sha;
  auto objects = bucket.List("");
  if (!objects.ok()) return "unlisted";
  for (const auto& meta : *objects) {
    auto bytes = bucket.Get(meta.name);
    if (!bytes.ok()) return "unreadable";
    sha.Update(View(ToBytes(meta.name)));
    Bytes size;
    PutU64(size, bytes->size());
    sha.Update(View(size));
    sha.Update(View(*bytes));
  }
  const auto digest = sha.Finish();
  return ToHex(ByteView(digest.data(), digest.size()));
}

}  // namespace perfbench
