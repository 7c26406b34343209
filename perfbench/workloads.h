// The measured stack and the pieces every workload is built from: TPC-C
// terminals with durability tracking, a background checkpointer, and a
// timed cold recovery with its correctness check.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "cloud/latency_model.h"
#include "cloud/memory_store.h"
#include "cloud/metered_store.h"
#include "common/rng.h"
#include "db/database.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"
#include "ginja/ginja.h"
#include "probes.h"
#include "workload/tpcc.h"

namespace perfbench {

// Ginja at its shipped defaults, with the paper's production envelope.
ginja::GinjaConfig BenchConfig();

struct StackOptions {
  ginja::GinjaConfig config = BenchConfig();
  ginja::LatencyParams latency = ginja::LatencyParams::Instant();
  std::uint64_t latency_seed = 42;
  int warehouses = 1;
  int tpcc_scale = 100;
  std::uint64_t tpcc_seed = 2017;
  // false: Ginja talks to MeteredStore and InterceptFs straight, with no
  // bench probe in between (the self-test's reference run).
  bool probes = true;
  // Wraps the bucket before MeteredStore sees it (self-test hook).
  std::function<ginja::ObjectStorePtr(ginja::ObjectStorePtr)> wrap_bucket;
};

// MemFs → InterceptFs (no hop cost) → Database (PostgreSQL personality)
// → [TimedListener] → Ginja → [TimingStore] → MeteredStore → MemoryStore,
// all on RealClock. Members are declared so Ginja is destroyed first.
struct Stack {
  std::shared_ptr<ginja::RealClock> clock;
  std::shared_ptr<ginja::MemFs> local;
  std::shared_ptr<ginja::InterceptFs> intercept;
  std::shared_ptr<ginja::MemoryStore> bucket;
  std::shared_ptr<ginja::MeteredStore> metered;
  std::shared_ptr<TimingStore> store;  // null without probes
  std::unique_ptr<ginja::Database> db;
  std::unique_ptr<ginja::TpccWorkload> tpcc;
  std::unique_ptr<TimedListener> listener;  // null without probes
  std::unique_ptr<ginja::Ginja> ginja;

  ~Stack();
  // Cloud-confirmed WAL writes: passed to Ginja minus still pending.
  std::uint64_t ConfirmedWal() const;
  // checkpoints + dumps whose upload finished.
  std::uint64_t CheckpointsUploaded() const;
  std::map<std::string, std::uint64_t> RowCounts() const;
};

ginja::Result<std::unique_ptr<Stack>> BuildStack(const StackOptions& options,
                                                 Tracer& tracer);

// Per-transaction measurements of a run (all in microseconds).
struct TxnStats {
  Samples txn_us;      // due time to commit return
  Samples durable_us;  // due time to the cloud confirming its last WAL write
  Samples db_self_us;  // transaction time outside Ginja::OnFileEvent
  Samples late_us;     // open loop: how late the generator started it
  std::uint64_t attempted = 0;  // measured or not
  std::uint64_t completed = 0;  // measured: committed, or the spec's rollback
  std::uint64_t failed = 0;     // any other error
  std::string first_error;

  void Append(const TxnStats& other);
};

// One TPC-C client. Durability of a finished transaction is recorded when
// Stack::ConfirmedWal() reaches the index of its last WAL write; callers
// poll while they would otherwise wait.
class Terminal {
 public:
  Terminal(Stack& stack, Tracer& tracer, std::uint64_t seed);

  // Runs one transaction that was due at `due_ns` (its start, closed loop).
  // An unmeasured one only counts toward attempted and failed.
  void RunOne(std::uint64_t due_ns, std::uint64_t txn_id, bool measured);
  void PollDurable();
  bool DurablePending() const { return !waiting_.empty(); }
  // Polls until every finished transaction is durable or `timeout_ns`.
  void DrainDurable(std::uint64_t timeout_ns);

  TxnStats stats;

 private:
  struct Waiting {
    std::uint64_t wal_index;
    std::uint64_t due_ns;
  };
  Stack& stack_;
  Tracer& tracer_;
  ginja::SplitMix64 rng_;
  std::deque<Waiting> waiting_;
};

// Runs Database::Checkpoint on its own thread whenever the committed
// transaction count crosses a multiple of `every` (never when 0).
class Checkpointer {
 public:
  Checkpointer(ginja::Database& db, Tracer& tracer, std::uint64_t every);
  ~Checkpointer();
  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  void OnCompleted(std::uint64_t total_completed);
  void Stop();  // finishes a running checkpoint, then joins

  Samples checkpoint_ms;
  ginja::Status status = ginja::Status::Ok();

 private:
  void Loop();

  ginja::Database& db_;
  Tracer& tracer_;
  std::uint64_t every_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t requested_ = 0;
  std::uint64_t done_ = 0;
  bool stop_ = false;
  std::thread thread_;  // last: started after the fields it reads
};

// Cold recovery into an empty MemFs through a fresh latency-modelled view
// of `bucket`, then Database::Open (redo).
struct RecoveryRun {
  ginja::Status status = ginja::Status::Ok();
  double ginja_s = 0;
  double redo_s = 0;
  ginja::RecoveryReport report;
  std::map<std::string, std::uint64_t> row_counts;
  TimingStore::StatsTable cloud;
};

RecoveryRun RecoverOnce(const std::shared_ptr<ginja::MemoryStore>& bucket,
                        const ginja::LatencyParams& latency,
                        std::uint64_t latency_seed, Tracer& tracer);

// SHA-1 over every (name, bytes) of the bucket in name order, as hex.
std::string BucketDigest(ginja::MemoryStore& bucket);

}  // namespace perfbench
