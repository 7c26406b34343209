#include "workload/driver.h"

#include <chrono>
#include <thread>
#include <vector>

namespace ginja {

TpccRunResult RunTpcc(TpccWorkload& workload, const TpccRunOptions& options) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total{0}, neworder{0}, aborted{0}, started{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> terminals;
  terminals.reserve(options.terminals);
  for (int t = 0; t < options.terminals; ++t) {
    terminals.emplace_back([&, t] {
      SplitMix64 rng(options.seed + static_cast<std::uint64_t>(t) * 7919);
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (options.max_txns > 0 &&
            started.fetch_add(1, std::memory_order_relaxed) >= options.max_txns) {
          break;
        }
        const auto type = workload.PickType(rng);
        Status st = workload.Execute(type, rng);
        if (st.ok()) {
          total.fetch_add(1, std::memory_order_relaxed);
          if (type == TpccWorkload::TxnType::kNewOrder) {
            neworder.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (st.code() == ErrorCode::kAborted) {
          aborted.fetch_add(1, std::memory_order_relaxed);
        }
        ++local;
        if (t == 0 && options.tick && options.tick_every_txns > 0 &&
            local % options.tick_every_txns == 0) {
          options.tick();
        }
      }
    });
  }

  if (options.max_txns == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(options.wall_seconds));
    stop.store(true);
  }
  for (auto& t : terminals) t.join();
  const auto end = std::chrono::steady_clock::now();

  TpccRunResult result;
  result.total_txns = total.load();
  result.neworder_txns = neworder.load();
  result.aborted_txns = aborted.load();
  result.wall_seconds = std::chrono::duration<double>(end - start).count();
  return result;
}

IngestResult RunWalIngest(CommitPipeline& pipeline,
                          const IngestOptions& options) {
  const int threads = options.threads < 1 ? 1 : options.threads;
  std::atomic<std::uint64_t> next_lsn{1};
  // Each client pre-materializes its writes before a start barrier: a real
  // DBMS hands Submit an already-built WAL buffer (the FS layer fills
  // WalWrite.data before the pipeline ever sees it), so payload
  // construction belongs outside the timed region.
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      SplitMix64 rng(options.seed + static_cast<std::uint64_t>(t) * 7919);
      const std::string file = "pg_xlog/ingest" + std::to_string(t);
      Bytes payload(options.write_bytes);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.Next());
      const std::uint64_t pages =
          options.pages_per_thread < 1 ? 1 : options.pages_per_thread;
      std::vector<WalWrite> writes(options.writes_per_thread);
      for (std::uint64_t i = 0; i < options.writes_per_thread; ++i) {
        writes[i].file = file;
        writes[i].offset = (i % pages) * 8192;
        writes[i].data = payload;
        writes[i].max_lsn = next_lsn.fetch_add(1, std::memory_order_relaxed);
      }
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (auto& write : writes) pipeline.Submit(std::move(write));
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& c : clients) c.join();
  const auto submitted = std::chrono::steady_clock::now();
  pipeline.Drain();
  const auto end = std::chrono::steady_clock::now();

  IngestResult result;
  result.writes = static_cast<std::uint64_t>(threads) *
                  options.writes_per_thread;
  result.submit_seconds =
      std::chrono::duration<double>(submitted - start).count();
  result.total_seconds = std::chrono::duration<double>(end - start).count();
  return result;
}

Status RunSimpleUpdates(Database& db, const std::string& table,
                        std::uint64_t count, std::size_t payload_bytes,
                        std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (std::uint64_t i = 0; i < count; ++i) {
    auto txn = db.Begin();
    Bytes value(payload_bytes);
    for (auto& b : value) b = static_cast<std::uint8_t>(rng.Next());
    GINJA_RETURN_IF_ERROR(
        db.Put(txn, table, "k" + std::to_string(rng.NextBelow(1000)),
               std::move(value)));
    GINJA_RETURN_IF_ERROR(db.Commit(txn));
  }
  return Status::Ok();
}

}  // namespace ginja
