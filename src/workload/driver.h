// Benchmark driver: runs TPC-C terminals against the engine and reports the
// paper's two metrics — Tpm-Total (all transactions per minute) and Tpm-C
// (NewOrder transactions per minute while the rest of the mix runs).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "ginja/commit_pipeline.h"
#include "workload/tpcc.h"

namespace ginja {

struct TpccRunResult {
  std::uint64_t total_txns = 0;
  std::uint64_t neworder_txns = 0;
  std::uint64_t aborted_txns = 0;
  double wall_seconds = 0;

  double TpmTotal() const {
    return wall_seconds <= 0 ? 0 : static_cast<double>(total_txns) / wall_seconds * 60.0;
  }
  double TpmC() const {
    return wall_seconds <= 0 ? 0 : static_cast<double>(neworder_txns) / wall_seconds * 60.0;
  }
};

struct TpccRunOptions {
  int terminals = 5;
  double wall_seconds = 2.0;
  std::uint64_t seed = 99;
  // Invoked periodically by terminal 0 (e.g. to trigger checkpoints when
  // the engine is configured for manual checkpointing). May be null.
  std::function<void()> tick;
  std::uint64_t tick_every_txns = 0;  // 0 = never
  // When set, the terminals stop once this many transactions were started
  // in all, and `wall_seconds` is ignored: a run of a fixed size, e.g. to
  // leave the same bucket behind on every run.
  std::uint64_t max_txns = 0;
};

TpccRunResult RunTpcc(TpccWorkload& workload, const TpccRunOptions& options);

// A simple update-only workload: `count` single-row update transactions of
// `payload_bytes` each against one table — the "W updates/minute" shape of
// the paper's cost analysis (§7.2).
Status RunSimpleUpdates(Database& db, const std::string& table,
                        std::uint64_t count, std::size_t payload_bytes,
                        std::uint64_t seed = 7);

// Multi-threaded WAL-ingestion driver: hammers CommitPipeline::Submit from
// `threads` concurrent clients, isolating the ingestion front end from the
// rest of the engine (no SQL, no interception). Each thread writes its own
// WAL segment, round-robining over `pages_per_thread` page offsets so the
// batch coalescing stays hot, with a globally increasing max_lsn.
struct IngestOptions {
  int threads = 1;
  std::uint64_t writes_per_thread = 100'000;
  std::size_t write_bytes = 256;
  std::uint64_t pages_per_thread = 8;
  std::uint64_t seed = 7;
};

struct IngestResult {
  std::uint64_t writes = 0;
  // Submit phase only: all client threads joined (every Submit returned).
  // This is the ingestion front end's throughput.
  double submit_seconds = 0;
  // Submit phase plus Drain(): includes the last batch close and uploads.
  double total_seconds = 0;

  double SubmittedWritesPerSec() const {
    return submit_seconds <= 0 ? 0
                               : static_cast<double>(writes) / submit_seconds;
  }
  double EndToEndWritesPerSec() const {
    return total_seconds <= 0 ? 0
                              : static_cast<double>(writes) / total_seconds;
  }
};

IngestResult RunWalIngest(CommitPipeline& pipeline,
                          const IngestOptions& options);

}  // namespace ginja
