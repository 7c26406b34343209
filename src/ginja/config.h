// Ginja configuration — the paper's control knobs (§5.1, §5.4, §6).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "cloud/transfer.h"
#include "common/codec/envelope.h"
#include "obs/obs.h"

namespace ginja {

class FleetRuntime;

struct GinjaConfig {
  // -- Batch / Safety model (§5.1) -------------------------------------------
  // B: maximum database updates (intercepted WAL writes) per cloud
  // synchronization. TB: a batch is also sent when this much model time has
  // passed since the last synchronization and updates are pending.
  //
  // TB is the one dial trading commit latency against PUT cost (§7): a
  // short TB ships small batches sooner but pays a PUT for each. Medians
  // over 5 seeds of perfbench tpcc_paced_colo (open-loop TPC-C at 1000
  // txn/s, colocated store; EXPERIMENTS.md "Batch close: TB vs adaptive"):
  //
  //   close rule                  durable_p50_ms  puts_per_ktxn  upload_amp
  //   TB = 1 s (default)          55.0            11.8           0.111
  //   TB = 2 ms                   9.66            453            0.307
  //   adaptive deadline <= 1 s    9.66            454            0.307
  //
  // A deadline steered by PUT round-trip and arrival rate lands on the
  // same point as a short TB, so TB stays the only close deadline.
  std::size_t batch = 100;
  std::uint64_t batch_timeout_us = 1'000'000;

  // S: maximum updates that may be unconfirmed by the cloud before the
  // DBMS is blocked — the maximum data loss in a disaster. TS: writes also
  // block when the oldest unconfirmed update is older than this.
  std::size_t safety = 1000;
  std::uint64_t safety_timeout_us = 10'000'000;

  // -- pipeline ----------------------------------------------------------------
  // Parallel Uploader threads; the paper's evaluation fixes 5 (§8).
  int uploader_threads = 5;
  // Objects are split at this size to optimise upload latency (§5.2 fn. 3).
  std::size_t max_object_bytes = 20 * 1024 * 1024;
  // Streaming commit path: WAL objects leave the machine part by part
  // while the batch is still filling (store-side streamed PUT), instead of
  // one buffered PUT at batch close. Encoding and upload overlap, so the
  // close-to-ack tail is roughly one finish round-trip instead of a full
  // object PUT. Off by default; the buffered path is byte-identical to
  // previous releases.
  bool streaming_commit = false;
  // Writes per streamed segment: the Submit that stages this many writes
  // seals and uploads a segment (a deadline or stop flushes a partial
  // segment). Smaller segments start the upload sooner
  // but cost more per-part requests.
  std::size_t stream_segment_writes = 16;
  // Early acks (streaming only): each uploaded segment is also PUT as a
  // small tail object (WALTAIL/..., replica 0), and its writes are
  // acknowledged as soon as the tail lands — before the enclosing WAL
  // object finishes. Tails are folded into the WAL object at stream close
  // and deleted. Consecutive-ack semantics are preserved: a segment acks
  // only when all earlier segments of the batch have acked.
  bool early_ack = false;
  // Retry policy (model time) for failed cloud operations: backoff from
  // retry_backoff_us, doubled per attempt up to retry_backoff_max_us, with
  // ±20% jitter (the TransferOptions defaults). The same schedule drives
  // the transfer manager and the commit pipeline's buffered PUTs, which
  // share one thread-safe RetryPolicy (one jitter stream) across uploaders.
  std::uint64_t retry_backoff_us = 200'000;
  int max_retries = 100;
  std::uint64_t retry_backoff_max_us = 5'000'000;

  // -- cloud transfer concurrency ---------------------------------------------
  // K: GETs the windowed recovery prefetcher (Alg. 1) keeps in flight,
  // counted until each completes, so one slow GET never idles the other
  // K-1. How far the downloads run ahead of the in-order apply is bounded
  // in bytes (K x max_object_bytes of listed object sizes), not in items.
  // 1 fetches nothing ahead: the paper's serial download loop exactly.
  int recovery_prefetch = 8;
  // In-flight cap for checkpoint/dump part PUTs and GC DELETE fan-out.
  int transfer_concurrency = 8;

  // -- checkpoints ---------------------------------------------------------------
  // A dump replaces incremental checkpoints when cloud DB objects reach
  // this multiple of the local database size (§5.3: 150%).
  double dump_threshold = 1.5;
  // Content-addressed delta dumps (see ginja/dedup.h): a dump uploads a
  // small manifest referencing CHUNK/<sha1> objects, PUTting only chunks
  // not already in the cloud — O(changed pages) instead of O(DB). Off by
  // default; the monolithic path stays byte-identical to prior releases.
  bool dedup_dumps = false;
  // Chunk size for delta dumps. Must be a multiple of 4 KiB so boundaries
  // stay page-aligned for both DB flavors. The default balances dedup
  // granularity against per-chunk request latency on WAN-class stores:
  // smaller chunks dedup finer but make recovery base-latency-bound.
  std::size_t dedup_chunk_bytes = 256 * 1024;

  // -- object encoding (§5.4) -----------------------------------------------------
  EnvelopeOptions envelope;
  // Codec concurrency (including the encoding thread itself) for
  // chunk-parallel envelope encoding of large objects; one CodecPool is
  // shared by the commit and checkpoint pipelines. <= 1 encodes serially.
  int codec_threads = 4;

  // -- observability ---------------------------------------------------------------
  // Shared metrics registry + write tracer. When null, Ginja creates a
  // private bundle from `trace` below, so gauges and stage histograms are
  // always reachable via Ginja::observability(). Standalone pipelines
  // (constructed directly, outside Ginja) run unobserved when this is null.
  std::shared_ptr<Observability> obs;
  // Tracer options used only when `obs` is null and Ginja builds its own.
  TraceOptions trace;

  // -- fleet ------------------------------------------------------------------------
  // The execution resources the pipelines run on (uploader pool with DRR
  // scheduling, one TransferManager, one CodecPool, one obs bundle).
  // Upload jobs go to the runtime's scheduler under `tenant_id`, and
  // checkpoint/stream/GC transfers run on its manager billed to a
  // per-instance TransferAccount; B/S/TB semantics stay per-instance.
  // GinjaFleet::AddTenant injects a runtime shared by every tenant (and
  // wraps the store in a TenantNamespace). When null, Ginja — or a directly
  // constructed pipeline — builds a private one-tenant runtime from this
  // config (MakeStandaloneRuntime in ginja/fleet_runtime.h).
  std::shared_ptr<FleetRuntime> runtime;
  // Label for per-tenant metric series (tenant=<id>) and the scheduler
  // queue. Empty for a standalone instance: its series carry no tenant
  // label.
  std::string tenant_id;

  static GinjaConfig NoLoss() {  // paper's S = B = 1 synchronous mode
    GinjaConfig c;
    c.batch = 1;
    c.safety = 1;
    return c;
  }
};

// Sanity-checks the knobs whose zero values would make the pipelines hang
// rather than fail: no uploader ever drains the queue, batch formation
// closes empty batches forever, the streaming path never seals a segment,
// or the checkpointer's part split never advances.
// Called by Ginja::Boot/Reboot before any thread starts, so a bad config
// is a clear error instead of a stuck database.
inline Status ValidateGinjaConfig(const GinjaConfig& config) {
  if (config.uploader_threads <= 0) {
    return Status::InvalidArgument(
        "uploader_threads must be >= 1 (0 uploads nothing and blocks every "
        "write at the S bound)");
  }
  if (config.batch == 0) {
    return Status::InvalidArgument(
        "batch must be >= 1 (every write would close empty batches "
        "forever once it is staged)");
  }
  if (config.stream_segment_writes == 0) {
    return Status::InvalidArgument(
        "stream_segment_writes must be >= 1 (a segment that never fills "
        "never uploads, hanging the streaming path)");
  }
  if (config.max_object_bytes == 0) {
    return Status::InvalidArgument(
        "max_object_bytes must be >= 1 (a zero-byte part never advances "
        "the checkpointer's part split)");
  }
  if (config.dedup_dumps &&
      (config.dedup_chunk_bytes == 0 || config.dedup_chunk_bytes % 4096 != 0)) {
    return Status::InvalidArgument(
        "dedup_chunk_bytes must be a non-zero multiple of 4096 (chunk "
        "boundaries must stay page-aligned or churn detection degrades)");
  }
  return Status::Ok();
}

// Maps the config's retry knobs onto a TransferManager's options with the
// given in-flight cap, so recovery, checkpoints, and GC share one policy.
inline TransferOptions MakeTransferOptions(const GinjaConfig& config,
                                           int concurrency) {
  TransferOptions o;
  o.concurrency = std::max(1, concurrency);
  o.max_attempts = std::max(1, config.max_retries);
  o.backoff_initial_us = config.retry_backoff_us;
  o.backoff_max_us = config.retry_backoff_max_us;
  return o;
}

}  // namespace ginja
