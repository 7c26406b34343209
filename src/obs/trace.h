// Write-lifecycle tracing: allocation-free span events in per-shard rings.
//
// A sampled write is followed through the commit pipeline — submit →
// staged → batch-close → encode-queue → encode → PUT → ack — plus the
// checkpoint part-upload and recovery fetch → decode → apply paths. Each
// stage records a fixed-size SpanEvent into a bounded ring (no allocation
// after construction) and feeds a per-stage lock-free Histogram, which is
// what the latency-decomposition report ("where did my commit's 9 ms go")
// is built from.
//
// Sampling is deterministic in (seed, id): SplitMix64-style finalizer of
// seed^id modulo the sample period. The same seed and id stream always
// picks the same writes, so traces are reproducible across runs — all
// repo determinism flows through common/rng idioms.
//
// The rings double as a flight recorder: on Kill(), a fault-injection
// trip, or recovery, the last N spans (merged across shards, time-sorted)
// are dumped through the structured logger together with its own recent
// lines.
//
// Disabled cost: Record() and Sampled() are gated on one relaxed atomic
// load; pipelines additionally skip their timestamp plumbing entirely
// when the tracer is off, so compiled-in-but-disabled tracing is free.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"

namespace ginja {

class MetricsRegistry;

enum class TraceStage : std::uint8_t {
  kSubmit = 0,       // write enqueued (duration 0, marks trace start)
  kStaged,           // submit entry → staged into the open batch
  kBatchClose,       // staged → batch closed
  kEncodeQueue,      // batch closed → uploader picked the object up
  kEncode,           // envelope encoding
  kPut,              // first PUT attempt → success (retries included)
  kAck,              // PUT done → unlocker retired the ack
  kFrontier,         // recoverable WAL frontier advanced (duration 0)
  kCheckpointPart,   // checkpoint/dump part: PUT issued → reaped
  kRecoveryFetch,    // recovery object: GET issued → blob in hand
  kRecoveryApply,    // recovery object: entries written to the target VFS
  kPutFirstByte,     // stream open → first data segment durable
  kPartPut,          // segment sealed → its part durable (streaming)
  kTailPut,          // segment sealed → replica-0 tail object durable
  kTailFetch,        // standby tail object: GET issued → blob in hand
  kTailApply,        // standby tail object: entries written into the image
  kChunkHash,        // delta dump: image chunked + SHA-1 hashed (per dump)
  kRecoveryDecode,   // recovery object: blob in hand → payload decoded
  kTailDecode,       // standby tail object: blob in hand → payload decoded
};
inline constexpr int kTraceStageCount = 19;

const char* TraceStageName(TraceStage stage);

struct SpanEvent {
  std::uint64_t trace_id = 0;     // write seq / part key / plan index
  std::uint64_t start_us = 0;     // model time
  std::uint64_t duration_us = 0;  // model time
  TraceStage stage = TraceStage::kSubmit;
};

struct TraceOptions {
  bool enabled = false;
  // Record 1 in `sample_period` trace ids (1 = every write).
  std::uint32_t sample_period = 64;
  // Per-shard ring capacity in events (rounded up to a power of two).
  std::size_t ring_size = 4096;
  // Rings; recording threads spread across them round-robin.
  int shards = 4;
  std::uint64_t seed = 0x0b5e77ab1e5eed01ull;
};

class WriteTracer {
 public:
  explicit WriteTracer(TraceOptions options = {});

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  const TraceOptions& options() const { return options_; }

  // Deterministic in (options.seed, id); false whenever disabled.
  bool Sampled(std::uint64_t id) const;

  // Records a span event (no-op when disabled). Also feeds the stage's
  // latency histogram unless the duration is a 0-length marker event.
  void Record(TraceStage stage, std::uint64_t trace_id, std::uint64_t start_us,
              std::uint64_t duration_us);

  const Histogram& stage_histogram(TraceStage stage) const {
    return stage_hist_[static_cast<int>(stage)];
  }
  std::uint64_t events_recorded() const { return events_.Get(); }

  // The most recent `max_events` spans across all rings, start-time order.
  std::vector<SpanEvent> RecentSpans(std::size_t max_events) const;

  // Human-readable flight-recorder text (recent spans, newest last).
  std::string FlightRecorderDump(std::size_t max_events = 128) const;

  // Registers the per-stage histograms as ginja_stage_latency_us{stage=...}
  // and the event counter; `owner` keys later Unregister().
  void RegisterMetrics(MetricsRegistry& registry, const void* owner);

 private:
  struct Ring {
    std::mutex mu;  // taken only for *sampled* events — rare by design
    std::vector<SpanEvent> events;  // fixed capacity, allocated up front
    std::size_t next = 0;
    std::uint64_t total = 0;
  };

  TraceOptions options_;
  std::uint32_t sample_period_;
  std::atomic<bool> enabled_;
  std::vector<std::unique_ptr<Ring>> rings_;
  Histogram stage_hist_[kTraceStageCount];
  Counter events_;
};

}  // namespace ginja
