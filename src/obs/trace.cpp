#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace ginja {

namespace {

// SplitMix64 finalizer (same mixer common/rng builds on): a well-mixed
// hash of (seed ^ id) makes sampling uniform over arbitrary id streams
// while staying a pure function of the two.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kSubmit: return "submit";
    case TraceStage::kStaged: return "staged";
    case TraceStage::kBatchClose: return "batch_close";
    case TraceStage::kEncodeQueue: return "encode_queue";
    case TraceStage::kEncode: return "encode";
    case TraceStage::kPut: return "put";
    case TraceStage::kAck: return "ack";
    case TraceStage::kFrontier: return "frontier";
    case TraceStage::kCheckpointPart: return "checkpoint_part";
    case TraceStage::kRecoveryFetch: return "recovery_fetch";
    case TraceStage::kRecoveryApply: return "recovery_apply";
    case TraceStage::kPutFirstByte: return "put_first_byte";
    case TraceStage::kPartPut: return "part_put";
    case TraceStage::kTailPut: return "tail_put";
    case TraceStage::kTailFetch: return "tail_fetch";
    case TraceStage::kTailApply: return "tail_apply";
    case TraceStage::kChunkHash: return "chunk_hash";
    case TraceStage::kRecoveryDecode: return "recovery_decode";
    case TraceStage::kTailDecode: return "tail_decode";
  }
  return "?";
}

WriteTracer::WriteTracer(TraceOptions options)
    : options_(options),
      sample_period_(options.sample_period < 1 ? 1 : options.sample_period),
      enabled_(options.enabled) {
  const int shard_count = std::max(1, options_.shards);
  const std::size_t capacity =
      RoundUpPow2(std::max<std::size_t>(options_.ring_size, 8));
  rings_.reserve(static_cast<std::size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    auto ring = std::make_unique<Ring>();
    ring->events.resize(capacity);
    rings_.push_back(std::move(ring));
  }
}

bool WriteTracer::Sampled(std::uint64_t id) const {
  if (!enabled()) return false;
  if (sample_period_ <= 1) return true;
  return Mix(options_.seed ^ id) % sample_period_ == 0;
}

void WriteTracer::Record(TraceStage stage, std::uint64_t trace_id,
                         std::uint64_t start_us, std::uint64_t duration_us) {
  if (!enabled()) return;
  const int stage_index = static_cast<int>(stage);
  // Marker stages (trace start / frontier advance) carry no duration; the
  // others always feed their histogram, even at 0 us — coarse model clocks
  // legitimately measure sub-tick stages as 0 and the count still matters.
  if (stage != TraceStage::kSubmit && stage != TraceStage::kFrontier) {
    stage_hist_[stage_index].Record(static_cast<double>(duration_us));
  }
  events_.Add();

  Ring& ring = *rings_[detail::ThisThreadStripe() % rings_.size()];
  std::lock_guard<std::mutex> lock(ring.mu);
  SpanEvent& slot = ring.events[ring.next];
  slot.trace_id = trace_id;
  slot.start_us = start_us;
  slot.duration_us = duration_us;
  slot.stage = stage;
  ring.next = (ring.next + 1) & (ring.events.size() - 1);
  ++ring.total;
}

std::vector<SpanEvent> WriteTracer::RecentSpans(std::size_t max_events) const {
  std::vector<SpanEvent> spans;
  for (const auto& ring_ptr : rings_) {
    Ring& ring = *ring_ptr;
    std::lock_guard<std::mutex> lock(ring.mu);
    const std::size_t capacity = ring.events.size();
    const std::size_t stored = std::min<std::uint64_t>(ring.total, capacity);
    // Oldest stored event first: the ring wrapped iff total > capacity.
    std::size_t idx = ring.total > capacity ? ring.next : 0;
    for (std::size_t i = 0; i < stored; ++i) {
      spans.push_back(ring.events[idx]);
      idx = (idx + 1) & (capacity - 1);
    }
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.start_us < b.start_us;
                   });
  if (spans.size() > max_events) {
    spans.erase(spans.begin(),
                spans.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  return spans;
}

std::string WriteTracer::FlightRecorderDump(std::size_t max_events) const {
  const std::vector<SpanEvent> spans = RecentSpans(max_events);
  std::string out = "trace flight recorder: ";
  out += std::to_string(spans.size());
  out += " spans\n";
  char line[128];
  for (const SpanEvent& span : spans) {
    std::snprintf(line, sizeof line,
                  "  t=%llu stage=%s id=%llu dur_us=%llu\n",
                  static_cast<unsigned long long>(span.start_us),
                  TraceStageName(span.stage),
                  static_cast<unsigned long long>(span.trace_id),
                  static_cast<unsigned long long>(span.duration_us));
    out += line;
  }
  return out;
}

void WriteTracer::RegisterMetrics(MetricsRegistry& registry,
                                  const void* owner) {
  for (int i = 0; i < kTraceStageCount; ++i) {
    registry.RegisterHistogram(
        owner, "ginja_stage_latency_us",
        {{"stage", TraceStageName(static_cast<TraceStage>(i))}},
        &stage_hist_[i]);
  }
  registry.RegisterCounter(owner, "ginja_trace_events_total", {}, &events_);
}

}  // namespace ginja
