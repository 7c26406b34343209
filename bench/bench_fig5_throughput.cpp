// Figure 5: TPC-C throughput (Tpm-C / Tpm-Total) of PostgreSQL and MySQL on
// ext4, on plain FUSE, and on Ginja with the paper's (B, S) grid, down to
// the synchronous No-Loss configuration (S = B = 1).
//
// Latencies are model time (WAN S3 fitted to Table 3, 2 ms local fsync,
// 150 us FUSE hop); absolute Tpm depends on the simulated engine, but the
// ordering and relative drops are the paper's.
//
// Two additions beyond the paper's figure:
//   * a client-thread sweep (1/4/16 TPC-C terminals) with per-commit
//     latency percentiles, showing how commit latency behaves as more
//     terminals share the engine's serialised WAL writer;
//   * an ingestion microbench that strips away SQL and interception and
//     hammers CommitPipeline::Submit directly from 1/4/16 threads against
//     an instant store (raw MemoryStore, real clock).
//
// Pass --smoke for the reduced CI matrix. Every row also emits a
// machine-readable `BENCH_fig5* {...}` JSON line.
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "bench_common.h"

using namespace ginja;
using namespace ginja::bench;

namespace {

double g_model_seconds = 60.0;  // per configuration; --smoke shrinks it
bool g_smoke = false;

struct Row {
  std::string label;
  double tpm_total;
  double tpm_c;
  std::uint64_t blocked;
  HistogramSnapshot commit;
};

Row RunConfig(DbFlavor flavor, Mode mode, std::size_t batch, std::size_t safety,
              const std::string& label, int terminals = 5) {
  GinjaConfig config;
  config.batch = batch;
  config.safety = safety;
  config.batch_timeout_us = 1'000'000;    // TB = 1 s (model)
  config.safety_timeout_us = 30'000'000;  // TS = 30 s: B/S dominate (paper)
  auto stack = BuildStack(flavor, mode, config);
  if (!stack) return {label, 0, 0, 0, {}};
  const auto result = RunTpccBench(*stack, g_model_seconds, terminals);
  std::uint64_t blocked = 0;
  HistogramSnapshot commit;
  if (stack->ginja) {
    stack->ginja->Drain();
    blocked = stack->ginja->commit_stats().blocked_waits.Get();
    commit = stack->ginja->commit_stats().commit_latency_us.Snapshot();
    stack->ginja->Stop();
  }
  Row row{label, result.TpmTotal(), result.TpmC(), blocked, commit};
  JsonLine line("fig5");
  line.Field("flavor", flavor == DbFlavor::kPostgres ? "postgres" : "mysql")
      .Field("mode", ModeName(mode))
      .Field("label", label)
      .Field("terminals", terminals)
      .Field("tpm_total", row.tpm_total)
      .Field("tpm_c", row.tpm_c)
      .Field("blocked_waits", blocked)
      .Field("commit_p50_us", commit.p50)
      .Field("commit_p99_us", commit.p99);
  line.Emit();
  return row;
}

void RunFlavor(DbFlavor flavor) {
  std::printf("\n--- %s ---\n",
              flavor == DbFlavor::kPostgres ? "PostgreSQL" : "MySQL");
  std::printf("%-22s %-12s %-12s %-10s\n", "configuration", "Tpm-Total",
              "Tpm-C", "blocked");

  std::vector<Row> rows;
  rows.push_back(RunConfig(flavor, Mode::kExt4, 0, 0, "ext4"));
  rows.push_back(RunConfig(flavor, Mode::kFuse, 0, 0, "FUSE"));
  struct Cfg {
    std::size_t b, s;
  };
  std::vector<Cfg> grid{Cfg{1000, 10000}, Cfg{100, 10000}, Cfg{10, 10000},
                        Cfg{100, 1000},  Cfg{10, 1000},   Cfg{10, 100},
                        Cfg{1, 1}};
  if (g_smoke) grid = {Cfg{100, 10000}, Cfg{10, 100}, Cfg{1, 1}};
  for (const Cfg& c : grid) {
    const std::string label = c.b == 1 && c.s == 1
                                  ? "No-Loss (S=B=1)"
                                  : "B=" + std::to_string(c.b) +
                                        " S=" + std::to_string(c.s);
    rows.push_back(RunConfig(flavor, Mode::kGinja, c.b, c.s, label));
  }

  const double ext4 = rows[0].tpm_total;
  for (const Row& row : rows) {
    std::printf("%-22s %-12.0f %-12.0f %-10llu (%.0f%% of ext4)\n",
                row.label.c_str(), row.tpm_total, row.tpm_c,
                static_cast<unsigned long long>(row.blocked),
                ext4 > 0 ? row.tpm_total / ext4 * 100 : 0);
  }
}

// Client-thread scaling through the whole stack: same Ginja config, more
// concurrent TPC-C terminals. Their commits serialise on the engine's WAL
// writer, so intercepted WAL writes still reach Submit one at a time.
void RunTerminalSweep() {
  PrintHeader("Client-thread sweep — PostgreSQL, Ginja B=100 S=10000");
  std::printf("%-10s %-12s %-12s %-14s %-14s\n", "terminals", "Tpm-Total",
              "Tpm-C", "commit p50", "commit p99");
  for (int terminals : {1, 4, 16}) {
    const Row row =
        RunConfig(DbFlavor::kPostgres, Mode::kGinja, 100, 10'000,
                  "terminals=" + std::to_string(terminals), terminals);
    std::printf("%-10d %-12.0f %-12.0f %-14.0f %-14.0f\n", terminals,
                row.tpm_total, row.tpm_c, row.commit.p50, row.commit.p99);
  }
}

// Ingestion front-end scaling, isolated from the engine: concurrent client
// threads call CommitPipeline::Submit directly. The store is a raw
// MemoryStore on a real clock (the "Instant" latency profile).
//
// The headline metric is submitted-writes/s: wall time until every Submit
// has returned, excluding Drain(). The total write count stays below S so
// no Submit ever blocks on the back end — the submit phase measures the
// front end alone. Each configuration runs several repetitions and keeps
// the best (least-perturbed) one.
void RunIngestSweep() {
  PrintHeader(
      "Ingestion sweep — CommitPipeline::Submit, instant store, real clock");
  std::printf("%-9s %-16s %-16s %-14s %-14s\n", "threads", "submitted/s",
              "e2e writes/s", "commit p50", "commit p99");
  // 48k total writes: under S = 100k, so never safety-blocked.
  const std::uint64_t total_writes = 48'000;
  const int reps = g_smoke ? 3 : 5;
  for (int threads : {1, 4, 16}) {
    IngestResult best;
    HistogramSnapshot commit;
    for (int rep = 0; rep < reps; ++rep) {
      auto store = std::make_shared<MemoryStore>();
      auto view = std::make_shared<CloudView>();
      auto clock = std::make_shared<RealClock>();
      auto envelope = std::make_shared<Envelope>(EnvelopeOptions{});
      GinjaConfig config;
      config.batch = 100;
      config.batch_timeout_us = 1'000'000;
      config.safety = 100'000;
      config.uploader_threads = 4;
      auto pipeline = std::make_unique<CommitPipeline>(store, view, clock,
                                                       config, envelope);
      pipeline->Start();

      IngestOptions options;
      options.threads = threads;
      // Fixed total work across thread counts.
      options.writes_per_thread =
          total_writes / static_cast<std::uint64_t>(threads);
      options.write_bytes = 256;
      options.pages_per_thread = 8;
      const IngestResult result = RunWalIngest(*pipeline, options);
      if (result.SubmittedWritesPerSec() > best.SubmittedWritesPerSec()) {
        best = result;
        commit = pipeline->stats().commit_latency_us.Snapshot();
      }
      pipeline->Stop();
    }

    std::printf("%-9d %-16.0f %-16.0f %-14.0f %-14.0f\n", threads,
                best.SubmittedWritesPerSec(), best.EndToEndWritesPerSec(),
                commit.p50, commit.p99);
    JsonLine line("fig5_ingest");
    line.Field("threads", threads)
        .Field("writes", best.writes)
        .Field("writes_per_sec", best.SubmittedWritesPerSec())
        .Field("e2e_writes_per_sec", best.EndToEndWritesPerSec())
        .Field("commit_p50_us", commit.p50)
        .Field("commit_p99_us", commit.p99);
    line.Emit();
  }
}

// Streaming commit sweep (PUT-RTT headline): paced WAL writes into
// CommitPipeline::Submit against the WAN S3 latency model on a scaled
// clock, comparing the buffered path, the streaming path, and streaming
// with early acks at B in {1, 10, 100}.
//
// The pacing keeps batch formation at ~200 ms of model time regardless of
// B, and the uploader pool ahead of the arrival rate, so the percentiles
// measure the commit path itself rather than queueing under overload.
//
// The reference `model_put_rtt_us` is the deterministic WAN PUT latency of
// one ack unit — a segment's payload (base + size term, no jitter). A
// buffered write cannot ack before a full-object PUT on top of batch fill;
// a streamed early-acked write only waits for its segment's tail PUT, so
// p50/RTT should approach 1 as B grows.
void RunStreamSweep() {
  PrintHeader(
      "Streaming commit sweep — WAN S3 model, paced writes, "
      "commit latency vs PUT RTT");
  std::printf("%-6s %-18s %-14s %-14s %-14s %-10s\n", "B", "mode",
              "commit p50", "commit p95", "put RTT", "p50/RTT");

  struct ModeCfg {
    const char* name;
    bool streaming;
    bool early_ack;
  };
  const ModeCfg modes[] = {{"buffered", false, false},
                           {"stream", true, false},
                           {"stream+early_ack", true, true}};
  const LatencyParams wan = LatencyParams::WanS3();
  constexpr std::size_t kWriteBytes = 4096;
  const int writes = g_smoke ? 300 : 1000;

  for (std::size_t batch : {std::size_t{1}, std::size_t{10}, std::size_t{100}}) {
    // ~200 ms of model time per batch at every B.
    const std::uint64_t interarrival_us = 200'000 / batch;
    for (const ModeCfg& mode : modes) {
      auto raw = std::make_shared<MemoryStore>();
      auto clock = std::make_shared<ScaledClock>(kTimeScale);
      auto model = std::make_shared<LatencyModel>(wan, clock);
      auto store = std::make_shared<MeteredStore>(raw, clock, model);
      auto view = std::make_shared<CloudView>();
      auto envelope = std::make_shared<Envelope>(EnvelopeOptions{});
      GinjaConfig config;
      config.batch = batch;
      config.safety = 1'000'000;           // never safety-blocked
      config.batch_timeout_us = 1'000'000;
      config.safety_timeout_us = 60'000'000;
      config.uploader_threads = 4;
      // Tail PUTs pay the full WAN request base (~410 ms) regardless of
      // size, so at B=100 the segment rate needs ~13 PUTs in flight; give
      // the stream transfer pool the headroom S3 itself would (the paper's
      // cost concern is request *count*, not concurrency).
      config.transfer_concurrency = 32;
      config.streaming_commit = mode.streaming;
      config.early_ack = mode.early_ack;
      auto pipeline =
          std::make_unique<CommitPipeline>(store, view, clock, config, envelope);
      // Exact per-write ack times via the consecutive-ack frontier (the
      // pipeline's own histogram has ~1.4x geometric buckets — too coarse
      // to resolve p50 against the RTT). A write with max_lsn L is
      // committed at the first frontier advance covering L.
      std::mutex events_mu;
      std::vector<std::pair<std::uint64_t, Lsn>> events;  // (model us, lsn)
      pipeline->SetFrontierListener([&] {
        std::lock_guard<std::mutex> lock(events_mu);
        events.emplace_back(clock->NowMicros(),
                            pipeline->UploadedWalFrontier());
      });
      pipeline->Start();

      std::vector<std::uint64_t> submit_us(
          static_cast<std::size_t>(writes), 0);
      for (int i = 0; i < writes; ++i) {
        WalWrite w;
        w.file = "pg_xlog/000000010000000000000001";
        w.offset = static_cast<std::uint64_t>(i) * kWriteBytes;
        w.data = Bytes(kWriteBytes, 0x5A);
        w.max_lsn = static_cast<std::uint64_t>(i + 1) * kWriteBytes;
        submit_us[static_cast<std::size_t>(i)] = clock->NowMicros();
        pipeline->Submit(std::move(w));
        clock->SleepMicros(interarrival_us);
      }
      pipeline->Drain();
      const std::uint64_t drained_us = clock->NowMicros();
      pipeline->Stop();

      std::vector<double> latencies(static_cast<std::size_t>(writes));
      {
        std::lock_guard<std::mutex> lock(events_mu);
        std::size_t w = 0;
        for (const auto& [at_us, lsn] : events) {
          while (w < latencies.size() &&
                 static_cast<Lsn>(w + 1) * kWriteBytes <= lsn) {
            latencies[w] = static_cast<double>(at_us - submit_us[w]);
            ++w;
          }
        }
        for (; w < latencies.size(); ++w) {
          latencies[w] = static_cast<double>(drained_us - submit_us[w]);
        }
      }
      std::sort(latencies.begin(), latencies.end());
      auto quantile = [&](double q) {
        const std::size_t idx = std::min(
            latencies.size() - 1,
            static_cast<std::size_t>(q * static_cast<double>(latencies.size())));
        return latencies[idx];
      };
      HistogramSnapshot commit;
      commit.p50 = quantile(0.50);
      commit.p95 = quantile(0.95);
      commit.p99 = quantile(0.99);

      const std::size_t seg_writes =
          std::min(config.stream_segment_writes, batch);
      const double seg_kb =
          static_cast<double>(seg_writes * kWriteBytes) / 1024.0;
      const double put_rtt_us = wan.put_base_us + seg_kb * wan.put_us_per_kb;
      const double p50_over_rtt = put_rtt_us > 0 ? commit.p50 / put_rtt_us : 0;

      std::printf("%-6zu %-18s %-14.0f %-14.0f %-14.0f %-10.2f\n", batch,
                  mode.name, commit.p50, commit.p95, put_rtt_us, p50_over_rtt);
      JsonLine line("fig5_stream");
      line.Field("batch", static_cast<std::uint64_t>(batch))
          .Field("mode", mode.name)
          .Field("writes", static_cast<std::uint64_t>(writes))
          .Field("write_bytes", static_cast<std::uint64_t>(kWriteBytes))
          .Field("commit_p50_us", commit.p50)
          .Field("commit_p95_us", commit.p95)
          .Field("commit_p99_us", commit.p99)
          .Field("model_put_rtt_us", put_rtt_us)
          .Field("p50_over_rtt", p50_over_rtt);
      line.Emit();
    }
  }
  std::printf(
      "\nExpected shape: buffered p50 carries batch fill + a full-object\n"
      "PUT; streaming trims the close-to-ack tail to one finish RTT; early\n"
      "acks bring p50 to ~1x the segment PUT RTT at B=100.\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      g_model_seconds = 10.0;
    }
  }
  PrintHeader(
      "Figure 5 — TPC-C throughput under Ginja configurations "
      "(model time, WAN S3)");
  RunFlavor(DbFlavor::kPostgres);
  if (!g_smoke) RunFlavor(DbFlavor::kMySql);
  RunTerminalSweep();
  RunIngestSweep();
  RunStreamSweep();
  if (!g_smoke) {
    std::printf(
        "\nExpected shape (paper Section 8.1): FUSE costs ~7-12%% vs ext4; large\n"
        "B,S costs only a few %% more; small B with small S blocks the DBMS and\n"
        "collapses throughput; No-Loss (S=B=1) is slowest of all.\n");
  }
  return 0;
}
