// The repository benchmark: one TPC-C workload per invocation on the real
// Ginja stack, on RealClock, with every timing taken from the wall clock.
//
//   ginja_perfbench --workload tpcc_cpu|tpcc_paced_colo|restore_colo
//                   --seed N --seconds S --trace 0|1 [--trace-out FILE]
//                   [--source ID]
//
// Every workload has a write phase (TPC-C transactions protected by Ginja,
// ending with Stop()) and a recovery phase (cold Ginja::Recover plus
// Database::Open of the bucket the write phase left, checked table by table
// against the primary's row counts). The workloads differ in load shape and
// in the simulated store's latency; see kSpecs. Prints every metric by name
// with its unit, then one JSON line: end-to-end metrics, or with --trace 1
// the per-layer ones, from a run that also records spans. Exits 1 when any
// correctness gate fails.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/codec/envelope.h"
#include "ginja/dedup.h"
#include "workloads.h"

using namespace ginja;
using namespace perfbench;

namespace {

struct Spec {
  const char* name;
  int terminals;
  // Open loop: transactions per second from one generator thread. 0 means
  // a closed loop of `terminals` clients.
  double rate_per_s;
  // Closed loop: the fixed transaction count per requested second, so a
  // run does the same work on every host and every commit.
  std::uint64_t txns_per_second;
  std::uint64_t checkpoint_every;  // transactions between checkpoints; 0: none
  LatencyParams write_latency;
  LatencyParams recover_latency;
  // The write phase is a fixed history that only builds the bucket: it runs
  // in set-up, and the timed part repeats the recovery for the requested
  // seconds.
  bool history_in_setup;
};

// Population: 2 warehouses at 1/20 of the spec cardinalities.
constexpr int kWarehouses = 2;
constexpr int kTpccScale = 20;
// Set-up is repeated and its median reported: 5 times, or 3 for the
// restore history, which takes seconds.
constexpr int kSetupRepeats = 5;
constexpr int kHistorySetupRepeats = 3;
constexpr int kWriteRecoveries = 3;  // recoveries after a tpcc_* run
constexpr int kMinRestoreRepeats = 5;
// Long enough that the WAL leaves its first 16 MiB segment before the last
// checkpoint: recovery of a bucket that still holds Boot's whole-segment
// WAL object next to later WAL objects stops at a false ts gap.
constexpr std::uint64_t kHistoryTxns = 7000;
constexpr std::uint64_t kHistorySeed = 2017;
constexpr double kCodecMinSeconds = 0.3;

// tpcc_cpu: zero-latency store, so host CPU is the only cost; 2 closed-loop
//   terminals; a checkpoint every 9000 transactions, the fourth of which
//   the 150% rule turns into a dump.
// tpcc_paced_colo: 1000 txn/s from one generator, about 1/4 of what one
//   thread can run, timed from due times, on the colocated store. At higher
//   rates the ~3 ms that about one WAL write per batch close spends inside
//   Ginja::OnFileEvent queues enough later transactions to reach the p90,
//   and the tail flips from run to run. No checkpoint runs in its
//   window: Database::Checkpoint holds the engine lock for ~200 ms, which
//   would stall the generator and put the checkpoint, not Ginja's batching
//   and PUT round trips, into its latency tail.
// restore_colo: a fixed history from one generator at 1000 txn/s, with
//   checkpoints at 3000 and 6000 transactions, builds the bucket; recovery
//   reads it through the colocated store (LIST, windowed GETs, decode,
//   apply, redo).
const Spec kSpecs[] = {
    {"tpcc_cpu", 2, 0, 4000, 9000, LatencyParams::Instant(),
     LatencyParams::Instant(), false},
    {"tpcc_paced_colo", 1, 1000, 0, 0, LatencyParams::Ec2Colocated(),
     LatencyParams::Ec2Colocated(), false},
    {"restore_colo", 1, 1000, 0, 3000, LatencyParams::Instant(),
     LatencyParams::Ec2Colocated(), true},
};

// The metrics of the result line, as listed in BENCHMARK.json; every other
// metric is printed on its own line only. Per-layer times that read zero on
// some workload (no checkpoint in tpcc_paced_colo's window, no generator in
// the closed loop, default-off streaming) stay off the result line.
const std::vector<const char*> kReportedEndToEnd = {
    "setup_s",       "txn_per_s",  "txn_p50_us", "cpu_ms_per_ktxn", "durable_p50_ms",
    "puts_per_ktxn", "upload_amp", "recover_s",  "peak_rss_mb",
};
const std::vector<const char*> kSelfSpans = {
    "db.txn",        "fs.wal",       "fs.data",      "db.checkpoint",
    "cloud.put.wal", "cloud.put.db", "recover.ginja", "recover.redo",
    "codec.decode",  "codec.encode",
};
const std::vector<const char*> kReportedLayers = {
    "fs.wal_call_us_p50", "fs.wal_call_us_p99", "db.self_us_per_txn",
    "commit.batch_fill_mean", "commit.closed_full_frac", "commit.blocked_waits",
    "cloud.put.wal.count", "cloud.put.wal.mb", "cloud.put.wal.busy_ms",
    "cloud.put.wal.inflight_mean", "cloud.put.wal.p99_ms", "cloud.part.wal.count",
    "cloud.put.tail.count", "cloud.put.db.count", "cloud.put.db.mb",
    "cloud.put.chunk.count", "cloud.put.chunk.mb", "cloud.delete.wal.count",
    "cloud.delete.db.count", "codec.encode_mb_s", "codec.decode_mb_s",
    "recover.ginja_s", "recover.redo_s", "recover.get_inflight_mean",
    "recover.get_p99_ms", "recover.mb", "recover.objects", "self.db.txn_ms",
    "self.fs.wal_ms", "self.cloud.put.wal_ms", "self.cloud.put.db_ms",
    "self.recover.ginja_ms", "self.recover.redo_ms", "self.codec.decode_ms",
    "self.codec.encode_ms",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  std::string source = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") args->workload = value;
    else if (key == "--seed") args->seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") args->seconds = std::strtod(value, nullptr);
    else if (key == "--trace") args->trace = std::atoi(value);
    else if (key == "--trace-out") args->trace_out = value;
    else if (key == "--source") args->source = value;
    else return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void MergeInto(TimingStore::StatsTable& into, const TimingStore::StatsTable& from) {
  for (std::size_t o = 0; o < into.size(); ++o) {
    for (std::size_t c = 0; c < into[o].size(); ++c) {
      OpStats& a = into[o][c];
      const OpStats& b = from[o][c];
      a.count += b.count;
      a.bytes += b.bytes;
      a.busy_ns += b.busy_ns;
      a.us.Append(b.us);
    }
  }
}

// Everything the write phase measured, summed over the runs of a workload.
// Counters cover the measured window: first due time to last measured commit.
struct WritePhase {
  TxnStats txns;
  double window_s = 0;
  double cpu_s = 0;            // process user+sys
  std::uint64_t puts = 0;      // billed PUT requests (MeteredStore)
  std::uint64_t fs_bytes = 0;  // bytes written through InterceptFs
  TimingStore::StatsTable cloud{};
  std::array<Samples, static_cast<int>(FsClass::kCount)> fs_call_us;
  Samples checkpoint_ms;
  std::uint64_t writes = 0, batches = 0, closed_full = 0, closed_deadline = 0;
  std::uint64_t blocked_waits = 0, retries = 0;
  std::uint64_t checkpoints = 0, dumps = 0;
  Status status = Status::Ok();  // checkpoint failures
};

// Cumulative counters, read at both ends of the measured window.
struct Counters {
  double cpu_s;
  std::uint64_t writes, batches, closed_full, closed_deadline, blocked_waits, retries;
  std::uint64_t checkpoints, dumps, puts, fs_bytes;

  static Counters Read(Stack& stack) {
    const auto& cs = stack.ginja->commit_stats();
    const auto& ks = stack.ginja->checkpoint_stats();
    return {CpuSeconds(),
            cs.writes_submitted.Get(),
            cs.batches_uploaded.Get(),
            cs.batches_closed_full.Get(),
            cs.batches_closed_deadline.Get(),
            cs.blocked_waits.Get(),
            cs.upload_retries.Get(),
            ks.checkpoints_uploaded.Get(),
            ks.dumps_uploaded.Get(),
            stack.metered->Usage().puts,
            stack.listener->bytes_written()};
  }

  void AddDelta(const Counters& before, WritePhase& out) const {
    out.cpu_s += cpu_s - before.cpu_s;
    out.writes += writes - before.writes;
    out.batches += batches - before.batches;
    out.closed_full += closed_full - before.closed_full;
    out.closed_deadline += closed_deadline - before.closed_deadline;
    out.blocked_waits += blocked_waits - before.blocked_waits;
    out.retries += retries - before.retries;
    out.checkpoints += checkpoints - before.checkpoints;
    out.dumps += dumps - before.dumps;
    out.puts += puts - before.puts;
    out.fs_bytes += fs_bytes - before.fs_bytes;
  }
};

constexpr std::uint64_t kDrainTimeoutNs = 5'000'000'000;

// The default 50 us timer slack would add up to 50 us of lateness, varying
// with host load, to every open-loop transaction's latency.
void PreciseSleeps() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

// Open loop: sleeps until `due_ns`, polling durability meanwhile. Call
// PreciseSleeps() first on the generator thread.
void WaitUntil(std::uint64_t due_ns, Terminal& term) {
  while (true) {
    term.PollDurable();
    const std::uint64_t now = NowNs();
    if (now >= due_ns) return;
    const std::uint64_t wait_ns = std::min<std::uint64_t>(due_ns - now, 200'000);
    std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
  }
}

// The restore history: one open-loop generator with checkpoints inline,
// each followed by an idle wait for its upload. The dump decision and GC
// then see the same bucket on every run, so the bucket's object names and
// sizes come out identical, and no transaction competes with a
// checkpoint's encoding. The schedule pauses while a checkpoint runs and
// uploads; returns the time paused.
std::uint64_t RunHistory(Stack& stack, const Spec& spec, std::uint64_t txns,
                         Terminal& term, Tracer& tracer, WritePhase& out) {
  PreciseSleeps();
  const double interval_ns = 1e9 / spec.rate_per_s;
  const std::uint64_t start = NowNs();
  std::uint64_t paused_ns = 0;
  for (std::uint64_t i = 0; i < txns; ++i) {
    const std::uint64_t due =
        start + paused_ns + static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
    WaitUntil(due, term);
    term.stats.late_us.Add(static_cast<double>(NowNs() - due) / 1e3);
    term.RunOne(due, i + 1, true);
    if ((i + 1) % spec.checkpoint_every != 0) continue;
    const std::uint64_t uploaded = stack.CheckpointsUploaded();
    const std::uint64_t ck_start = NowNs();
    Status st;
    {
      SpanScope span(tracer, "db.checkpoint");
      st = stack.db->Checkpoint();
    }
    const std::uint64_t ck_end = NowNs();
    out.checkpoint_ms.Add(static_cast<double>(ck_end - ck_start) / 1e6);
    if (!st.ok() && out.status.ok()) out.status = st;
    while (stack.CheckpointsUploaded() == uploaded && NowNs() < ck_end + kDrainTimeoutNs) {
      term.PollDurable();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    paused_ns += NowNs() - ck_start;
  }
  return paused_ns;
}

// Runs `txns` measured transactions on `stack`, then Ginja::Stop(), and
// adds what it measured to `out`. Except in the fixed history, the load
// keeps running unmeasured after the window until every measured
// transaction is durable, so the last batch is not left to the timeout.
void RunWritePhase(Stack& stack, const Spec& spec, std::uint64_t txns,
                   std::uint64_t seed, Tracer& tracer, WritePhase& out) {
  stack.store->Take();  // Boot's uploads are set-up
  stack.listener->TakeCallUs();
  std::vector<Terminal> terms;
  for (int t = 0; t < spec.terminals; ++t) {
    terms.emplace_back(stack, tracer, seed * 1000003 + static_cast<std::uint64_t>(t));
  }
  const Counters before = Counters::Read(stack);
  const std::uint64_t start = NowNs();
  std::uint64_t window_ns = 0;
  // Closes the measured window; called once, when the last measured
  // transaction has committed.
  auto close_window = [&](std::uint64_t end_ns) {
    window_ns = end_ns - start;
    Counters::Read(stack).AddDelta(before, out);
    MergeInto(out.cloud, stack.store->Take());
    auto calls = stack.listener->TakeCallUs();
    for (std::size_t c = 0; c < calls.size(); ++c) out.fs_call_us[c].Append(calls[c]);
  };

  if (spec.history_in_setup) {
    const std::uint64_t paused = RunHistory(stack, spec, txns, terms[0], tracer, out);
    close_window(NowNs() - paused);
    // A fixed history cannot run on until its last batch fills, and the
    // batch timeout would dominate its tail; Stop() flushes it instead.
    stack.ginja->Stop();
    terms[0].PollDurable();
  } else {
    Checkpointer checkpointer(*stack.db, tracer, spec.checkpoint_every);
    if (spec.rate_per_s > 0) {
      Terminal& term = terms[0];
      PreciseSleeps();
      const double interval_ns = 1e9 / spec.rate_per_s;
      std::uint64_t cooldown_end = 0;
      for (std::uint64_t i = 0; i < txns || (term.DurablePending() && NowNs() < cooldown_end);
           ++i) {
        const std::uint64_t due =
            start + static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
        WaitUntil(due, term);
        const bool measured = i < txns;
        if (measured) term.stats.late_us.Add(static_cast<double>(NowNs() - due) / 1e3);
        term.RunOne(due, i + 1, measured);
        if (measured) checkpointer.OnCompleted(i + 1);
        if (i + 1 == txns) {
          close_window(NowNs());
          cooldown_end = NowNs() + kDrainTimeoutNs;
        }
      }
    } else {
      std::atomic<std::uint64_t> next{0};
      std::atomic<std::uint64_t> done{0};
      std::atomic<int> finished{0};
      std::atomic<bool> window_closed{false};
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < terms.size(); ++t) {
        threads.emplace_back([&, t] {
          Terminal& term = terms[t];
          for (std::uint64_t i = next.fetch_add(1); i < txns; i = next.fetch_add(1)) {
            term.PollDurable();
            term.RunOne(NowNs(), i + 1, true);
            checkpointer.OnCompleted(done.fetch_add(1) + 1);
          }
          if (finished.fetch_add(1) + 1 == static_cast<int>(terms.size())) {
            close_window(NowNs());
            window_closed = true;
          }
          const std::uint64_t cooldown_end = NowNs() + kDrainTimeoutNs;
          while (!window_closed || (term.DurablePending() && NowNs() < cooldown_end)) {
            term.PollDurable();
            term.RunOne(NowNs(), 0, false);
          }
        });
      }
      for (auto& th : threads) th.join();
    }
    checkpointer.Stop();
    out.checkpoint_ms.Append(checkpointer.checkpoint_ms);
    if (!checkpointer.status.ok() && out.status.ok()) out.status = checkpointer.status;
  }
  stack.ginja->Stop();
  out.window_s += static_cast<double>(window_ns) / 1e9;
  for (auto& term : terms) out.txns.Append(term.stats);
}

struct RecoveryPhase {
  Samples total_s, ginja_s, redo_s, get_inflight, mb, objects;
  TimingStore::StatsTable cloud{};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
};

// One recovery, checked against the primary's row counts and (when
// given) the bucket digest, which a recovery must leave unchanged.
void RecoverAndCheck(const std::shared_ptr<MemoryStore>& bucket, const Spec& spec,
                     std::uint64_t latency_seed,
                     const std::map<std::string, std::uint64_t>& primary_rows,
                     const std::string& digest, Tracer& tracer, RecoveryPhase& out) {
  RecoveryRun run = RecoverOnce(bucket, spec.recover_latency, latency_seed, tracer);
  ++out.attempted;
  std::string error;
  if (!run.status.ok()) error = "recovery failed: " + run.status.ToString();
  else if (run.row_counts != primary_rows) error = "recovered row counts differ from the primary";
  else if (!digest.empty() && BucketDigest(*bucket) != digest) error = "recovery changed the bucket";
  if (!error.empty()) {
    ++out.failed;
    if (out.first_error.empty()) out.first_error = error;
    return;
  }
  out.total_s.Add(run.ginja_s + run.redo_s);
  out.ginja_s.Add(run.ginja_s);
  out.redo_s.Add(run.redo_s);
  std::uint64_t get_busy = 0;
  for (const OpStats& s : run.cloud[static_cast<int>(StoreOp::kGet)]) get_busy += s.busy_ns;
  out.get_inflight.Add(static_cast<double>(get_busy) / (run.ginja_s * 1e9));
  out.mb.Add(static_cast<double>(run.report.bytes_downloaded) / 1e6);
  out.objects.Add(static_cast<double>(run.report.objects_downloaded));
  MergeInto(out.cloud, run.cloud);
}

// Replays the envelope codec over the bucket's own objects, single
// threaded: decode every object, then re-encode every decoded payload.
struct CodecReplay {
  double decode_mb_s = 0;
  double encode_mb_s = 0;
  std::uint64_t objects = 0;
  Status status = Status::Ok();
};

CodecReplay ReplayCodec(MemoryStore& bucket, Tracer& tracer) {
  CodecReplay out;
  const Envelope envelope(BenchConfig().envelope);
  std::vector<Bytes> enveloped;
  std::vector<std::optional<ChunkObjectId>> chunk_ids;
  auto names = bucket.List("");
  if (!names.ok()) {
    out.status = names.status();
    return out;
  }
  for (const auto& meta : *names) {
    auto bytes = bucket.Get(meta.name);
    if (!bytes.ok()) {
      out.status = bytes.status();
      return out;
    }
    enveloped.push_back(std::move(*bytes));
    chunk_ids.push_back(ClassifyObject(meta.name) == ObjClass::kChunk
                            ? ChunkObjectId::Decode(meta.name)
                            : std::nullopt);
  }
  out.objects = enveloped.size();
  std::vector<Bytes> payloads(enveloped.size());
  auto decode_all = [&] {
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < enveloped.size(); ++i) {
      const auto& id = chunk_ids[i];
      auto r = id ? envelope.DecodeDerived(View(enveloped[i]),
                                           ByteView(id->digest.data(), id->digest.size()))
                  : envelope.Decode(View(enveloped[i]));
      if (!r.ok()) {
        out.status = r.status();
        return bytes;
      }
      payloads[i] = std::move(*r);
      bytes += enveloped[i].size();
    }
    return bytes;
  };
  auto encode_all = [&] {
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      (void)envelope.Encode(View(payloads[i]), i + 1);
      bytes += payloads[i].size();
    }
    return bytes;
  };
  auto throughput = [&](const char* span_name, auto&& pass) {
    SpanScope span(tracer, span_name);
    std::uint64_t bytes = 0;
    const std::uint64_t start = NowNs();
    double secs = 0;
    do {
      bytes += pass();
      secs = static_cast<double>(NowNs() - start) / 1e9;
    } while (secs < kCodecMinSeconds && out.status.ok() && bytes > 0);
    return secs > 0 ? static_cast<double>(bytes) / 1e6 / secs : 0.0;
  };
  out.decode_mb_s = throughput("codec.decode", decode_all);
  if (out.status.ok()) out.encode_mb_s = throughput("codec.encode", encode_all);
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintDist(const char* name, const Samples& s, double scale, const char* unit) {
  const double tail = s.TailPercentile();
  std::printf("dist %-22s n=%-8zu p50=%.4g", name, s.size(), s.Quantile(0.5) * scale);
  if (tail > 50) std::printf(" p%g=%.4g", tail, s.Quantile(tail / 100) * scale);
  std::printf(" %s\n", unit);
}

bool HasCpuFeature(const char* feature) {
  __builtin_cpu_init();
  if (std::strcmp(feature, "sha") == 0) return __builtin_cpu_supports("sha");
  return __builtin_cpu_supports("aes");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--source ID]\n",
                 argv[0]);
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("host nproc=%u sha_ni=%d aes_ni=%d source=%s\n",
              std::thread::hardware_concurrency(), HasCpuFeature("sha") ? 1 : 0,
              HasCpuFeature("aes") ? 1 : 0, args.source.c_str());
  std::printf("workload %s seed=%" PRIu64 " seconds=%g trace=%d\n", spec->name,
              args.seed, args.seconds, args.trace);

  Tracer tracer;
  if (args.trace) tracer.Enable();

  StackOptions options;
  options.warehouses = kWarehouses;
  options.tpcc_scale = kTpccScale;
  options.latency = spec->write_latency;
  // The restore bucket comes from a fixed history; the write workloads
  // draw their population and store jitter from the seed.
  options.tpcc_seed = spec->history_in_setup ? kHistorySeed : args.seed;
  options.latency_seed = spec->history_in_setup ? kHistorySeed : args.seed;

  // The last stack set up is the one measured.
  Samples setup_s;
  WritePhase write;
  std::unique_ptr<Stack> stack;
  std::string digest;
  bool digests_agree = true;
  const int setup_repeats = spec->history_in_setup ? kHistorySetupRepeats : kSetupRepeats;
  for (int i = 0; i < setup_repeats; ++i) {
    stack.reset();
    const std::uint64_t start = NowNs();
    auto built = BuildStack(options, tracer);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", built.status().ToString().c_str());
      return 1;
    }
    stack = std::move(*built);
    if (spec->history_in_setup) {
      RunWritePhase(*stack, *spec, kHistoryTxns, kHistorySeed, tracer, write);
      const std::string d = BucketDigest(*stack->bucket);
      if (!digest.empty() && d != digest) digests_agree = false;
      digest = d;
    }
    setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
  }

  RecoveryPhase recovery;
  const std::uint64_t timed_start = NowNs();
  if (!spec->history_in_setup) {
    const std::uint64_t txns =
        spec->rate_per_s > 0
            ? static_cast<std::uint64_t>(spec->rate_per_s * args.seconds)
            : static_cast<std::uint64_t>(static_cast<double>(spec->txns_per_second) *
                                         args.seconds);
    RunWritePhase(*stack, *spec, txns, args.seed, tracer, write);
    const auto rows = stack->RowCounts();
    for (int r = 0; r < kWriteRecoveries; ++r) {
      RecoverAndCheck(stack->bucket, *spec, args.seed + r, rows, "", tracer, recovery);
    }
  } else {
    const auto rows = stack->RowCounts();
    const std::uint64_t budget_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
    for (std::uint64_t r = 0;
         r < kMinRestoreRepeats || NowNs() - timed_start < budget_ns; ++r) {
      RecoverAndCheck(stack->bucket, *spec, args.seed * 1000 + r, rows, digest,
                      tracer, recovery);
    }
  }
  const CodecReplay codec = ReplayCodec(*stack->bucket, tracer);
  const TxnStats& txns = write.txns;

  // -- correctness ----------------------------------------------------------
  std::vector<std::string> failures;
  if (txns.failed > 0) failures.push_back("transaction error: " + txns.first_error);
  if (!write.status.ok()) failures.push_back("checkpoint failed: " + write.status.ToString());
  if (recovery.failed > 0) failures.push_back(recovery.first_error);
  if (!codec.status.ok()) failures.push_back("codec replay: " + codec.status.ToString());
  const std::uint64_t attempted = txns.attempted + recovery.attempted;
  const std::uint64_t failed = txns.failed + recovery.failed + (write.status.ok() ? 0 : 1) +
                               (codec.status.ok() ? 0 : 1);
  if (spec->history_in_setup) {
    std::printf("info bucket_digest=%s identical_across_setups=%d\n", digest.c_str(),
                digests_agree ? 1 : 0);
  }
  std::printf("info txns=%" PRIu64 " checkpoints=%" PRIu64 " dumps=%" PRIu64
              " recoveries=%" PRIu64 " codec_objects=%" PRIu64 "\n",
              txns.completed, write.checkpoints, write.dumps, recovery.attempted,
              codec.objects);

  // -- distributions ------------------------------------------------------------
  PrintDist("setup_s", setup_s, 1, "s");
  PrintDist("txn_us", txns.txn_us, 1, "us");
  PrintDist("durable_ms", txns.durable_us, 1e-3, "ms");
  PrintDist("db.self_us", txns.db_self_us, 1, "us");
  PrintDist("gen.late_us", txns.late_us, 1, "us");
  for (int c = 0; c < static_cast<int>(FsClass::kCount); ++c) {
    const std::string name = std::string("fs.") + FsClassName(static_cast<FsClass>(c)) + "_call_us";
    PrintDist(name.c_str(), write.fs_call_us[c], 1, "us");
  }
  PrintDist("db.checkpoint_ms", write.checkpoint_ms, 1, "ms");
  PrintDist("recover_s", recovery.total_s, 1, "s");

  // -- end-to-end -----------------------------------------------------------
  const double ktxn = static_cast<double>(std::max<std::uint64_t>(txns.completed, 1)) / 1e3;
  std::uint64_t put_bytes = 0;
  for (int c = 0; c < static_cast<int>(ObjClass::kCount); ++c) {
    put_bytes += write.cloud[static_cast<int>(StoreOp::kPut)][c].bytes;
  }
  std::vector<Metric> e2e = {
      {"setup_s", setup_s.Quantile(0.5), "s"},
      {"txn_per_s", write.window_s > 0 ? static_cast<double>(txns.completed) / write.window_s : 0,
       "1/s"},
      {"txn_p50_us", txns.txn_us.Quantile(0.5), "us"},
      {"txn_p90_us", txns.txn_us.Quantile(0.90), "us"},
      {"txn_p99_us", txns.txn_us.Quantile(0.99), "us"},
      {"txn_p999_us", txns.txn_us.Quantile(0.999), "us"},
      {"cpu_ms_per_ktxn", write.cpu_s * 1e3 / ktxn, "ms"},
      {"durable_p50_ms", txns.durable_us.Quantile(0.5) / 1e3, "ms"},
      {"durable_p90_ms", txns.durable_us.Quantile(0.90) / 1e3, "ms"},
      {"durable_p99_ms", txns.durable_us.Quantile(0.99) / 1e3, "ms"},
      {"durable_p999_ms", txns.durable_us.Quantile(0.999) / 1e3, "ms"},
      {"puts_per_ktxn", static_cast<double>(write.puts) / ktxn, "count"},
      {"upload_amp",
       write.fs_bytes > 0 ? static_cast<double>(put_bytes) / static_cast<double>(write.fs_bytes)
                          : 0,
       "ratio"},
      {"recover_s", recovery.total_s.Quantile(0.5), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1;

  // -- per layer ----------------------------------------------------------------
  const double window_ns = std::max(write.window_s, 1e-9) * 1e9;
  std::vector<Metric> layer = {
      {"fs.wal_call_us_p50", write.fs_call_us[0].Quantile(0.5), "us"},
      {"fs.wal_call_us_p99", write.fs_call_us[0].Quantile(0.99), "us"},
      {"fs.data_call_us_p50", write.fs_call_us[1].Quantile(0.5), "us"},
      {"db.self_us_per_txn", txns.db_self_us.Mean(), "us"},
      {"db.checkpoint_ms_p50", write.checkpoint_ms.Quantile(0.5), "ms"},
      {"commit.batch_fill_mean",
       write.batches > 0 ? static_cast<double>(write.writes) /
                               static_cast<double>(write.batches * BenchConfig().batch)
                         : 0,
       "ratio"},
      {"commit.closed_full_frac",
       write.closed_full + write.closed_deadline > 0
           ? static_cast<double>(write.closed_full) /
                 static_cast<double>(write.closed_full + write.closed_deadline)
           : 0,
       "ratio"},
      {"commit.blocked_waits", static_cast<double>(write.blocked_waits), "count"},
      {"commit.retries", static_cast<double>(write.retries), "count"},
  };
  for (StoreOp op : {StoreOp::kPut, StoreOp::kPart, StoreOp::kDelete, StoreOp::kList}) {
    for (int c = 0; c < static_cast<int>(ObjClass::kCount); ++c) {
      const OpStats& s = write.cloud[static_cast<int>(op)][c];
      const std::string base = std::string("cloud.") + StoreOpName(op) + "." +
                               ObjClassName(static_cast<ObjClass>(c));
      if (s.count > 0) PrintDist(base.c_str(), s.us, 1e-3, "ms");
      layer.push_back({base + ".count", static_cast<double>(s.count), "count"});
      layer.push_back({base + ".mb", static_cast<double>(s.bytes) / 1e6, "MB"});
      layer.push_back({base + ".busy_ms", static_cast<double>(s.busy_ns) / 1e6, "ms"});
      layer.push_back({base + ".inflight_mean", static_cast<double>(s.busy_ns) / window_ns,
                       "count"});
      layer.push_back({base + ".p99_ms", s.us.Quantile(0.99) / 1e3, "ms"});
    }
  }
  Samples get_us;
  for (int c = 0; c < static_cast<int>(ObjClass::kCount); ++c) {
    get_us.Append(recovery.cloud[static_cast<int>(StoreOp::kGet)][c].us);
  }
  PrintDist("recover.get_ms", get_us, 1e-3, "ms");
  const std::vector<Metric> tail_metrics = {
      {"codec.encode_mb_s", codec.encode_mb_s, "MB/s"},
      {"codec.decode_mb_s", codec.decode_mb_s, "MB/s"},
      {"recover.ginja_s", recovery.ginja_s.Quantile(0.5), "s"},
      {"recover.redo_s", recovery.redo_s.Quantile(0.5), "s"},
      {"recover.get_inflight_mean", recovery.get_inflight.Quantile(0.5), "count"},
      {"recover.get_p99_ms", get_us.Quantile(0.99) / 1e3, "ms"},
      {"recover.mb", recovery.mb.Quantile(0.5), "MB"},
      {"recover.objects", recovery.objects.Quantile(0.5), "count"},
      {"gen.late_p99_us", txns.late_us.Quantile(0.99), "us"},
  };
  layer.insert(layer.end(), tail_metrics.begin(), tail_metrics.end());
  if (args.trace) {
    const auto self_times = tracer.SelfTimes();
    for (const auto& [name, t] : self_times) {
      std::printf("self %-22s n=%-8" PRIu64 " total_ms=%.3f self_ms=%.3f\n", name.c_str(),
                  t.count, t.total_ms, t.self_ms);
    }
    for (const char* name : kSelfSpans) {
      const auto it = self_times.find(name);
      layer.push_back({std::string("self.") + name + "_ms",
                       it == self_times.end() ? 0.0 : it->second.self_ms, "ms"});
    }
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
  }

  for (const Metric& m : e2e) std::printf("metric %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("metric %-26s %.6g %s\n", "failed_frac", failed_frac, "ratio");
  for (const Metric& m : layer) {
    std::printf("layer  %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& f : failures) std::printf("FAIL %s\n", f.c_str());

  // The result line carries the metrics BENCHMARK.json names, in its order.
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              failures.empty() ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const char* name : args.trace ? kReportedLayers : kReportedEndToEnd) {
    for (const Metric& m : args.trace ? layer : e2e) {
      if (m.name != name) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name, m.value,
                  m.unit.c_str());
      sep = ", ";
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}
