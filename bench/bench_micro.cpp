// Microbenchmarks (google-benchmark): the hot primitives on Ginja's commit
// path — the v1 LZSS and LZ77 + Huffman codecs, AES-128-CTR, HMAC-SHA1,
// CRC-32, the full envelope encode (with latency percentiles), WAL appends,
// and page aggregation — plus both halves of a cold restore
// (Ginja::Recover of a bucket, Database::Open).
// Codec throughput runs at 8 KiB / 256 KiB / 4 MiB; bytes_per_second and
// the p50/p95/p99 counters land in the JSON output (--benchmark_format=json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cloud/memory_store.h"
#include "common/codec/aes128.h"
#include "common/codec/crc32.h"
#include "common/codec/envelope.h"
#include "common/codec/hmac.h"
#include "common/codec/lzh.h"
#include "common/codec/lzss.h"
#include "common/codec/sha1.h"
#include "common/rng.h"
#include "common/stats.h"
#include "db/database.h"
#include "db/wal.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"
#include "ginja/coalesce.h"
#include "ginja/commit_pipeline.h"
#include "ginja/ginja.h"
#include "obs/obs.h"
#include "workload/tpcc.h"

namespace ginja {
namespace {

Bytes TpccLikePage(std::size_t size, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes page;
  while (page.size() < size) {
    std::string row = std::to_string(rng.NextBelow(100000)) + "|customer-" +
                      std::to_string(rng.NextBelow(1000));
    row.resize(100, 'x');
    Append(page, View(ToBytes(row)));
  }
  page.resize(size);
  return page;
}

// What a codec benchmark compresses: TPC-C-like rows (TpccLikePage), or the
// engine's own bytes — table files (8 KiB pages, rows at the head and zero
// tails) or the WAL — from a TPC-C population checkpointed and then run
// for 3000 transactions.
enum class Shape { kRows, kPages, kWal };

Bytes ShapedInput(Shape shape, std::size_t size) {
  if (shape == Shape::kRows) return TpccLikePage(size, 1);
  static const std::pair<Bytes, Bytes> engine = [] {
    const DbLayout layout = DbLayout::Postgres();
    auto fs = std::make_shared<MemFs>();
    Database db(fs, layout);
    TpccConfig config;
    config.scale = 20;
    TpccWorkload tpcc(&db, config);
    SplitMix64 rng(7);
    if (db.Create().ok() && tpcc.Populate().ok() && db.Checkpoint().ok()) {
      for (int i = 0; i < 3000; ++i) (void)tpcc.Execute(tpcc.PickType(rng), rng);
    }
    std::pair<Bytes, Bytes> out;  // pages, WAL
    auto files = fs->ListFiles("");
    for (const auto& path : files.ok() ? *files : std::vector<std::string>{}) {
      auto bytes = fs->ReadAll(path);
      if (!bytes.ok()) continue;
      Append(path.rfind("pg_xlog/", 0) == 0 ? out.second : out.first, View(*bytes));
    }
    return out;
  }();
  const Bytes& source = shape == Shape::kPages ? engine.first : engine.second;
  Bytes out;
  while (!source.empty() && out.size() < size) {
    Append(out, ByteView(source).first(std::min(source.size(), size - out.size())));
  }
  return out;
}

template <typename Codec>
void CompressBench(benchmark::State& state, Shape shape) {
  const Bytes input = ShapedInput(shape, static_cast<std::size_t>(state.range(0)));
  std::size_t compressed = 0;
  for (auto _ : state) {
    const Bytes out = Codec::Compress(View(input));
    compressed = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["ratio"] =
      static_cast<double>(input.size()) / static_cast<double>(std::max<std::size_t>(compressed, 1));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

// bytes_per_second counts decoded (output) bytes, so two codecs compare
// on the same payloads whatever their ratios.
template <typename Codec>
void DecompressBench(benchmark::State& state, Shape shape) {
  const Bytes input = ShapedInput(shape, static_cast<std::size_t>(state.range(0)));
  const Bytes compressed = Codec::Compress(View(input));
  Bytes out(input.size());
  for (auto _ : state) {
    if (!Codec::DecompressInto(View(compressed), out.data(), out.size())) {
      state.SkipWithError("decompress failed");
      break;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

// The v1 LZSS stream (still decoded for objects written before the
// entropy stage) and the LZ77 + Huffman stream envelopes write.
void BM_LzssCompress(benchmark::State& state, Shape shape) { CompressBench<Lzss>(state, shape); }
void BM_LzssDecompress(benchmark::State& state, Shape shape) { DecompressBench<Lzss>(state, shape); }
void BM_LzhCompress(benchmark::State& state, Shape shape) { CompressBench<Lzh>(state, shape); }
void BM_LzhDecompress(benchmark::State& state, Shape shape) { DecompressBench<Lzh>(state, shape); }

BENCHMARK_CAPTURE(BM_LzssCompress, rows, Shape::kRows)
    ->Arg(512)
    ->Arg(8192)
    ->Arg(65536)
    ->Arg(256 * 1024)
    ->Arg(4 * 1024 * 1024);
BENCHMARK_CAPTURE(BM_LzssDecompress, rows, Shape::kRows)->Arg(8192)->Arg(65536);
BENCHMARK_CAPTURE(BM_LzhCompress, rows, Shape::kRows)
    ->Arg(512)
    ->Arg(8192)
    ->Arg(65536)
    ->Arg(256 * 1024)
    ->Arg(4 * 1024 * 1024);
BENCHMARK_CAPTURE(BM_LzhDecompress, rows, Shape::kRows)->Arg(8192)->Arg(65536);
BENCHMARK_CAPTURE(BM_LzssCompress, pages, Shape::kPages)->Arg(8192)->Arg(256 * 1024);
BENCHMARK_CAPTURE(BM_LzssDecompress, pages, Shape::kPages)->Arg(8192)->Arg(256 * 1024);
BENCHMARK_CAPTURE(BM_LzhCompress, pages, Shape::kPages)->Arg(8192)->Arg(256 * 1024);
BENCHMARK_CAPTURE(BM_LzhDecompress, pages, Shape::kPages)->Arg(8192)->Arg(256 * 1024);
BENCHMARK_CAPTURE(BM_LzssCompress, wal, Shape::kWal)->Arg(8192)->Arg(256 * 1024);
BENCHMARK_CAPTURE(BM_LzssDecompress, wal, Shape::kWal)->Arg(8192)->Arg(256 * 1024);
BENCHMARK_CAPTURE(BM_LzhCompress, wal, Shape::kWal)->Arg(8192)->Arg(256 * 1024);
BENCHMARK_CAPTURE(BM_LzhDecompress, wal, Shape::kWal)->Arg(8192)->Arg(256 * 1024);

// The engine checksums every WAL page on commit and every page and record
// at redo; 8 KiB is one page.
void BM_Crc32(benchmark::State& state) {
  const Bytes page = TpccLikePage(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(View(page)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(8192)->Arg(65536);

void BM_AesCtr(benchmark::State& state) {
  Aes128 aes(Aes128::Key{});
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes.Ctr(View(data), ++nonce));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(512)->Arg(8192)->Arg(65536);

// The allocation-free in-place CTR used by the envelope hot path.
void BM_AesCtrInPlace(benchmark::State& state) {
  Aes128 aes(Aes128::Key{});
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    aes.CtrInPlace(data.data(), data.size(), ++nonce);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesCtrInPlace)
    ->Arg(8192)
    ->Arg(256 * 1024)
    ->Arg(4 * 1024 * 1024);

void BM_HmacSha1(benchmark::State& state) {
  const Bytes key(16, 0x42);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x5C);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha1(View(key), View(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha1)->Arg(8192)->Arg(256 * 1024)->Arg(4 * 1024 * 1024);

void BM_Sha1(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x5C);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::Hash(View(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(8192)->Arg(65536);

void BM_EnvelopeEncode(benchmark::State& state) {
  EnvelopeOptions options;
  options.compress = state.range(1) & 1;
  options.encrypt = state.range(1) & 2;
  Envelope envelope(options);
  const Bytes page = TpccLikePage(static_cast<std::size_t>(state.range(0)), 2);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(envelope.Encode(View(page), ++nonce));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EnvelopeEncode)
    ->Args({8192, 0})   // MAC only
    ->Args({8192, 1})   // compress
    ->Args({8192, 2})   // encrypt
    ->Args({8192, 3});  // C+C

// The zero-copy encode path with compress+encrypt at the three reference
// sizes, reporting per-object encode latency percentiles alongside the
// throughput (both end up in the JSON output).
void BM_EnvelopeEncodeInto(benchmark::State& state) {
  EnvelopeOptions options;
  options.compress = true;
  options.encrypt = true;
  Envelope envelope(options);
  const Bytes page = TpccLikePage(static_cast<std::size_t>(state.range(0)), 3);
  const PayloadView payload = OnePiece(View(page));
  Bytes out;
  std::uint64_t nonce = 0;
  std::vector<double> latencies_us;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    envelope.EncodeInto(payload, ++nonce, out);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(out.data());
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  auto pct = [&](double q) {
    if (latencies_us.empty()) return 0.0;
    const std::size_t at = std::min(
        latencies_us.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(latencies_us.size())));
    return latencies_us[at];
  };
  state.counters["p50_us"] = pct(0.50);
  state.counters["p95_us"] = pct(0.95);
  state.counters["p99_us"] = pct(0.99);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EnvelopeEncodeInto)
    ->Arg(8192)
    ->Arg(256 * 1024)
    ->Arg(4 * 1024 * 1024);

void BM_WalAppend(benchmark::State& state) {
  const DbLayout layout =
      state.range(0) == 0 ? DbLayout::Postgres() : DbLayout::MySql();
  auto fs = std::make_shared<MemFs>();
  WalWriter writer(fs, layout, 0);
  WalRecord put;
  put.type = WalRecordType::kPut;
  put.table = "customer";
  put.key = "c:1:2:345";
  put.value = Bytes(500, 'x');
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  std::uint64_t txn = 0;
  for (auto _ : state) {
    put.txn_id = commit.txn_id = ++txn;
    benchmark::DoNotOptimize(writer.AppendAndSync({put, commit}));
  }
  state.SetLabel(layout.Name());
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1);

// Cold redo: Database::Open of a fixed image — a TPC-C population and a
// checkpoint (the table pages to load), then 3000 committed transactions
// (the WAL to replay). rows/s counts the rows the opened tables hold.
void BM_DatabaseOpen(benchmark::State& state) {
  const DbLayout layout = DbLayout::Postgres();
  auto fs = std::make_shared<MemFs>();
  {
    Database db(fs, layout);
    if (!db.Create().ok()) state.SkipWithError("create failed");
    TpccConfig config;
    config.scale = 20;
    TpccWorkload tpcc(&db, config);
    if (!tpcc.Populate().ok() || !db.Checkpoint().ok()) {
      state.SkipWithError("populate failed");
    }
    SplitMix64 rng(7);
    for (int i = 0; i < 3000; ++i) {
      const Status st = tpcc.Execute(tpcc.PickType(rng), rng);
      if (!st.ok() && st.code() != ErrorCode::kAborted) {  // 1% rollbacks
        state.SkipWithError("transaction failed");
        break;
      }
    }
  }
  std::uint64_t rows = 0;
  for (auto _ : state) {
    Database db(fs, layout);
    if (!db.Open().ok()) {
      state.SkipWithError("open failed");
      break;
    }
    rows = 0;
    for (const auto& table : db.TableNames()) rows += db.RowCount(table);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(rows) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DatabaseOpen)->Unit(benchmark::kMillisecond);

// Cold restore, Ginja's half: Ginja::Recover of a fixed TPC-C bucket (a
// dump, then 3000 transactions of WAL objects; compressed and encrypted)
// from a zero-latency MemoryStore into a fresh MemFs, at K = range(0)
// GETs in flight. bytes_per_second counts decoded payload bytes.
void BM_ApplyTailPlan(benchmark::State& state) {
  const DbLayout layout = DbLayout::Postgres();
  auto store = std::make_shared<MemoryStore>();
  GinjaConfig config;
  config.envelope.compress = true;
  config.envelope.encrypt = true;
  {
    auto clock = std::make_shared<RealClock>();
    auto local = std::make_shared<MemFs>();
    auto intercept = std::make_shared<InterceptFs>(local, clock);
    Database db(intercept, layout);
    if (!db.Create().ok()) state.SkipWithError("create failed");
    Ginja ginja(local, store, clock, layout, config);
    if (!ginja.Boot().ok()) state.SkipWithError("boot failed");
    intercept->SetListener(&ginja);
    TpccConfig tpcc_config;
    tpcc_config.scale = 20;
    TpccWorkload tpcc(&db, tpcc_config);
    if (!tpcc.Populate().ok() || !db.Checkpoint().ok()) {
      state.SkipWithError("populate failed");
    }
    SplitMix64 rng(7);
    for (int i = 0; i < 3000; ++i) {
      const Status st = tpcc.Execute(tpcc.PickType(rng), rng);
      if (!st.ok() && st.code() != ErrorCode::kAborted) {  // 1% rollbacks
        state.SkipWithError("transaction failed");
        break;
      }
    }
    ginja.Stop();
    intercept->SetListener(nullptr);
  }
  Envelope envelope(config.envelope);
  std::uint64_t decoded = 0;
  auto objects = store->List("");
  if (objects.ok()) {
    for (const auto& meta : *objects) {
      auto payload = envelope.Decode(View(*store->Get(meta.name)));
      if (payload.ok()) decoded += payload->size();
    }
  }
  config.recovery_prefetch = static_cast<int>(state.range(0));
  std::uint64_t objects_applied = 0;
  for (auto _ : state) {
    auto target = std::make_shared<MemFs>();
    RecoveryReport report;
    if (!Ginja::Recover(store, config, layout, target, &report).ok()) {
      state.SkipWithError("recover failed");
      break;
    }
    objects_applied = report.objects_downloaded;
  }
  state.counters["objects"] = static_cast<double>(objects_applied);
  state.SetBytesProcessed(static_cast<std::int64_t>(decoded) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ApplyTailPlan)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Batch coalescing (Alg. 2 lines 12-13): the reusable open-addressed
// CoalesceTable vs the std::map it replaced. range(0) = writes per batch,
// range(1) = distinct (file, offset) pages those writes rewrite.
struct CoalesceInput {
  std::vector<std::string> files;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> writes;  // file, offset
};

CoalesceInput MakeCoalesceInput(std::size_t batch, std::size_t pages) {
  CoalesceInput input;
  for (int f = 0; f < 3; ++f) {
    input.files.push_back("pg_xlog/0000000100000000000000" +
                          std::to_string(10 + f));
  }
  SplitMix64 rng(42);
  input.writes.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const std::uint64_t page = rng.NextBelow(pages);
    input.writes.emplace_back(
        static_cast<std::uint32_t>(page % input.files.size()), page * 8192);
  }
  return input;
}

void BM_CoalesceBatchTable(benchmark::State& state) {
  const auto input =
      MakeCoalesceInput(static_cast<std::size_t>(state.range(0)),
                        static_cast<std::size_t>(state.range(1)));
  CoalesceTable table;
  for (auto _ : state) {
    table.Begin(input.writes.size());
    std::uint32_t i = 0;
    for (const auto& [file, offset] : input.writes) {
      table.Upsert(input.files[file], offset, i++);
    }
    benchmark::DoNotOptimize(table.Size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CoalesceBatchTable)
    ->Args({1000, 32})
    ->Args({1000, 1024})
    ->Args({100, 16});

void BM_CoalesceBatchMap(benchmark::State& state) {
  const auto input =
      MakeCoalesceInput(static_cast<std::size_t>(state.range(0)),
                        static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    std::map<std::pair<std::string_view, std::uint64_t>, std::uint32_t>
        coalesced;
    std::uint32_t i = 0;
    for (const auto& [file, offset] : input.writes) {
      coalesced[{input.files[file], offset}] = i++;
    }
    benchmark::DoNotOptimize(coalesced.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CoalesceBatchMap)
    ->Args({1000, 32})
    ->Args({1000, 1024})
    ->Args({100, 16});

// -- observability primitives -------------------------------------------------

// The lock-free Histogram under contention: every pipeline stat and trace
// stage records through this path, so it must scale with recorder threads.
void BM_HistogramRecord(benchmark::State& state) {
  static Histogram hist;  // shared across the benchmark's threads
  double v = 1;
  for (auto _ : state) {
    hist.Record(v);
    v = v < 4096 ? v * 1.37 : 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord)->Threads(1)->Threads(4);

void BM_MeterRecord(benchmark::State& state) {
  static Meter meter;
  double v = 1;
  for (auto _ : state) {
    meter.Record(v);
    v = v < 65536 ? v * 2 : 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeterRecord)->Threads(1)->Threads(4);

// The sampling decision on the submit path (one mix + one modulo).
void BM_TracerSampled(benchmark::State& state) {
  TraceOptions options;
  options.enabled = true;
  options.sample_period = 64;
  WriteTracer tracer(options);
  std::uint64_t id = 0;
  std::size_t hits = 0;
  for (auto _ : state) {
    hits += tracer.Sampled(++id);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerSampled);

// The cost of one sampled span event (histogram + ring under its mutex).
void BM_TracerRecord(benchmark::State& state) {
  TraceOptions options;
  options.enabled = true;
  WriteTracer tracer(options);
  std::uint64_t t = 0;
  for (auto _ : state) {
    tracer.Record(TraceStage::kPut, t, t, 42);
    ++t;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerRecord);

// Concurrent multi-MB GETs against one MemoryStore. Guards the fix where
// Get copied the whole payload while holding the store mutex: recovery
// prefetch and replicated-read fan-out issue exactly this pattern, and the
// under-lock copy serialized them. Scaling from 1 to 8 threads should be
// near-linear now that the lock only covers the map lookup.
void BM_MemoryStoreGetParallel(benchmark::State& state) {
  static std::shared_ptr<MemoryStore> store = [] {
    auto s = std::make_shared<MemoryStore>();
    (void)s->Put("wal/big", Bytes(4u << 20, 'x'));
    return s;
  }();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto blob = store->Get("wal/big");
    bytes += blob.value().size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoryStoreGetParallel)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Concurrent LISTs against one MemoryStore holding many objects. Guards
// the companion fix on List: the matching range is copied under the
// mutex, but the ObjectMeta name strings are built outside it. A fleet
// multiplies this pattern — every tenant's recovery and GC issues LISTs
// against the shared backing store.
void BM_MemoryStoreListParallel(benchmark::State& state) {
  static std::shared_ptr<MemoryStore> store = [] {
    auto s = std::make_shared<MemoryStore>();
    for (int t = 0; t < 16; ++t) {
      for (int i = 0; i < 256; ++i) {
        (void)s->Put("t/" + std::to_string(t) + "/WAL/" + std::to_string(i),
                     Bytes(64, 'x'));
      }
    }
    return s;
  }();
  std::uint64_t names = 0;
  int tenant = 0;
  for (auto _ : state) {
    auto list = store->List("t/" + std::to_string(tenant) + "/");
    names += list.value().size();
    tenant = (tenant + 1) & 15;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(names));
}
BENCHMARK(BM_MemoryStoreListParallel)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// One standby tail poll over a bucket of N WAL objects: a full prefix
// re-list (what polling cost before the start-after cursor) versus a
// cursor list positioned at the frontier with only a handful of new
// objects behind it. The cursor turns each poll from O(bucket) into
// O(new) — the difference grows linearly with N, which is exactly the
// curve a long-lived standby rides as the bucket fills.
void BM_MemoryStoreListCursor(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool use_cursor = state.range(1) != 0;
  auto store = std::make_shared<MemoryStore>();
  // Timestamps span [n, 2n): one digit width throughout (n is a power of
  // two), the steady state of a bucket that has lived past a digit
  // rollover — so the cursor isolates exactly the new tail. (Across a
  // width change the cursor over-returns and the consumer re-filters;
  // StandbyReplica documents that hazard.)
  for (int i = n; i < 2 * n; ++i) {
    (void)store->Put("WAL/" + std::to_string(i) + "_seg_0_" +
                         std::to_string(i + 1),
                     Bytes(64, 'x'));
  }
  // The frontier sits 4 objects from the end, as a caught-up tail's does.
  const std::string cursor = "WAL/" + std::to_string(2 * n - 4);
  std::uint64_t names = 0;
  for (auto _ : state) {
    auto list =
        use_cursor ? store->List("WAL/", cursor) : store->List("WAL/");
    names += list.value().size();
  }
  benchmark::DoNotOptimize(names);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(use_cursor ? "cursor" : "full");
}
BENCHMARK(BM_MemoryStoreListCursor)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({16384, 0})
    ->Args({16384, 1});

// End-to-end Submit ingest with the tracer in each of its three states:
//   0 = no Observability bundle attached at all
//   1 = bundle attached, tracer disabled (the production default)
//   2 = tracing at 1/64 sampling
//   3 = tracing every write
// The acceptance bar: 2 costs < 3% over 0, and 1 is indistinguishable.
void BM_SubmitIngest(benchmark::State& state) {
  GinjaConfig config;
  config.batch = 64;
  config.safety = 1u << 30;  // never block: measure ingest, not the cloud
  config.uploader_threads = 2;
  std::shared_ptr<Observability> obs;
  if (state.range(0) > 0) {
    TraceOptions trace;
    trace.enabled = state.range(0) >= 2;
    trace.sample_period = state.range(0) == 3 ? 1 : 64;
    obs = std::make_shared<Observability>(trace);
    config.obs = obs;
  }
  auto store = std::make_shared<MemoryStore>();
  auto view = std::make_shared<CloudView>();
  auto clock = std::make_shared<RealClock>();
  auto envelope = std::make_shared<Envelope>(EnvelopeOptions{});
  CommitPipeline pipeline(store, view, clock, config, envelope);
  pipeline.Start();

  WalWrite proto;
  proto.file = "pg_xlog/000000010000000000000010";
  proto.data = Bytes(512, 'x');
  std::uint64_t i = 0;
  for (auto _ : state) {
    WalWrite w = proto;
    w.offset = (i % 1024) * 8192;
    w.max_lsn = ++i * 10;
    pipeline.Submit(std::move(w));
  }
  state.SetItemsProcessed(state.iterations());
  pipeline.Stop();
}
BENCHMARK(BM_SubmitIngest)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kNanosecond);

}  // namespace
}  // namespace ginja

BENCHMARK_MAIN();
