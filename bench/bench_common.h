// Shared harness for the paper-reproduction benchmarks.
//
// Builds the full stack — engine + InterceptFs (FUSE model) + Ginja +
// metered/latency-modelled cloud — on a ScaledClock so that minutes of
// model time collapse into wall-seconds. All latencies reported by the
// benches are *model* values (unscaled), directly comparable to the
// paper's milliseconds.
//
// Calibration (model time):
//   * a durable local write (fsync on the 15k-RPM disk of the paper's
//     testbed) costs kFsyncUs;
//   * the FUSE user-space hop costs kFuseOverheadUs per operation — chosen
//     so the FUSE-only baseline lands near the paper's 7–12% loss;
//   * cloud latency follows LatencyParams::WanS3(), fitted to Table 3.
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "cloud/memory_store.h"
#include "cloud/metered_store.h"
#include "db/database.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"
#include "ginja/ginja.h"
#include "workload/driver.h"
#include "workload/tpcc.h"

namespace ginja::bench {

// Chosen so that the modelled latencies (fsync, FUSE hop, WAN PUT), not the
// host's CPU speed, dominate the simulated timeline on a small machine.
constexpr double kTimeScale = 25.0;  // model-us per wall-us
constexpr std::uint64_t kFsyncUs = 2'000;  // durable local write
constexpr std::uint64_t kFuseOverheadUs = 150;

enum class Mode { kExt4, kFuse, kGinja };

inline const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kExt4: return "ext4";
    case Mode::kFuse: return "FUSE";
    case Mode::kGinja: return "Ginja";
  }
  return "?";
}

struct Stack {
  std::shared_ptr<ScaledClock> clock;
  std::shared_ptr<MemFs> local;
  std::shared_ptr<InterceptFs> intercept;
  std::shared_ptr<MemoryStore> raw_store;
  std::shared_ptr<MeteredStore> store;
  std::unique_ptr<Database> db;
  std::unique_ptr<TpccWorkload> tpcc;
  std::unique_ptr<Ginja> ginja;

  ~Stack() {
    if (ginja) ginja->Kill();
  }
};

// A Vfs decorator that charges model time for durable (sync) writes —
// the local-disk fsync model shared by every mode.
class FsyncModelFs : public Vfs {
 public:
  FsyncModelFs(VfsPtr inner, std::shared_ptr<Clock> clock)
      : inner_(std::move(inner)), clock_(std::move(clock)) {}

  Status Write(std::string_view path, std::uint64_t offset, ByteView data,
               bool sync) override {
    if (sync) clock_->SleepMicros(kFsyncUs);
    return inner_->Write(path, offset, data, sync);
  }
  Result<Bytes> Read(std::string_view p, std::uint64_t o, std::uint64_t s) override {
    return inner_->Read(p, o, s);
  }
  Result<Bytes> ReadAll(std::string_view p) override { return inner_->ReadAll(p); }
  Result<std::uint64_t> FileSize(std::string_view p) override {
    return inner_->FileSize(p);
  }
  bool Exists(std::string_view p) override { return inner_->Exists(p); }
  Status Truncate(std::string_view p, std::uint64_t s) override {
    return inner_->Truncate(p, s);
  }
  Status Remove(std::string_view p) override { return inner_->Remove(p); }
  Result<std::vector<std::string>> ListFiles(std::string_view p) override {
    return inner_->ListFiles(p);
  }

 private:
  VfsPtr inner_;
  std::shared_ptr<Clock> clock_;
};

inline std::unique_ptr<Stack> BuildStack(DbFlavor flavor, Mode mode,
                                         GinjaConfig config = {},
                                         int warehouses = 1,
                                         LatencyParams latency =
                                             LatencyParams::WanS3(),
                                         int tpcc_scale = 100) {
  auto stack = std::make_unique<Stack>();
  stack->clock = std::make_shared<ScaledClock>(kTimeScale);
  stack->local = std::make_shared<MemFs>();
  auto disk = std::make_shared<FsyncModelFs>(stack->local, stack->clock);
  const std::uint64_t overhead = mode == Mode::kExt4 ? 0 : kFuseOverheadUs;
  stack->intercept =
      std::make_shared<InterceptFs>(disk, stack->clock, overhead);

  const DbLayout layout =
      flavor == DbFlavor::kPostgres ? DbLayout::Postgres() : DbLayout::MySql();
  stack->db = std::make_unique<Database>(stack->intercept, layout);
  if (!stack->db->Create().ok()) return nullptr;

  TpccConfig tpcc_config;
  tpcc_config.warehouses = warehouses;
  tpcc_config.scale = tpcc_scale;
  stack->tpcc = std::make_unique<TpccWorkload>(stack->db.get(), tpcc_config);
  if (!stack->tpcc->Populate().ok()) return nullptr;
  if (!stack->db->Checkpoint().ok()) return nullptr;

  if (mode == Mode::kGinja) {
    stack->raw_store = std::make_shared<MemoryStore>();
    auto latency_model =
        std::make_shared<LatencyModel>(latency, stack->clock);
    stack->store = std::make_shared<MeteredStore>(stack->raw_store,
                                                  stack->clock, latency_model);
    // When the bench shares an Observability bundle, the cloud usage and
    // accrued-dollars gauges ride in the same snapshot as the pipelines'.
    if (config.obs) {
      stack->store->RegisterMetrics(&config.obs->registry,
                                    PriceBook::AmazonS3May2017());
    }
    stack->ginja = std::make_unique<Ginja>(stack->local, stack->store,
                                           stack->clock, layout, config);
    if (!stack->ginja->Boot().ok()) return nullptr;
    stack->intercept->SetListener(stack->ginja.get());
  }
  return stack;
}

struct TpccBenchResult {
  TpccRunResult run;
  double model_seconds = 0;
  // Tpm normalised to model time (comparable to the paper's numbers).
  double TpmTotal() const {
    return model_seconds <= 0 ? 0 : static_cast<double>(run.total_txns) / model_seconds * 60;
  }
  double TpmC() const {
    return model_seconds <= 0 ? 0 : static_cast<double>(run.neworder_txns) / model_seconds * 60;
  }
};

// Runs TPC-C for `model_seconds` of model time with periodic checkpoints
// (the engine checkpoints every ~checkpoint_every_txns transactions on
// terminal 0, standing in for the DBMS's background checkpointer). With
// `max_txns` set it runs exactly that many transactions instead, without
// the timed warmup, so the run's size does not depend on the host's speed.
inline TpccBenchResult RunTpccBench(Stack& stack, double model_seconds,
                                    int terminals = 5,
                                    std::uint64_t max_txns = 0) {
  TpccRunOptions options;
  options.terminals = terminals;
  options.wall_seconds = model_seconds / kTimeScale;
  options.max_txns = max_txns;
  options.tick_every_txns = 400;
  Database* db = stack.db.get();
  const bool fuzzy = db->layout().flavor == DbFlavor::kMySql;
  options.tick = [db, fuzzy] {
    if (fuzzy) {
      (void)db->FuzzyFlush();
    } else {
      (void)db->Checkpoint();
    }
  };
  // Short warmup (discarded): first-touch allocation, cache fill, and the
  // first checkpoint happen outside the measured window.
  if (max_txns == 0) {
    TpccRunOptions warmup = options;
    warmup.wall_seconds = std::min(0.3, options.wall_seconds / 4);
    (void)RunTpcc(*stack.tpcc, warmup);
  }

  TpccBenchResult result;
  const std::uint64_t start = stack.clock->NowMicros();
  result.run = RunTpcc(*stack.tpcc, options);
  result.model_seconds =
      static_cast<double>(stack.clock->NowMicros() - start) / 1e6;
  return result;
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

// Machine-readable result line, one JSON object per measurement:
//   BENCH_fig7 {"warehouses":10,"profile":"wan","k":16,"model_minutes":0.07}
// CI greps for the `BENCH_<name> ` prefix and parses the rest as JSON.
class JsonLine {
 public:
  explicit JsonLine(std::string name) : name_(std::move(name)) {}

  JsonLine& Field(const char* key, const std::string& value) {
    Key(key);
    body_ += '"';
    body_ += value;  // benchmark labels only: no escaping needed
    body_ += '"';
    return *this;
  }
  JsonLine& Field(const char* key, const char* value) {
    return Field(key, std::string(value));
  }
  JsonLine& Field(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    Key(key);
    body_ += buf;
    return *this;
  }
  JsonLine& Field(const char* key, std::uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    Key(key);
    body_ += buf;
    return *this;
  }
  JsonLine& Field(const char* key, int value) {
    return Field(key, static_cast<std::uint64_t>(value));
  }

  void Emit() const { std::printf("BENCH_%s {%s}\n", name_.c_str(), body_.c_str()); }

 private:
  void Key(const char* key) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
  }
  std::string name_;
  std::string body_;
};

}  // namespace ginja::bench
