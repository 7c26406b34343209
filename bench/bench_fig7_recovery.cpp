// Figure 7: recovery time after a failure during TPC-C, as a function of
// database size (number of warehouses), recovering (a) to an on-premises
// server over the WAN and (b) to an EC2 VM colocated with the bucket —
// plus a prefetch sweep (K = GETs in flight) over the windowed recovery
// pipeline. K=1 is the paper's serial download loop.
//
// `--warm-replica` instead measures the warm-standby path: a StandbyReplica
// tails the bucket during the workload, then promotion RTO (fence + drain
// the residual tail) is compared against cold replay of the same bucket.
// The run fails (non-zero exit) unless promotion at 10 warehouses is at
// least 20x faster than cold replay, RTO stays flat across database sizes,
// and the applied-frontier lag stayed bounded while tailing.
#include "bench_common.h"

#include <cstring>
#include <vector>

#include "ginja/standby.h"

using namespace ginja;
using namespace ginja::bench;

namespace {

constexpr double kModelSeconds = 20.0;
// The recovery sweep recovers what a fixed number of TPC-C transactions
// from one terminal left behind (one terminal, so the checkpoints every
// 400 of its transactions fall at the same points), so that every run,
// and a before/after pair of builds, recovers a bucket of the same size.
constexpr std::uint64_t kSweepTxns = 2000;

// Recovery is measured as scaled wall-clock (report.duration_micros on a
// ScaledClock), not the old `GET count × mean latency` formula — the
// formula assumed sequential downloads and would mis-report any overlap.
// A smaller scale than the workload's kTimeScale keeps host-CPU time
// (decode/decompress, inflated ×scale in model time) from contaminating
// the network-dominated measurement on small machines.
constexpr double kRecoveryTimeScale = 5.0;

struct RecoveryResult {
  double minutes = 0;
  std::uint64_t bytes = 0;
  std::uint64_t objects = 0;
};

RecoveryResult RecoverWith(ObjectStorePtr raw, GinjaConfig config,
                           const DbLayout& layout, LatencyParams latency,
                           int prefetch) {
  config.recovery_prefetch = prefetch;
  auto clock = std::make_shared<ScaledClock>(kRecoveryTimeScale);
  auto latency_model = std::make_shared<LatencyModel>(latency, clock);
  auto metered = std::make_shared<MeteredStore>(raw, clock, latency_model);
  auto target = std::make_shared<MemFs>();
  RecoveryReport report;
  Status st =
      Ginja::Recover(metered, config, layout, target, &report, std::nullopt, clock);
  if (!st.ok()) return {};
  // Restarting the DBMS (engine redo) is part of the recovery path.
  Database db(target, layout);
  (void)db.Open();
  RecoveryResult result;
  result.minutes = static_cast<double>(report.duration_micros) / 60e6;
  result.bytes = report.bytes_downloaded;
  result.objects = report.objects_downloaded;
  return result;
}

// Warm-standby comparison: attach a tailing replica for the whole TPC-C
// run, promote it at disaster time, and put the promotion RTO next to a
// cold replay of the very same bucket. Returns the process exit code.
int RunWarmReplicaBench() {
  PrintHeader("Figure 7 (warm) — standby promotion RTO vs. cold replay");

  GinjaConfig config;
  config.batch = 100;
  config.safety = 1000;
  config.batch_timeout_us = 1'000'000;
  config.safety_timeout_us = 30'000'000;

  // Applied-frontier lag must stay below one safety window's worth of
  // objects; in practice it is a handful (out-of-order upload landings).
  constexpr std::uint64_t kLagBoundObjects = 32;
  constexpr double kMinSpeedupAt10 = 20.0;
  // "Flat across DB sizes": promotion pays O(lag), so RTO at 10 warehouses
  // may not grow anywhere near cold replay's ~linear curve.
  constexpr double kMaxRtoSpread = 5.0;

  bool ok = true;
  std::vector<double> rtos_ms;
  std::printf("%-11s %-11s %-11s %-9s %-9s %-9s\n", "warehouses", "warm(ms)",
              "cold(min)", "speedup", "peak_lag", "residual");

  for (int warehouses : {1, 5, 10}) {
    auto stack = BuildStack(DbFlavor::kPostgres, Mode::kGinja, config,
                            warehouses, LatencyParams::WanS3(),
                            /*tpcc_scale=*/20);
    if (!stack) continue;

    // The standby tails the same latency-modelled bucket on the same
    // model clock, so lag and RTO come out in model time like everything
    // else this bench reports.
    StandbyOptions tail;
    tail.poll_interval_us = 10'000;
    StandbyReplica standby(stack->store, config, stack->clock, tail);
    if (!standby.Start().ok()) {
      std::fprintf(stderr, "standby bootstrap failed\n");
      return 1;
    }

    (void)RunTpccBench(*stack, kModelSeconds);
    stack->ginja->Drain();
    const auto last_ts = stack->ginja->cloud_view().LastAssignedWalTs();
    for (int i = 0; i < 20'000 && last_ts &&
                    (standby.lag_objects() > 0 ||
                     standby.next_ts() < *last_ts + 1);
         ++i) {
      stack->clock->SleepMicros(5'000);
    }
    stack->ginja->Stop();  // the primary site is gone

    auto promotion = standby.Promote();
    if (!promotion.ok()) {
      std::fprintf(stderr, "promotion failed: %s\n",
                   promotion.status().ToString().c_str());
      return 1;
    }
    const double warm_ms =
        static_cast<double>(promotion->rto_micros) / 1e3;
    const std::uint64_t peak_lag = standby.peak_lag_objects();
    const std::uint64_t residual =
        promotion->residual_wal_objects + promotion->residual_tail_segments;

    auto raw = stack->raw_store;
    const DbLayout layout = stack->db->layout();
    stack.reset();
    // Cold replay the paper's way: the serial download loop (K=1) over the
    // WAN — the disaster-time baseline the warm standby replaces.
    const RecoveryResult cold =
        RecoverWith(raw, config, layout, LatencyParams::WanS3(),
                    /*prefetch=*/1);
    const double cold_ms = cold.minutes * 60e3;
    const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;

    std::printf("%-11d %-11.2f %-11.2f %-9.1f %-9llu %-9llu\n", warehouses,
                warm_ms, cold.minutes, speedup,
                static_cast<unsigned long long>(peak_lag),
                static_cast<unsigned long long>(residual));
    JsonLine("fig7_warm")
        .Field("warehouses", warehouses)
        .Field("warm_rto_ms", warm_ms)
        .Field("cold_model_minutes", cold.minutes)
        .Field("speedup_vs_cold", speedup)
        .Field("peak_lag_objects", peak_lag)
        .Field("residual_objects", residual)
        .Field("resynced", promotion->resynced ? 1 : 0)
        .Emit();

    rtos_ms.push_back(warm_ms);
    if (peak_lag > kLagBoundObjects) {
      std::fprintf(stderr,
                   "FAIL: peak applied-frontier lag %llu > bound %llu at "
                   "%d warehouses\n",
                   static_cast<unsigned long long>(peak_lag),
                   static_cast<unsigned long long>(kLagBoundObjects),
                   warehouses);
      ok = false;
    }
    if (warehouses == 10 && speedup < kMinSpeedupAt10) {
      std::fprintf(stderr,
                   "FAIL: promotion speedup %.1fx < required %.0fx at 10 "
                   "warehouses\n",
                   speedup, kMinSpeedupAt10);
      ok = false;
    }
  }

  if (rtos_ms.size() >= 2) {
    const double lo = *std::min_element(rtos_ms.begin(), rtos_ms.end());
    const double hi = *std::max_element(rtos_ms.begin(), rtos_ms.end());
    if (lo > 0 && hi / lo > kMaxRtoSpread) {
      std::fprintf(stderr,
                   "FAIL: promotion RTO not flat across sizes "
                   "(%.2fms .. %.2fms, spread %.1fx > %.1fx)\n",
                   lo, hi, hi / lo, kMaxRtoSpread);
      ok = false;
    }
  }

  std::printf(
      "\nExpected shape: cold replay grows with database size; warm-standby\n"
      "promotion pays only the residual tail (O(lag)), so its RTO stays in\n"
      "the millisecond range and flat across sizes.\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--warm-replica") == 0) {
      return RunWarmReplicaBench();
    }
  }
  PrintHeader("Figure 7 — recovery time vs. database size (TPC-C warehouses)");

  GinjaConfig config;
  config.batch = 100;
  config.safety = 1000;
  config.batch_timeout_us = 1'000'000;
  config.safety_timeout_us = 30'000'000;

  const int kSweep[] = {1, 4, 16};
  std::printf("%-11s %-9s %-12s", "warehouses", "objects", "downloaded");
  for (int k : kSweep) std::printf(" wan(K=%-2d)", k);
  for (int k : kSweep) std::printf(" ec2(K=%-2d)", k);
  std::printf("   [model-minutes]\n");

  for (int warehouses : {1, 5, 10}) {
    auto stack = BuildStack(DbFlavor::kPostgres, Mode::kGinja, config,
                            warehouses, LatencyParams::WanS3(),
                            /*tpcc_scale=*/20);  // denser DB, as in Fig. 7
    if (!stack) continue;
    (void)RunTpccBench(*stack, kModelSeconds, /*terminals=*/1, kSweepTxns);
    stack->ginja->Drain();
    stack->ginja->Stop();
    auto raw = stack->raw_store;
    const DbLayout layout = stack->db->layout();
    stack.reset();  // the primary site is gone

    RecoveryResult wan[3], ec2[3];
    for (int i = 0; i < 3; ++i) {
      wan[i] = RecoverWith(raw, config, layout, LatencyParams::WanS3(),
                           kSweep[i]);
      ec2[i] = RecoverWith(raw, config, layout, LatencyParams::Ec2Colocated(),
                           kSweep[i]);
    }

    std::printf("%-11d %-9llu %-12s", warehouses,
                static_cast<unsigned long long>(wan[0].objects),
                HumanBytes(static_cast<double>(wan[0].bytes)).c_str());
    for (int i = 0; i < 3; ++i) std::printf(" %-9.2f", wan[i].minutes);
    for (int i = 0; i < 3; ++i) std::printf(" %-9.2f", ec2[i].minutes);
    std::printf("\n");

    for (int i = 0; i < 3; ++i) {
      for (const char* profile : {"wan", "ec2"}) {
        const RecoveryResult& r = profile[0] == 'w' ? wan[i] : ec2[i];
        const RecoveryResult& base = profile[0] == 'w' ? wan[0] : ec2[0];
        JsonLine("fig7")
            .Field("warehouses", warehouses)
            .Field("profile", profile)
            .Field("k", kSweep[i])
            .Field("model_minutes", r.minutes)
            .Field("objects", r.objects)
            .Field("bytes", r.bytes)
            .Field("speedup_vs_k1",
                   r.minutes > 0 ? base.minutes / r.minutes : 0.0)
            .Emit();
      }
    }
  }

  std::printf(
      "\nExpected shape (paper Section 8.3): recovery time grows with the\n"
      "database size; recovering into a VM colocated with the bucket is\n"
      "dramatically faster (and free of egress charges). The K sweep shows\n"
      "the windowed prefetcher collapsing the per-object WAN round-trips;\n"
      "K=1 reproduces the paper's serial loop.\n");
  return 0;
}
