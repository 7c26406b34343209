// Point-in-time recovery against ransomware (paper §5.4: "fundamental for
// ensuring some protection against operator mistakes and even ransomware
// attacks, such as the recent WannaCry virus").
//
//   $ ./examples/ransomware_rewind
//
// With a "keep every point" retention policy, Ginja's garbage collector
// retains superseded objects, so the database can be rewound to any
// earlier WAL timestamp — even after the attacker's writes were themselves
// faithfully replicated.
#include <cstdio>

#include "cloud/memory_store.h"
#include "db/database.h"
#include "fs/intercept_fs.h"
#include "fs/mem_fs.h"
#include "ginja/ginja.h"

using namespace ginja;

namespace {

void PrintSample(Database& db, const char* label) {
  auto v = db.Get("documents", "doc-7");
  std::printf("%-28s doc-7 = %s\n", label,
              v ? ToString(View(*v)).c_str() : "<missing>");
}

}  // namespace

int main() {
  auto clock = std::make_shared<RealClock>();
  auto disk = std::make_shared<MemFs>();
  auto intercept = std::make_shared<InterceptFs>(disk, clock);
  auto cloud = std::make_shared<MemoryStore>();

  const DbLayout layout = DbLayout::Postgres();
  Database db(intercept, layout);
  if (!db.Create().ok() || !db.CreateTable("documents").ok()) return 1;

  GinjaConfig config;
  config.batch = 4;
  config.safety = 50;

  Ginja ginja(disk, cloud, clock, layout, config);
  ginja.retention().KeepEveryPoint();  // the PITR switch
  if (!ginja.Boot().ok()) return 1;
  intercept->SetListener(&ginja);

  // Months of legitimate work...
  for (int i = 0; i < 200; ++i) {
    auto txn = db.Begin();
    (void)db.Put(txn, "documents", "doc-" + std::to_string(i % 50),
                 ToBytes("contract rev " + std::to_string(i / 50 + 1)));
    if (!db.Commit(txn).ok()) return 1;
  }
  (void)db.Checkpoint();
  ginja.Drain();
  PrintSample(db, "before the attack:");

  // Remember "last night's" position — in production you would record the
  // highest WAL timestamp periodically (it is just a number).
  const std::uint64_t last_good_ts =
      ginja.cloud_view().LastAssignedWalTs().value_or(0);
  std::printf("recovery point: WAL timestamp %llu\n",
              static_cast<unsigned long long>(last_good_ts));

  // The attack: every document encrypted, and — because Ginja is faithful —
  // every malicious write is replicated to the cloud too.
  std::printf("\n*** ransomware encrypts all 50 documents ***\n\n");
  for (int i = 0; i < 50; ++i) {
    auto txn = db.Begin();
    (void)db.Put(txn, "documents", "doc-" + std::to_string(i),
                 ToBytes("PAY 3 BTC TO DECRYPT"));
    if (!db.Commit(txn).ok()) return 1;
  }
  (void)db.Checkpoint();
  ginja.Drain();
  PrintSample(db, "after the attack:");
  ginja.Stop();

  // A naive full recovery restores the damage:
  {
    auto machine = std::make_shared<MemFs>();
    if (!Ginja::Recover(cloud, config, layout, machine).ok()) return 1;
    Database naive(machine, layout);
    if (!naive.Open().ok()) return 1;
    PrintSample(naive, "full recovery (latest):");
  }

  // Point-in-time recovery rewinds past it:
  auto machine = std::make_shared<MemFs>();
  RecoveryReport report;
  if (!Ginja::Recover(cloud, config, layout, machine, &report, last_good_ts)
           .ok()) {
    return 1;
  }
  Database rewound(machine, layout);
  if (!rewound.Open().ok()) return 1;
  PrintSample(rewound, "PITR to last-good ts:");

  auto v = rewound.Get("documents", "doc-7");
  const bool saved = v && ToString(View(*v)).starts_with("contract");
  std::printf("\n%s\n", saved ? "data rescued without paying the ransom"
                              : "PITR FAILED");
  return saved ? 0 : 1;
}
