#include <gtest/gtest.h>

#include "fs/mem_fs.h"
#include "workload/driver.h"
#include "workload/tpcc.h"

namespace ginja {
namespace {

struct TpccFixture {
  std::shared_ptr<MemFs> fs = std::make_shared<MemFs>();
  std::unique_ptr<Database> db;
  std::unique_ptr<TpccWorkload> workload;

  explicit TpccFixture(TpccConfig config = {}) {
    db = std::make_unique<Database>(fs, DbLayout::Postgres());
    EXPECT_TRUE(db->Create().ok());
    workload = std::make_unique<TpccWorkload>(db.get(), config);
    EXPECT_TRUE(workload->Populate().ok());
  }
};

TEST(Tpcc, PopulateCreatesSchemaAndRows) {
  TpccConfig config;
  config.warehouses = 2;
  TpccFixture fx(config);
  for (const char* table : {"warehouse", "district", "customer", "item", "stock"}) {
    EXPECT_TRUE(fx.db->HasTable(table)) << table;
  }
  EXPECT_EQ(fx.db->RowCount("warehouse"), 2u);
  // Districts plus the delivery-frontier rows.
  EXPECT_EQ(fx.db->RowCount("district"), 2u * 10u * 2u);
  EXPECT_EQ(fx.db->RowCount("item"), static_cast<std::uint64_t>(config.Items()));
  EXPECT_EQ(fx.db->RowCount("stock"), 2u * config.Items());
  EXPECT_EQ(fx.db->RowCount("customer"),
            2u * 10u * config.CustomersPerDistrict());
}

TEST(Tpcc, MixMatchesSpec) {
  TpccFixture fx;
  SplitMix64 rng(1);
  int counts[5] = {};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    counts[static_cast<int>(fx.workload->PickType(rng))]++;
  }
  EXPECT_NEAR(counts[0] / double(n), 0.45, 0.02);  // NewOrder
  EXPECT_NEAR(counts[1] / double(n), 0.43, 0.02);  // Payment
  EXPECT_NEAR(counts[2] / double(n), 0.04, 0.01);  // OrderStatus
  EXPECT_NEAR(counts[3] / double(n), 0.04, 0.01);  // Delivery
  EXPECT_NEAR(counts[4] / double(n), 0.04, 0.01);  // StockLevel
}

TEST(Tpcc, NewOrderAdvancesDistrictCounter) {
  TpccFixture fx;
  SplitMix64 rng(2);
  std::uint64_t executed = 0;
  for (int i = 0; i < 50; ++i) {
    Status st = fx.workload->Execute(TpccWorkload::TxnType::kNewOrder, rng);
    if (st.ok()) ++executed;
    else EXPECT_EQ(st.code(), ErrorCode::kAborted);  // the 1% rollback
  }
  EXPECT_GT(executed, 40u);
  EXPECT_GT(fx.db->RowCount("orders"), 0u);
  EXPECT_GT(fx.db->RowCount("orderline"), 0u);
  EXPECT_EQ(fx.db->RowCount("orders"), fx.db->RowCount("neworder"));
}

TEST(Tpcc, PaymentWritesHistory) {
  TpccFixture fx;
  SplitMix64 rng(3);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fx.workload->Execute(TpccWorkload::TxnType::kPayment, rng).ok());
  }
  EXPECT_EQ(fx.db->RowCount("history"), 20u);
}

TEST(Tpcc, DeliveryConsumesNewOrders) {
  TpccFixture fx;
  SplitMix64 rng(4);
  for (int i = 0; i < 40; ++i) {
    (void)fx.workload->Execute(TpccWorkload::TxnType::kNewOrder, rng);
  }
  const std::uint64_t pending_before = fx.db->RowCount("neworder");
  ASSERT_GT(pending_before, 0u);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fx.workload->Execute(TpccWorkload::TxnType::kDelivery, rng).ok());
  }
  EXPECT_LT(fx.db->RowCount("neworder"), pending_before);
}

TEST(Tpcc, ReadOnlyTypesDontGrowState) {
  TpccFixture fx;
  SplitMix64 rng(5);
  for (int i = 0; i < 20; ++i) {
    (void)fx.workload->Execute(TpccWorkload::TxnType::kNewOrder, rng);
  }
  const Lsn wal_before = fx.db->WalEndLsn();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        fx.workload->Execute(TpccWorkload::TxnType::kOrderStatus, rng).ok());
    ASSERT_TRUE(
        fx.workload->Execute(TpccWorkload::TxnType::kStockLevel, rng).ok());
  }
  EXPECT_EQ(fx.db->WalEndLsn(), wal_before);
}

TEST(Tpcc, WorkloadIsUpdateHeavy) {
  // The paper picked TPC-C for its ~90% update transactions; verify the mix
  // actually commits WAL bytes for the vast majority of transactions.
  TpccFixture fx;
  TpccRunOptions options;
  options.terminals = 2;
  options.wall_seconds = 0.3;
  const auto result = RunTpcc(*fx.workload, options);
  EXPECT_GT(result.total_txns, 50u);
  EXPECT_GT(result.TpmC(), 0.0);
  EXPECT_GT(result.TpmTotal(), result.TpmC());
}

TEST(Tpcc, MaxTxnsEndsTheRunAfterThatManyTransactions) {
  TpccFixture fx;
  TpccRunOptions options;
  options.terminals = 3;
  options.wall_seconds = 600;  // ignored once max_txns is set
  options.max_txns = 200;
  const auto result = RunTpcc(*fx.workload, options);
  EXPECT_EQ(result.total_txns + result.aborted_txns, 200u);

  // One terminal and a fixed count: two runs leave the same database.
  Lsn wal_end[2];
  std::uint64_t orders[2];
  for (int run = 0; run < 2; ++run) {
    TpccFixture single;
    options.terminals = 1;
    (void)RunTpcc(*single.workload, options);
    wal_end[run] = single.db->WalEndLsn();
    orders[run] = single.db->RowCount("orders");
  }
  EXPECT_EQ(wal_end[0], wal_end[1]);
  EXPECT_EQ(orders[0], orders[1]);
}

TEST(Tpcc, SurvivesCrashRecovery) {
  TpccFixture fx;
  SplitMix64 rng(6);
  for (int i = 0; i < 60; ++i) {
    (void)fx.workload->Execute(fx.workload->PickType(rng), rng);
  }
  const std::uint64_t orders = fx.db->RowCount("orders");
  const std::uint64_t history = fx.db->RowCount("history");
  fx.db.reset();  // crash

  Database recovered(fx.fs, DbLayout::Postgres());
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.RowCount("orders"), orders);
  EXPECT_EQ(recovered.RowCount("history"), history);
}

TEST(SimpleUpdates, GeneratesExactCount) {
  auto fs = std::make_shared<MemFs>();
  Database db(fs, DbLayout::Postgres());
  ASSERT_TRUE(db.Create().ok());
  ASSERT_TRUE(db.CreateTable("updates").ok());
  ASSERT_TRUE(RunSimpleUpdates(db, "updates", 100, 200).ok());
  EXPECT_EQ(db.CommittedTxns(), 100u);
}

}  // namespace
}  // namespace ginja
