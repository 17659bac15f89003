#include "cellsim/mfc.hpp"

#include <gtest/gtest.h>

namespace cbe::cell {
namespace {

const CellParams kParams;

TEST(MfcRules, ListEntriesCeil) {
  EXPECT_EQ(MfcRules::list_entries(0, kParams), 0);
  EXPECT_EQ(MfcRules::list_entries(1, kParams), 1);
  EXPECT_EQ(MfcRules::list_entries(16 * 1024, kParams), 1);
  EXPECT_EQ(MfcRules::list_entries(16 * 1024 + 1, kParams), 2);
  EXPECT_EQ(MfcRules::list_entries(160 * 1024, kParams), 10);
}

TEST(MfcRules, NaiveChunksAreSmall) {
  EXPECT_EQ(MfcRules::naive_chunks(0), 0);
  EXPECT_EQ(MfcRules::naive_chunks(1), 1);
  EXPECT_EQ(MfcRules::naive_chunks(2048), 1);
  EXPECT_EQ(MfcRules::naive_chunks(2049), 2);
  EXPECT_GT(MfcRules::naive_chunks(64 * 1024),
            MfcRules::list_entries(64 * 1024, kParams));
}

TEST(Mfc, ZeroBytesIsFree) {
  Mfc mfc(kParams);
  EXPECT_EQ(mfc.transfer_time(0.0, 1, 1, false), sim::Time());
}

TEST(Mfc, TimeGrowsWithBytes) {
  Mfc mfc(kParams);
  const auto t1 = mfc.transfer_time(16 * 1024, 1, 1, false);
  const auto t2 = mfc.transfer_time(64 * 1024, 4, 1, false);
  EXPECT_GT(t2, t1);
}

TEST(Mfc, SetupCostPerChunk) {
  Mfc mfc(kParams);
  const auto aggregated = mfc.transfer_time(32 * 1024, 2, 1, false);
  const auto naive = mfc.transfer_time(32 * 1024, 16, 1, false);
  EXPECT_EQ((naive - aggregated).nanoseconds(),
            14 * kParams.dma_setup.nanoseconds());
}

TEST(Mfc, CongestionDividesBandwidth) {
  Mfc mfc(kParams);
  const auto solo = mfc.transfer_time(64 * 1024, 4, 1, false);
  const auto shared8 = mfc.transfer_time(64 * 1024, 4, 8, false);
  EXPECT_GT(shared8, solo);
  // With 8 clients the share (19/8 GB/s) is below the per-SPE cap, so wire
  // time scales ~8x (setup unchanged).
  const double wire_solo =
      static_cast<double>(solo.nanoseconds()) -
      4.0 * static_cast<double>(kParams.dma_setup.nanoseconds());
  const double wire_shared =
      static_cast<double>(shared8.nanoseconds()) -
      4.0 * static_cast<double>(kParams.dma_setup.nanoseconds());
  // Memory bandwidth (19 GB/s) binds both solo and shared (the per-SPE cap
  // of 25.6 GB/s never engages), so wire time scales exactly with clients.
  EXPECT_NEAR(wire_shared / wire_solo, 8.0, 0.1);
}

TEST(Mfc, PerSpeCapBindsWhenUncongested) {
  Mfc mfc(kParams);
  // At congestion 1 the min(spe_cap, mem) = 19 vs spe 25.6: mem binds since
  // mem_gbps < spe_dma_gbps in the default calibration.
  const auto t = mfc.transfer_time(19.0 * 1000.0, 1, 1, false);
  const double wire =
      static_cast<double>(t.nanoseconds()) -
      static_cast<double>(kParams.dma_setup.nanoseconds());
  EXPECT_NEAR(wire, 1000.0, 2.0);
}

TEST(Mfc, CrossCellPenalty) {
  Mfc mfc(kParams);
  const auto local = mfc.transfer_time(16 * 1024, 1, 1, false);
  const auto remote = mfc.transfer_time(16 * 1024, 1, 1, true);
  EXPECT_NEAR(static_cast<double>(remote.nanoseconds()) /
                  static_cast<double>(local.nanoseconds()),
              kParams.cross_cell_factor, 0.01);
}

}  // namespace
}  // namespace cbe::cell
