#include "cellsim/machine.hpp"

#include <gtest/gtest.h>

namespace cbe::cell {
namespace {

struct MachineTest : ::testing::Test {
  sim::Engine eng;
  task::ModuleRegistry modules;
  CellParams params;
};

TEST_F(MachineTest, TopologySingleCell) {
  CellMachine m(eng, params, modules);
  EXPECT_EQ(m.num_spes(), 8);
  EXPECT_EQ(m.num_cells(), 1);
  EXPECT_EQ(m.count_idle_spes(), 8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(m.spe(i).cell(), 0);
}

TEST_F(MachineTest, TopologyBlade) {
  CellMachine m(eng, CellParams::blade(), modules);
  EXPECT_EQ(m.num_spes(), 16);
  EXPECT_EQ(m.num_cells(), 2);
  EXPECT_EQ(m.spe(7).cell(), 0);
  EXPECT_EQ(m.spe(8).cell(), 1);
}

TEST_F(MachineTest, IdleSpesPreferRequestedCell) {
  CellMachine m(eng, CellParams::blade(), modules);
  std::vector<int> pref1;
  m.idle_spes(1, pref1);
  ASSERT_EQ(pref1.size(), 16u);
  EXPECT_EQ(m.spe(pref1.front()).cell(), 1);
  EXPECT_EQ(m.spe(pref1.back()).cell(), 0);
}

TEST_F(MachineTest, IdleSpesSkipBusy) {
  CellMachine m(eng, params, modules);
  m.spe(0).reserve(eng.now());
  m.spe(3).reserve(eng.now());
  std::vector<int> idle = {42};  // the buffer is overwritten, not appended
  m.idle_spes(0, idle);
  EXPECT_EQ(idle.size(), 6u);
  for (int s : idle) {
    EXPECT_NE(s, 0);
    EXPECT_NE(s, 3);
  }
  EXPECT_EQ(m.count_idle_spes(), 6);
}

TEST_F(MachineTest, MaintainedCountsTrackReserveReleaseAndFailure) {
  CellMachine m(eng, CellParams::blade(), modules);
  const sim::FaultPlan plan;
  m.spe(1).reserve(eng.now());
  m.spe(9).reserve(eng.now());
  EXPECT_EQ(m.count_idle_spes(), 14);
  EXPECT_THROW(m.fail_spe(2), std::logic_error);  // no plan installed
  m.install_faults(plan);
  m.fail_spe(1);  // busy SPE: its reservation goes with it
  m.fail_spe(2);  // idle SPE
  m.fail_spe(2);  // already failed: no double count
  EXPECT_EQ(m.failed_spes(), 2);
  EXPECT_EQ(m.healthy_spes(), 14);
  EXPECT_EQ(m.count_idle_spes(), 13);
  m.spe(9).release(eng.now());
  EXPECT_EQ(m.count_idle_spes(), 14);
  std::vector<int> idle;
  m.idle_spes(0, idle);
  EXPECT_EQ(static_cast<int>(idle.size()), m.count_idle_spes());
}

TEST_F(MachineTest, EnsureModuleLoadsOnceThenFree) {
  CellMachine m(eng, params, modules);
  int done = 0;
  m.ensure_module(0, 0, ModuleVariant::Sequential, [&] { ++done; });
  eng.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(m.spe(0).code_loads(), 1u);
  // Second call: already resident, completes immediately without a DMA.
  m.ensure_module(0, 0, ModuleVariant::Sequential, [&] { ++done; });
  EXPECT_EQ(done, 2);
  EXPECT_EQ(m.spe(0).code_loads(), 1u);
}

TEST_F(MachineTest, VariantSwapCostsAnotherLoad) {
  CellMachine m(eng, params, modules);
  m.ensure_module(0, 0, ModuleVariant::Sequential, [] {});
  eng.run();
  m.ensure_module(0, 0, ModuleVariant::Parallel, [] {});
  eng.run();
  EXPECT_EQ(m.spe(0).code_loads(), 2u);
  EXPECT_TRUE(m.spe(0).has_module(0, ModuleVariant::Parallel));
}

TEST_F(MachineTest, SpeComputeTakesCycleTime) {
  CellMachine m(eng, params, modules);
  sim::Time done_at;
  m.spe_compute(0, 3200.0, [&] { done_at = eng.now(); });  // 1 us at 3.2 GHz
  eng.run();
  EXPECT_EQ(done_at, sim::Time::us(1.0));
}

TEST_F(MachineTest, DmaZeroBytesImmediate) {
  CellMachine m(eng, params, modules);
  bool done = false;
  m.dma(0, 0.0, 1, [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(m.active_dmas(), 0);
}

TEST_F(MachineTest, DmaTracksInFlightCount) {
  CellMachine m(eng, params, modules);
  m.dma(0, 64 * 1024, 4, [] {});
  EXPECT_EQ(m.active_dmas(), 1);
  eng.run();
  EXPECT_EQ(m.active_dmas(), 0);
}

TEST_F(MachineTest, DmaCongestionIsPerCell) {
  // Busy SPEs on cell 1 must not slow a transfer on cell 0.
  CellMachine m2(eng, CellParams::blade(), modules);
  for (int s = 8; s < 16; ++s) m2.spe(s).reserve(eng.now());
  sim::Time t_cell0;
  m2.dma(0, 64 * 1024, 4, [&] { t_cell0 = eng.now(); });
  eng.run();
  for (int s = 8; s < 16; ++s) m2.spe(s).release(eng.now());

  // Same transfer but with the *local* cell busy.
  sim::Engine eng2;
  CellMachine m3(eng2, CellParams::blade(), modules);
  for (int s = 1; s < 8; ++s) m3.spe(s).reserve(eng2.now());
  sim::Time t_busy;
  m3.dma(0, 64 * 1024, 4, [&] { t_busy = eng2.now(); });
  eng2.run();
  EXPECT_GT(t_busy, t_cell0);
}

TEST_F(MachineTest, SignalAndPassLatencies) {
  CellMachine m(eng, CellParams::blade(), modules);
  EXPECT_EQ(m.signal_latency(0), params.mailbox_latency);
  EXPECT_EQ(m.pass_latency(0, 1), params.pass_latency_local);
  EXPECT_EQ(m.pass_latency(0, 9),
            params.pass_latency_local * params.cross_cell_factor);
  sim::Time at;
  m.signal(0, [&] { at = eng.now(); });
  eng.run();
  EXPECT_EQ(at, params.mailbox_latency);
}

TEST_F(MachineTest, SoloTimingHelpersAreUncontended) {
  CellMachine m(eng, params, modules);
  for (int s = 0; s < 8; ++s) m.spe(s).reserve(eng.now());
  // solo_dma_time must ignore the congestion.
  const auto solo = m.solo_dma_time(19.0 * 1000.0, 1);
  const double wire = static_cast<double>(solo.nanoseconds()) -
                      static_cast<double>(params.dma_setup.nanoseconds());
  EXPECT_NEAR(wire, 1000.0, 2.0);
  EXPECT_GT(m.code_load_time(0, cell::ModuleVariant::Parallel),
            m.code_load_time(0, cell::ModuleVariant::Sequential));
}

TEST_F(MachineTest, MeanUtilizationAveragesSpes) {
  CellMachine m(eng, params, modules);
  m.spe(0).reserve(eng.now());
  eng.schedule_at(sim::Time::us(10.0), [&] { m.spe(0).release(eng.now()); });
  eng.run();
  // 1 of 8 SPEs busy the whole time -> 12.5%.
  EXPECT_NEAR(m.mean_spe_utilization(), 0.125, 1e-9);
}

}  // namespace
}  // namespace cbe::cell
