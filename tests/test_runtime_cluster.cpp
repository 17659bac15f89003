// Tests for the multi-blade wrapper (Section 5.5) and memory-aware
// scheduling (Section 6 future work).
#include <gtest/gtest.h>

#include <memory>

#include "runtime/mgps.hpp"
#include "runtime/sim_runtime.hpp"
#include "task/synthetic.hpp"

namespace cbe::rt {
namespace {

task::SyntheticConfig small_cfg() {
  task::SyntheticConfig cfg;
  cfg.tasks_per_bootstrap = 100;
  return cfg;
}

TEST(Cluster, OneBladeEqualsPlainRun) {
  const task::Workload wl = task::make_synthetic(6, small_cfg());
  EdtlpPolicy plain;
  const double direct = run_workload(wl, plain).makespan_s;
  const double cluster =
      run_cluster(wl, [] { return std::make_unique<EdtlpPolicy>(); }, 1)
          .makespan_s;
  EXPECT_DOUBLE_EQ(direct, cluster);
}

TEST(Cluster, MoreBladesNeverSlower) {
  const task::Workload wl = task::make_synthetic(24, small_cfg());
  double prev = 1e300;
  for (int blades : {1, 2, 4, 8}) {
    const double t =
        run_cluster(wl, [] { return std::make_unique<EdtlpPolicy>(); },
                    blades)
            .makespan_s;
    EXPECT_LE(t, prev * 1.0001);
    prev = t;
  }
}

TEST(Cluster, ScalesNearlyLinearlyWhileSaturated) {
  const task::Workload wl = task::make_synthetic(32, small_cfg());
  const double t1 =
      run_cluster(wl, [] { return std::make_unique<EdtlpPolicy>(); }, 1)
          .makespan_s;
  const double t4 =
      run_cluster(wl, [] { return std::make_unique<EdtlpPolicy>(); }, 4)
          .makespan_s;
  EXPECT_NEAR(t1 / t4, 4.0, 0.6);
}

TEST(Cluster, MgpsBeatsEdtlpOnceBladesDiluteTlp) {
  // The Section 5.5 claim, in miniature: 32 bootstraps over 8 dual-Cell
  // blades = 4 per blade, squarely in MGPS's LLP regime.
  RunConfig blade;
  blade.cell.num_cells = 2;
  const task::Workload wl = task::make_synthetic(32, small_cfg());
  const double edtlp =
      run_cluster(wl, [] { return std::make_unique<EdtlpPolicy>(); }, 8,
                  blade)
          .makespan_s;
  const double mgps =
      run_cluster(wl, [] { return std::make_unique<MgpsPolicy>(); }, 8,
                  blade)
          .makespan_s;
  EXPECT_LT(mgps, edtlp);
}

TEST(Cluster, AggregatesCounters) {
  const task::Workload wl = task::make_synthetic(8, small_cfg());
  const RunResult r =
      run_cluster(wl, [] { return std::make_unique<EdtlpPolicy>(); }, 2);
  EXPECT_EQ(r.offloads, 800u);
  EXPECT_GT(r.events, 0u);
}

TEST(Cluster, MoreBladesThanBootstraps) {
  const task::Workload wl = task::make_synthetic(2, small_cfg());
  const RunResult r =
      run_cluster(wl, [] { return std::make_unique<EdtlpPolicy>(); }, 8);
  EXPECT_EQ(r.offloads, 200u);
  EXPECT_GT(r.makespan_s, 0.0);
}

// ---- Memory-aware scheduling ----

task::Workload oversized_workload(double in_bytes, double out_bytes) {
  task::Workload wl;
  task::ProcessTrace trace;
  for (int i = 0; i < 30; ++i) {
    task::Segment seg;
    seg.ppe_burst_cycles = 3.2e4;
    task::TaskDesc& t = seg.task;
    t.spe_cycles_nonloop = 3.2e4;
    t.loop.iterations = 1024;
    t.loop.spe_cycles_per_iter = 300.0;
    t.loop.bytes_in_per_iter = in_bytes / 1024.0;
    t.ppe_cycles = 2.0 * t.spe_cycles_total();
    t.dma_in_bytes = in_bytes;
    t.dma_out_bytes = out_bytes;
    trace.segments.push_back(seg);
  }
  wl.bootstraps.push_back(trace);
  return wl;
}

TEST(MemoryAware, OversizedWorkingSetsForceLoopSharing) {
  // 300 KB working set cannot sit next to the 123 KB module in a 256 KB
  // local store; the driver must split the loop across >= 3 SPEs even
  // though the policy asked for 1.
  const task::Workload wl = oversized_workload(250.0 * 1024, 50.0 * 1024);
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol, {});
  EXPECT_EQ(r.loop_splits, r.offloads);
  EXPECT_GE(r.mean_loop_degree, 3.0);
}

TEST(MemoryAware, FittingTasksAreUntouched) {
  const task::Workload wl = task::make_synthetic(2, small_cfg());
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol, {});
  // The 42_SC-calibrated working sets (96 KB) fit beside the module.
  EXPECT_EQ(r.loop_splits, 0u);
  EXPECT_DOUBLE_EQ(r.mean_loop_degree, 1.0);
}

}  // namespace
}  // namespace cbe::rt
