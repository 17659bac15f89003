#include "runtime/sim_runtime.hpp"

#include <gtest/gtest.h>

#include "runtime/mgps.hpp"
#include "task/synthetic.hpp"

namespace cbe::rt {
namespace {

task::SyntheticConfig small_workload() {
  task::SyntheticConfig cfg;
  cfg.tasks_per_bootstrap = 120;
  return cfg;
}

TEST(SimRuntime, EmptyWorkloadFinishesInstantly) {
  task::Workload wl;
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol);
  EXPECT_DOUBLE_EQ(r.makespan_s, 0.0);
  EXPECT_EQ(r.offloads, 0u);
}

TEST(SimRuntime, SingleTaskAccounting) {
  task::Workload wl;
  task::ProcessTrace trace;
  task::Segment seg;
  seg.ppe_burst_cycles = 3200.0;  // 1 us
  seg.task.spe_cycles_nonloop = 320000.0;  // 100 us
  seg.task.ppe_cycles = 640000.0;
  seg.task.dma_in_bytes = 1024.0;
  trace.segments.push_back(seg);
  wl.bootstraps.push_back(trace);

  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol);
  EXPECT_EQ(r.offloads, 1u);
  EXPECT_EQ(r.ppe_fallbacks, 0u);
  EXPECT_EQ(r.loop_splits, 0u);
  // Must cover compute + burst + dispatch, with modest overhead on top.
  EXPECT_GT(r.makespan_s, 107e-6);
  EXPECT_LT(r.makespan_s, 130e-6);
  ASSERT_EQ(r.bootstrap_completion_s.size(), 1u);
  EXPECT_NEAR(r.bootstrap_completion_s[0], r.makespan_s, 1e-9);
}

TEST(SimRuntime, DeterministicAcrossRuns) {
  const task::Workload wl = task::make_synthetic(4, small_workload());
  EdtlpPolicy p1, p2;
  const RunResult a = run_workload(wl, p1);
  const RunResult b = run_workload(wl, p2);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.events, b.events);
}

TEST(SimRuntime, EdtlpBeatsLinuxBeyondTwoWorkers) {
  const task::SyntheticConfig cfg = small_workload();
  for (int n : {3, 5, 8}) {
    const task::Workload wl = task::make_synthetic(n, cfg);
    EdtlpPolicy edtlp;
    LinuxPolicy linux_pol;
    const double te = run_workload(wl, edtlp).makespan_s;
    const double tl = run_workload(wl, linux_pol).makespan_s;
    EXPECT_LT(te, tl * 0.75) << "n=" << n;
  }
}

TEST(SimRuntime, MakespanMonotoneInBootstraps) {
  const task::SyntheticConfig cfg = small_workload();
  EdtlpPolicy p;
  double prev = 0.0;
  for (int b : {1, 4, 8, 16, 32}) {
    const double t =
        run_workload(task::make_synthetic(b, cfg), p).makespan_s;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(SimRuntime, EdtlpUsesAllSpesAtEightWorkers) {
  const task::Workload wl = task::make_synthetic(8, small_workload());
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol);
  EXPECT_GT(r.mean_spe_utilization, 0.5);
  EXPECT_EQ(r.offloads, 8u * 120u);
}

TEST(SimRuntime, StaticHybridSplitsEveryLoop) {
  const task::Workload wl = task::make_synthetic(2, small_workload());
  StaticHybridPolicy pol(4);
  const RunResult r = run_workload(wl, pol);
  EXPECT_EQ(r.loop_splits, r.offloads);
  EXPECT_NEAR(r.mean_loop_degree, 4.0, 0.01);
}

TEST(SimRuntime, HybridBeatsEdtlpAtLowTaskParallelism) {
  const task::Workload wl = task::make_synthetic(1, small_workload());
  StaticHybridPolicy hybrid(4);
  EdtlpPolicy edtlp;
  EXPECT_LT(run_workload(wl, hybrid).makespan_s,
            run_workload(wl, edtlp).makespan_s);
}

TEST(SimRuntime, EdtlpBeatsHybridAtHighTaskParallelism) {
  const task::Workload wl = task::make_synthetic(16, small_workload());
  StaticHybridPolicy hybrid(4);
  EdtlpPolicy edtlp;
  EXPECT_LT(run_workload(wl, edtlp).makespan_s,
            run_workload(wl, hybrid).makespan_s);
}

TEST(SimRuntime, GranularityTestDemotesCoarseTasks) {
  // Tasks whose PPE version is *cheaper* than the off-load round trip must
  // be pulled back to the PPE after the measurement window.
  task::Workload wl;
  task::ProcessTrace trace;
  for (int i = 0; i < 40; ++i) {
    task::Segment seg;
    seg.ppe_burst_cycles = 1000.0;
    seg.task.spe_cycles_nonloop = 16000.0;  // 5 us on the SPE...
    seg.task.ppe_cycles = 3200.0;           // ...but only 1 us on the PPE
    seg.task.dma_in_bytes = 4096.0;
    trace.segments.push_back(seg);
  }
  wl.bootstraps.push_back(trace);
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol);
  EXPECT_GT(r.ppe_fallbacks, 30u);
  EXPECT_LE(r.offloads, 6u);  // only the measurement samples
}

TEST(SimRuntime, GranularityTestKeepsGoodTasksOnSpe) {
  const task::Workload wl = task::make_synthetic(2, small_workload());
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol);
  EXPECT_EQ(r.ppe_fallbacks, 0u);
}

TEST(SimRuntime, LinuxSkipsGranularityTest) {
  task::Workload wl;
  task::ProcessTrace trace;
  task::Segment seg;
  seg.task.spe_cycles_nonloop = 16000.0;
  seg.task.ppe_cycles = 3200.0;
  trace.segments.push_back(seg);
  wl.bootstraps.push_back(trace);
  LinuxPolicy pol;
  const RunResult r = run_workload(wl, pol);
  EXPECT_EQ(r.ppe_fallbacks, 0u);
  EXPECT_EQ(r.offloads, 1u);
}

TEST(SimRuntime, CodeLoadsCountVariantSwaps) {
  const task::Workload wl = task::make_synthetic(2, small_workload());
  StaticHybridPolicy pol(2);
  const RunResult r = run_workload(wl, pol);
  // Two masters + two workers load the parallel variant once each.
  EXPECT_GE(r.code_loads, 2u);
  EXPECT_LE(r.code_loads, 8u);
}

TEST(SimRuntime, PolicyTimerFiresAdaptation) {
  // One bootstrap, MGPS: without departures-driven adaptation early on,
  // the timer triggers LLP activation.
  const task::Workload wl = task::make_synthetic(1, small_workload());
  MgpsPolicy with_timer, without_timer;
  RunConfig timer_cfg;
  timer_cfg.policy_timer = sim::Time::us(50.0);
  const RunResult r_timer = run_workload(wl, with_timer, timer_cfg);
  const RunResult r_plain = run_workload(wl, without_timer, {});
  // Both should adapt; the timer variant at least as eagerly.
  EXPECT_GE(r_timer.mean_loop_degree, r_plain.mean_loop_degree - 0.05);
  EXPECT_GT(r_timer.mean_loop_degree, 1.5);
}

TEST(SimRuntime, BootstrapCompletionsAreRecorded) {
  const task::Workload wl = task::make_synthetic(5, small_workload());
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol);
  ASSERT_EQ(r.bootstrap_completion_s.size(), 5u);
  for (double c : r.bootstrap_completion_s) {
    EXPECT_GT(c, 0.0);
    EXPECT_LE(c, r.makespan_s + 1e-12);
  }
}

TEST(SimRuntime, ContextSwitchesScaleWithOversubscription) {
  const task::SyntheticConfig cfg = small_workload();
  EdtlpPolicy p2, p8;
  const auto r2 = run_workload(task::make_synthetic(2, cfg), p2);
  const auto r8 = run_workload(task::make_synthetic(8, cfg), p8);
  EXPECT_LT(r2.ctx_switches, 50u);      // own-context affinity: ~no switches
  EXPECT_GT(r8.ctx_switches, 500u);     // heavy multiplexing
}

class LinuxWaveSweep : public ::testing::TestWithParam<int> {};

TEST_P(LinuxWaveSweep, PairsFinishTogether) {
  const int n = GetParam();
  LinuxPolicy pol;
  const task::Workload wl = task::make_synthetic(n, small_workload());
  const RunResult r = run_workload(wl, pol);
  // With static pinning, bootstraps on the same context serialize: the
  // last completion is about ceil(n/2) single-bootstrap times.
  const double t1 = task::expected_bootstrap_seconds(small_workload());
  EXPECT_GT(r.makespan_s, t1 * ((n + 1) / 2) * 0.9);
  EXPECT_EQ(r.offloads, static_cast<std::uint64_t>(n) * 120u);
}

INSTANTIATE_TEST_SUITE_P(Workers, LinuxWaveSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

}  // namespace
}  // namespace cbe::rt
