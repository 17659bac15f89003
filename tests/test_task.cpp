#include "task/synthetic.hpp"
#include "task/task.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace cbe::task {
namespace {

TEST(Task, LoopDescTotals) {
  LoopDesc loop;
  loop.iterations = 100;
  loop.spe_cycles_per_iter = 50.0;
  EXPECT_DOUBLE_EQ(loop.total_cycles(), 5000.0);
  EXPECT_TRUE(loop.parallelizable());
  loop.iterations = 1;
  EXPECT_FALSE(loop.parallelizable());
}

TEST(Task, TaskTotalsIncludeLoopAndNonloop) {
  TaskDesc t;
  t.spe_cycles_nonloop = 1000.0;
  t.loop.iterations = 10;
  t.loop.spe_cycles_per_iter = 100.0;
  EXPECT_DOUBLE_EQ(t.spe_cycles_total(), 2000.0);
}

TEST(Task, TraceTotals) {
  ProcessTrace trace;
  for (int i = 0; i < 3; ++i) {
    Segment s;
    s.ppe_burst_cycles = 10.0;
    s.task.spe_cycles_nonloop = 100.0;
    trace.segments.push_back(s);
  }
  EXPECT_DOUBLE_EQ(trace.total_spe_cycles(), 300.0);
}

TEST(ModuleRegistry, RaxmlModulePreRegistered) {
  const CodeModule& m = code_module(kRaxmlModule);
  EXPECT_EQ(m.bytes, 117u * 1024);  // the paper's merged module size
  EXPECT_GT(m.parallel_bytes, m.bytes);
}

TEST(ModuleRegistry, UnknownIdThrows) {
  EXPECT_THROW(code_module(kRaxmlModule + 1), std::out_of_range);
  EXPECT_THROW(code_module(99), std::out_of_range);
}

TEST(Synthetic, GeneratesRequestedShape) {
  SyntheticConfig cfg;
  cfg.tasks_per_bootstrap = 50;
  const Workload wl = make_synthetic(4, cfg);
  ASSERT_EQ(wl.size(), 4u);
  for (const auto& b : wl.bootstraps) {
    EXPECT_EQ(b.segments.size(), 50u);
  }
}

TEST(Synthetic, CalibratedMeansMatchPaperStats) {
  SyntheticConfig cfg;
  cfg.tasks_per_bootstrap = 20000;
  const Workload wl = make_synthetic(1, cfg);
  double spe_us = 0.0, ppe_us = 0.0;
  const double cycles_per_us = cfg.clock_ghz * 1e3;
  for (const auto& seg : wl.bootstraps[0].segments) {
    spe_us += seg.task.spe_cycles_total() / cycles_per_us;
    ppe_us += seg.ppe_burst_cycles / cycles_per_us;
  }
  const double n = cfg.tasks_per_bootstrap;
  EXPECT_NEAR(spe_us / n, 96.0, 2.0);   // paper: 96 us average SPE task
  EXPECT_NEAR(ppe_us / n, 11.0, 0.4);   // paper: 11 us average PPE burst
}

TEST(Synthetic, LoopStructureMatchesConfig) {
  SyntheticConfig cfg;
  cfg.tasks_per_bootstrap = 10;
  const Workload wl = make_synthetic(1, cfg);
  for (const auto& seg : wl.bootstraps[0].segments) {
    EXPECT_EQ(seg.task.loop.iterations, 228u);  // 42_SC pattern count
    const double loop_frac = seg.task.loop.total_cycles() /
                             seg.task.spe_cycles_total();
    EXPECT_NEAR(loop_frac, cfg.loop_fraction, 1e-9);
    EXPECT_GT(seg.task.ppe_cycles, seg.task.spe_cycles_total());
  }
}

TEST(Synthetic, DeterministicForSeed) {
  const Workload a = make_synthetic(2, {});
  const Workload b = make_synthetic(2, {});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.bootstraps[i].segments.size(),
              b.bootstraps[i].segments.size());
    EXPECT_DOUBLE_EQ(a.bootstraps[i].total_spe_cycles(),
                     b.bootstraps[i].total_spe_cycles());
  }
}

TEST(Synthetic, SeedChangesWorkload) {
  SyntheticConfig c1, c2;
  c2.seed = c1.seed + 1;
  const Workload a = make_synthetic(1, c1);
  const Workload b = make_synthetic(1, c2);
  EXPECT_NE(a.bootstraps[0].total_spe_cycles(),
            b.bootstraps[0].total_spe_cycles());
}

TEST(Synthetic, BootstrapsAreDistinctButExchangeable) {
  const Workload wl = make_synthetic(3, {});
  EXPECT_NE(wl.bootstraps[0].total_spe_cycles(),
            wl.bootstraps[1].total_spe_cycles());
  // ... but statistically interchangeable: totals within a few percent.
  const double a = wl.bootstraps[0].total_spe_cycles();
  const double b = wl.bootstraps[1].total_spe_cycles();
  EXPECT_NEAR(a / b, 1.0, 0.1);
}

TEST(Synthetic, KernelMixFollowsProfile) {
  SyntheticConfig cfg;
  cfg.tasks_per_bootstrap = 50000;
  const Workload wl = make_synthetic(1, cfg);
  int nv = 0, mz = 0, ev = 0;
  for (const auto& seg : wl.bootstraps[0].segments) {
    switch (seg.task.kind) {
      case KernelClass::Newview: ++nv; break;
      case KernelClass::Makenewz: ++mz; break;
      case KernelClass::Evaluate: ++ev; break;
      default: break;
    }
  }
  const double n = cfg.tasks_per_bootstrap;
  EXPECT_NEAR(nv / n, 0.768 / 0.9877, 0.01);  // the gprof profile shares
  EXPECT_NEAR(mz / n, 0.196 / 0.9877, 0.01);
  EXPECT_NEAR(ev / n, 0.0237 / 0.9877, 0.01);
}

TEST(Synthetic, ExpectedBootstrapSecondsFormula) {
  SyntheticConfig cfg;
  cfg.tasks_per_bootstrap = 1000;
  EXPECT_NEAR(expected_bootstrap_seconds(cfg), 0.107, 1e-9);
}

}  // namespace
}  // namespace cbe::task
