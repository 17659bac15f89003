// End-to-end integration: a real phylogenetic analysis generates the task
// traces, the Cell machine model replays them under every scheduler, and
// the paper's qualitative results must hold on the real (not synthetic)
// workload.
#include <gtest/gtest.h>

#include "paper_table.hpp"
#include "phylo/bootstrap.hpp"
#include "platform/smp.hpp"
#include "runtime/mgps.hpp"
#include "runtime/sim_runtime.hpp"

namespace cbe {
namespace {

struct Integration : ::testing::Test {
  static void SetUpTestSuite() {
    phylo::SyntheticAlignmentConfig acfg;
    acfg.taxa = 14;
    acfg.sites = 400;
    acfg.mean_branch_length = 0.02;
    alignment = new phylo::Alignment(phylo::make_synthetic_alignment(acfg));
    patterns = new phylo::PatternAlignment(*alignment);
    model = new phylo::SubstModel(
        phylo::GtrParams::hky(2.5, patterns->base_frequencies()), 0.8);
    workload = new task::Workload;
    util::Rng master(77);
    for (int i = 0; i < 8; ++i) {
      util::Rng rng = master.split();
      phylo::TraceGenerator gen;
      phylo::run_bootstrap(*patterns, *model, rng, {}, &gen);
      workload->bootstraps.push_back(gen.take_trace());
    }
  }
  static void TearDownTestSuite() {
    delete workload;
    delete model;
    delete patterns;
    delete alignment;
  }

  static phylo::Alignment* alignment;
  static phylo::PatternAlignment* patterns;
  static phylo::SubstModel* model;
  static task::Workload* workload;
};

phylo::Alignment* Integration::alignment = nullptr;
phylo::PatternAlignment* Integration::patterns = nullptr;
phylo::SubstModel* Integration::model = nullptr;
task::Workload* Integration::workload = nullptr;

TEST_F(Integration, RealTracesAreSubstantial) {
  ASSERT_EQ(workload->size(), 8u);
  for (const auto& b : workload->bootstraps) {
    EXPECT_GT(b.segments.size(), 100u);
    EXPECT_GT(b.total_spe_cycles(), 0.0);
  }
}

TEST_F(Integration, EdtlpBeatsLinuxOnRealTraces) {
  rt::EdtlpPolicy edtlp;
  rt::LinuxPolicy linux_pol;
  const double te = rt::run_workload(*workload, edtlp).makespan_s;
  const double tl = rt::run_workload(*workload, linux_pol).makespan_s;
  // The real traces are finer-grained than 42_SC (shorter kernels over the
  // same CLV traffic), so memory contention narrows EDTLP's margin compared
  // with the paper's 2.6x; the ordering must still hold clearly.
  EXPECT_LT(te, tl * 0.9);
}

TEST_F(Integration, NoGranularityDemotionsOnRealKernels) {
  rt::EdtlpPolicy edtlp;
  const rt::RunResult r = rt::run_workload(*workload, edtlp);
  EXPECT_EQ(r.ppe_fallbacks, 0u);
  EXPECT_EQ(r.offloads, workload->bootstraps[0].segments.size() +
                            workload->bootstraps[1].segments.size() +
                            workload->bootstraps[2].segments.size() +
                            workload->bootstraps[3].segments.size() +
                            workload->bootstraps[4].segments.size() +
                            workload->bootstraps[5].segments.size() +
                            workload->bootstraps[6].segments.size() +
                            workload->bootstraps[7].segments.size());
}

TEST_F(Integration, MgpsNeverLosesBadlyAndAdaptsDegree) {
  // On 2 bootstraps (low TLP) MGPS must activate loop-level parallelism.
  task::Workload two;
  two.bootstraps = {workload->bootstraps[0], workload->bootstraps[1]};
  rt::MgpsPolicy mgps;
  rt::EdtlpPolicy edtlp;
  const rt::RunResult rm = rt::run_workload(two, mgps);
  const rt::RunResult re = rt::run_workload(two, edtlp);
  EXPECT_GT(rm.mean_loop_degree, 1.3);
  EXPECT_LT(rm.makespan_s, re.makespan_s * 1.02);
}

TEST_F(Integration, SpeUtilizationImprovesWithMgpsAtLowTlp) {
  task::Workload one;
  one.bootstraps = {workload->bootstraps[0]};
  rt::MgpsPolicy mgps;
  rt::EdtlpPolicy edtlp;
  const auto rm = rt::run_workload(one, mgps);
  const auto re = rt::run_workload(one, edtlp);
  EXPECT_GT(rm.mean_spe_utilization, re.mean_spe_utilization);
}

TEST_F(Integration, BladeScalesRealWorkload) {
  rt::EdtlpPolicy p1, p2;
  rt::RunConfig blade;
  blade.cell.num_cells = 2;
  const double t1 = rt::run_workload(*workload, p1).makespan_s;
  const double t2 = rt::run_workload(*workload, p2, blade).makespan_s;
  EXPECT_GT(t1 / t2, 1.4);  // 8 bootstraps over 16 SPEs: ~2x minus tails
}

TEST_F(Integration, Figure10XeonOverCellOnRealTraces) {
  // Figure 10's Cell time at 8 bootstraps, anchored as bench_fig10 anchors
  // it: one EDTLP bootstrap reads as the paper's 28.46 s.  These kernels
  // are finer than 42_SC's, so 8 bootstraps dilate ~4.0x over one on the
  // Cell (1.47x on the calibrated workload) and its lead over the Xeon
  // shrinks from fig10's ~4.2x to 1.53 here.  The Cell must still lead.
  task::Workload one;
  one.bootstraps = {workload->bootstraps[0]};
  rt::EdtlpPolicy edtlp;
  rt::MgpsPolicy mgps;
  const double cell = bench::anchor_to_paper(
      rt::run_workload(*workload, mgps).makespan_s,
      rt::run_workload(one, edtlp).makespan_s);
  const double xeon =
      platform::run_bootstraps(platform::SmtMachineConfig::xeon(), 8);
  EXPECT_GT(xeon / cell, 1.3);
  EXPECT_LT(xeon / cell, 1.8);
}

}  // namespace
}  // namespace cbe
