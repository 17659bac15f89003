// The paper's claims as assertions: runs each sweep of the experiment table
// (bench/paper_table.hpp) once, at 200 tasks per bootstrap instead of the
// benches' 1000, and checks every claim the paper benches print against
// its band.  The table keeps each band's reason; a failure prints it.
#include "paper_table.hpp"

#include <gtest/gtest.h>

namespace cbe::bench {
namespace {

task::SyntheticConfig workload() {
  task::SyntheticConfig cfg;
  cfg.tasks_per_bootstrap = 200;
  return cfg;
}

void expect_claims(const std::vector<Claim>& claims) {
  ASSERT_FALSE(claims.empty());
  for (const Claim& c : claims) {
    EXPECT_TRUE(c.holds()) << c.describe() << ": " << c.why;
  }
}

TEST(PaperShapes, Table1) {
  expect_claims(table1_claims(run_sweep(kTable1, workload(), {})));
}

TEST(PaperShapes, Table2) {
  expect_claims(table2_claims(run_sweep(kTable2, workload(), {})));
}

// Figure 8's sweep holds Figure 7's, Figure 10's Cell curve and anchor, and
// ablation A5's.
TEST(PaperShapes, OneCellFigures) {
  const Sweep s = run_sweep(kFig8, workload(), {});
  expect_claims(fig7_claims(s));
  expect_claims(fig8_claims(s));
  expect_claims(fig10_claims(s, s));
  expect_claims(ablation_claims(s));
}

TEST(PaperShapes, Figure9) {
  expect_claims(fig9_claims(run_sweep(kFig9, workload(), {}),
                            run_sweep(kFig9OneCell, workload(), {})));
}

TEST(PaperShapes, OptimizationLadder) {
  expect_claims(ladder_claims(run_ladder({}, kLadderSeed)));
}

TEST(PaperShapes, Cluster) {
  rt::RunConfig blade;
  blade.cell.num_cells = 2;
  expect_claims(cluster_claims(run_cluster_sweep(100, workload(), blade)));
}

}  // namespace
}  // namespace cbe::bench
