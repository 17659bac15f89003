// Whole-search golden: the report of a small bootstrap job, pinned byte for
// byte.  RunReport::to_text() prints every double with %.17g, so text
// equality is bit equality of every replicate's lnL, every support value and
// every scheduler counter.  The job's alignment carries gap columns, so the
// fixture covers the kernels' tip and gap handling inside real searches.
//
// Regenerate the fixture only after an intentional numerical change:
//
//   CBE_REGEN_GOLDEN=1 build/tests/test_report_golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "ckpt/runner.hpp"
#include "phylo/alignment.hpp"

#ifndef CBE_GOLDEN_DIR
#define CBE_GOLDEN_DIR "tests/golden"
#endif

namespace cbe::ckpt {
namespace {

BootstrapJob golden_job() {
  BootstrapJob job;
  job.taxa = 16;
  job.sites = 600;
  job.alignment_seed = 77;
  job.mean_branch_length = 0.05;
  job.seed = 31;
  job.bootstraps = 4;
  return job;
}

/// Patterns in which at least one taxon has a gap, in the alignment run_job
/// regenerates from the job's recipe.
int gap_patterns(const BootstrapJob& job) {
  phylo::SyntheticAlignmentConfig acfg;
  acfg.taxa = job.taxa;
  acfg.sites = job.sites;
  acfg.seed = job.alignment_seed;
  acfg.mean_branch_length = job.mean_branch_length;
  const phylo::PatternAlignment pa(phylo::make_synthetic_alignment(acfg));
  int n = 0;
  for (int p = 0; p < pa.patterns(); ++p) {
    for (int t = 0; t < pa.taxa(); ++t) {
      if (pa.state(t, p) == phylo::kGap) {
        ++n;
        break;
      }
    }
  }
  return n;
}

TEST(ReportGolden, BootstrapReportMatchesFixture) {
  const BootstrapJob job = golden_job();
  ASSERT_GT(gap_patterns(job), 0) << "the golden job must exercise gaps";

  RunState st = make_fresh(job);
  const std::string got = run_job(st).to_text();

  const std::string path =
      std::string(CBE_GOLDEN_DIR) + "/bootstrap_report.txt";
  if (std::getenv("CBE_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << got;
    GTEST_SKIP() << "regenerated " << path << "; commit it and re-run";
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream want;
  want << in.rdbuf();
  ASSERT_FALSE(want.str().empty()) << "missing fixture " << path;
  EXPECT_EQ(got, want.str());
}

}  // namespace
}  // namespace cbe::ckpt
