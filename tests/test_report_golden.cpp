// Whole-run goldens, pinned byte for byte.  Every report prints doubles
// with %.17g, so text equality is bit equality.
//
// - The report of a small bootstrap job: every replicate's lnL, every
//   support value and every scheduler counter.  The job's alignment carries
//   gap columns, so the fixture covers the kernels' tip and gap handling
//   inside real searches.
// - A seeded job-service chaos run: per-job results, the summary, the final
//   statusz snapshot, the metrics export and the event trace, with every
//   recovery path of the service in it.
//
// Regenerate the fixtures only after an intentional behaviour change:
//
//   CBE_REGEN_GOLDEN=1 build/tests/test_report_golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/runner.hpp"
#include "jobsvc/service.hpp"
#include "phylo/alignment.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

#ifndef CBE_GOLDEN_DIR
#define CBE_GOLDEN_DIR "tests/golden"
#endif

namespace cbe::ckpt {
namespace {

/// Pins `got` against tests/golden/<name>, or rewrites the fixture when
/// CBE_REGEN_GOLDEN is set.
void expect_matches_fixture(const std::string& name, const std::string& got) {
  const std::string path = std::string(CBE_GOLDEN_DIR) + "/" + name;
  if (std::getenv("CBE_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << got;
    GTEST_SKIP() << "regenerated " << path << "; commit it and re-run";
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream want;
  want << in.rdbuf();
  ASSERT_FALSE(want.str().empty()) << "missing fixture " << path;
  EXPECT_EQ(got, want.str()) << "differs from " << path;
}

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
  expect_matches_fixture("bootstrap_report.txt", run_job(st).to_text());
}

/// The pinned service run: a small seeded mix on four two-slot blades with a
/// short queue (sheds and rejects), step faults (retries), silent corruption
/// under full verification (quarantine), a straggler blade (watchdogs and an
/// open breaker), a blade kill (migrations), deadlines and periodic statusz.
/// Do not change without regenerating both jobsvc_chaos fixtures.
jobsvc::ServiceReport chaos_service_run(trace::TraceSink* sink,
                                        trace::MetricsRegistry* metrics) {
  jobsvc::JobMixConfig mix;
  mix.jobs = 40;
  mix.tenants = 3;
  mix.seed = 5;
  mix.min_steps = 8;
  mix.max_steps = 32;
  mix.arrival_span_s = 0.6;
  mix.deadline_s = 2.0;

  jobsvc::ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(4, 2);
  cfg.admission.max_queue = 8;
  cfg.step_fail_rate = 0.03;
  cfg.step_corrupt_rate = 0.01;
  cfg.verify_fraction = 1.0;
  cfg.quarantine_threshold = 2;
  cfg.fault.seed = 9;
  cfg.fault_script = {
      {sim::Time::sec(0.05), sim::FaultKind::Degrade, 1, 0.1},
      {sim::Time::sec(0.2), sim::FaultKind::FailStop, 3, 1.0},
  };
  cfg.statusz.every_s = 0.05;
  cfg.trace = sink;
  cfg.metrics = metrics;
  return jobsvc::Service(cfg).run(jobsvc::make_job_mix(mix));
}

TEST(ReportGolden, JobServiceChaosMatchesFixture) {
  trace::TraceSink sink;
  trace::MetricsRegistry metrics;
  const jobsvc::ServiceReport rep = chaos_service_run(&sink, &metrics);
  const std::string got = rep.results_text() + rep.to_text() +
                          "statusz_snapshots " +
                          std::to_string(rep.statusz_snapshots) + "\n" +
                          rep.statusz_json + metrics.to_json();

  const std::string trace_text = trace::to_text(sink.events());
  for (const char* kind :
       {" job_migrate ", " watchdog_fire ", " breaker_open ", " job_retry ",
        " quarantine ", " job_shed ", " job_reject "}) {
    EXPECT_NE(trace_text.find(kind), std::string::npos) << kind;
  }
  expect_matches_fixture("jobsvc_chaos.trace", trace_text);
  expect_matches_fixture("jobsvc_chaos.txt", got);
}

}  // namespace
}  // namespace cbe::ckpt
