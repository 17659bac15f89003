#include "platform/smp.hpp"

#include <gtest/gtest.h>

namespace cbe::platform {
namespace {

SmtMachineConfig simple(int cores, int threads, double secs, double smt) {
  SmtMachineConfig c;
  c.name = "test";
  c.sockets = 1;
  c.cores_per_socket = cores;
  c.threads_per_core = threads;
  c.bootstrap_seconds = secs;
  c.smt_slowdown = smt;
  return c;
}

TEST(Platform, SingleContextSerializes) {
  const auto cfg = simple(1, 1, 10.0, 1.5);
  EXPECT_DOUBLE_EQ(run_bootstraps(cfg, 1), 10.0);
  EXPECT_DOUBLE_EQ(run_bootstraps(cfg, 4), 40.0);
}

TEST(Platform, SmtPairRunsSlowerButConcurrent) {
  const auto cfg = simple(1, 2, 10.0, 1.4);
  // One bootstrap: core uncontended.
  EXPECT_DOUBLE_EQ(run_bootstraps(cfg, 1), 10.0);
  // Two bootstraps co-scheduled on the SMT pair: both degrade.
  EXPECT_DOUBLE_EQ(run_bootstraps(cfg, 2), 14.0);
}

TEST(Platform, SeparateCoresDontContend) {
  const auto cfg = simple(2, 1, 10.0, 1.4);
  EXPECT_DOUBLE_EQ(run_bootstraps(cfg, 2), 10.0);
}

TEST(Platform, MakespanMonotone) {
  const auto cfg = SmtMachineConfig::power5();
  double prev = 0.0;
  for (int b : {1, 2, 4, 8, 16, 64}) {
    const double t = run_bootstraps(cfg, b);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(Platform, ThroughputApproachesContextCount) {
  const auto cfg = simple(2, 2, 10.0, 1.3);
  // 40 bootstraps on 4 contexts, all SMT-degraded: 10 waves x 13 s.
  EXPECT_NEAR(run_bootstraps(cfg, 40), 130.0, 1.0);
}

TEST(Platform, CompletionsCoverAllBootstraps) {
  const auto cfg = SmtMachineConfig::xeon();
  const auto completions = bootstrap_completions(cfg, 10);
  ASSERT_EQ(completions.size(), 10u);
  for (double c : completions) EXPECT_GT(c, 0.0);
}

TEST(Platform, PublishedConfigsAreConsistent) {
  const auto contexts = [](const SmtMachineConfig& c) {
    return c.sockets * c.cores_per_socket * c.threads_per_core;
  };
  const auto xeon = SmtMachineConfig::xeon();
  EXPECT_EQ(contexts(xeon), 4);  // two HT processors
  const auto p5 = SmtMachineConfig::power5();
  EXPECT_EQ(contexts(p5), 4);    // dual-core, 2-way SMT
  // Power5 is the far stronger FP machine per context.
  EXPECT_LT(p5.bootstrap_seconds, xeon.bootstrap_seconds);
}

}  // namespace
}  // namespace cbe::platform
