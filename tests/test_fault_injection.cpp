// Fault injection and fault-tolerant scheduling: deterministic replay,
// recovery correctness, and degradation bounds across the simulator stack.
#include "runtime/sim_runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "runtime/mgps.hpp"
#include "sim/fault.hpp"
#include "task/synthetic.hpp"
#include "trace/trace.hpp"

namespace cbe::rt {
namespace {

task::SyntheticConfig small_workload() {
  task::SyntheticConfig cfg;
  cfg.tasks_per_bootstrap = 120;
  return cfg;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.mean_spe_utilization, b.mean_spe_utilization);
  EXPECT_EQ(a.offloads, b.offloads);
  EXPECT_EQ(a.ppe_fallbacks, b.ppe_fallbacks);
  EXPECT_EQ(a.loop_splits, b.loop_splits);
  EXPECT_DOUBLE_EQ(a.mean_loop_degree, b.mean_loop_degree);
  EXPECT_EQ(a.ctx_switches, b.ctx_switches);
  EXPECT_EQ(a.code_loads, b.code_loads);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.spe_failures, b.spe_failures);
  EXPECT_EQ(a.stragglers, b.stragglers);
  EXPECT_EQ(a.dma_faults, b.dma_faults);
  EXPECT_EQ(a.dma_retries, b.dma_retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.reoffloads, b.reoffloads);
  EXPECT_EQ(a.loop_reassignments, b.loop_reassignments);
  EXPECT_EQ(a.fault_ppe_fallbacks, b.fault_ppe_fallbacks);
  EXPECT_DOUBLE_EQ(a.wasted_cycles, b.wasted_cycles);
  EXPECT_DOUBLE_EQ(a.dma_bytes, b.dma_bytes);
  EXPECT_EQ(a.recovered_bootstraps, b.recovered_bootstraps);
  ASSERT_EQ(a.bootstrap_completion_s.size(), b.bootstrap_completion_s.size());
  for (std::size_t i = 0; i < a.bootstrap_completion_s.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.bootstrap_completion_s[i],
                     b.bootstrap_completion_s[i]);
  }
}

void expect_all_complete(const RunResult& r) {
  for (double c : r.bootstrap_completion_s) {
    EXPECT_GT(c, 0.0);
    EXPECT_LE(c, r.makespan_s + 1e-12);
  }
}

TEST(FaultPlan, SameSeedSameSchedule) {
  sim::FaultConfig fc;
  fc.seed = 7;
  fc.spe_fail_rate = 0.5;
  fc.straggler_rate = 0.25;
  fc.horizon = sim::Time::ms(5.0);
  const auto a = sim::FaultPlan::from_config(fc, 8);
  const auto b = sim::FaultPlan::from_config(fc, 8);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
    EXPECT_DOUBLE_EQ(a.events()[i].factor, b.events()[i].factor);
  }
}

TEST(FaultPlan, EventsSortedAndInsideHorizonWindow) {
  sim::FaultConfig fc;
  fc.seed = 11;
  fc.spe_fail_rate = 0.8;
  fc.straggler_rate = 0.5;
  fc.horizon = sim::Time::ms(10.0);
  const auto plan = sim::FaultPlan::from_config(fc, 16);
  EXPECT_FALSE(plan.events().empty());
  sim::Time prev;
  for (const auto& ev : plan.events()) {
    EXPECT_GE(ev.at, prev);
    EXPECT_GE(ev.at, sim::Time::ms(1.0));  // 0.1 x horizon
    EXPECT_LE(ev.at, sim::Time::ms(9.0));  // 0.9 x horizon
    prev = ev.at;
  }
}

TEST(FaultPlan, DmaOracleIsStatelessAndRateish) {
  sim::FaultConfig fc;
  fc.seed = 13;
  fc.dma_fail_rate = 0.10;
  const auto plan = sim::FaultPlan::from_config(fc, 8);
  int fails = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) fails += plan.dma_fails(i);
  EXPECT_NEAR(fails / 10000.0, 0.10, 0.02);
  // Stateless: re-asking the same index gives the same answer.
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(plan.dma_fails(i), plan.dma_fails(i));
  }
}

TEST(FaultInjection, FaultFreeRunsHaveZeroFaultCounters) {
  const task::Workload wl = task::make_synthetic(4, small_workload());
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol);
  EXPECT_EQ(r.spe_failures, 0u);
  EXPECT_EQ(r.stragglers, 0u);
  EXPECT_EQ(r.dma_faults, 0u);
  EXPECT_EQ(r.dma_retries, 0u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.reoffloads, 0u);
  EXPECT_EQ(r.loop_reassignments, 0u);
  EXPECT_EQ(r.fault_ppe_fallbacks, 0u);
  EXPECT_EQ(r.recovered_bootstraps, 0u);
  EXPECT_DOUBLE_EQ(r.wasted_cycles, 0.0);
}

TEST(FaultInjection, SeededRunReplaysBitIdentically) {
  const task::Workload wl = task::make_synthetic(6, small_workload());
  RunConfig cfg;
  cfg.fault.seed = 2026;
  cfg.fault.spe_fail_rate = 0.25;
  cfg.fault.dma_fail_rate = 0.01;
  cfg.fault.straggler_rate = 0.2;
  EdtlpPolicy p1, p2;
  const RunResult a = run_workload(wl, p1, cfg);
  const RunResult b = run_workload(wl, p2, cfg);
  expect_identical(a, b);
}

TEST(FaultInjection, TwoSpeFailuresRecoverAllBootstraps) {
  const task::Workload wl = task::make_synthetic(8, small_workload());
  EdtlpPolicy fault_free;
  const RunResult base = run_workload(wl, fault_free);

  RunConfig cfg;
  cfg.fault_script = {
      {sim::Time::ms(2.0), sim::FaultKind::FailStop, 2, 1.0},
      {sim::Time::ms(3.0), sim::FaultKind::FailStop, 5, 1.0},
  };
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol, cfg);
  EXPECT_EQ(r.spe_failures, 2u);
  expect_all_complete(r);
  // Losing 2 of 8 SPEs a fraction into the run must cost well under 2x.
  EXPECT_GE(r.makespan_s, base.makespan_s);
  EXPECT_LT(r.makespan_s, base.makespan_s * 2.0);
}

TEST(FaultInjection, LoopMasterAndWorkerDeathsRecover) {
  // Degree-4 loops keep ~all SPEs inside the Pass protocol, so killing two
  // SPEs mid-run exercises chunk reassignment and/or whole-task re-offload.
  const task::Workload wl = task::make_synthetic(2, small_workload());
  StaticHybridPolicy fault_free(4);
  const RunResult base = run_workload(wl, fault_free);

  RunConfig cfg;
  cfg.fault_script = {
      {sim::Time::ms(1.0), sim::FaultKind::FailStop, 1, 1.0},
      {sim::Time::ms(2.0), sim::FaultKind::FailStop, 4, 1.0},
  };
  StaticHybridPolicy pol(4);
  const RunResult r = run_workload(wl, pol, cfg);
  EXPECT_EQ(r.spe_failures, 2u);
  expect_all_complete(r);
  // Some recovery mechanism must have fired: chunk reassignment when a
  // worker dies, or task re-offload when a master dies.
  EXPECT_GT(r.loop_reassignments + r.reoffloads + r.timeouts +
                r.fault_ppe_fallbacks,
            0u);
  EXPECT_LT(r.makespan_s, base.makespan_s * 2.0);
}

TEST(FaultInjection, HeavySeededFailuresUnderLlpStillCompleteEverything) {
  // Regression: an abandoned loop (master fail-stopped after a watchdog
  // supersession) released its surviving workers outside any driver
  // callback, so a re-dispatch queued during the teardown stranded forever
  // and the run "finished" with zero bootstraps complete.  This seed and
  // shape reproduced the stall.
  task::SyntheticConfig scfg;
  scfg.tasks_per_bootstrap = 150;
  const task::Workload wl = task::make_synthetic(6, scfg);
  RunConfig cfg;
  cfg.fault.seed = 7;
  cfg.fault.spe_fail_rate = 0.5;
  StaticHybridPolicy pol(4);
  const RunResult r = run_workload(wl, pol, cfg);
  EXPECT_EQ(r.spe_failures, 4u);
  expect_all_complete(r);
}

TEST(FaultInjection, MgpsShrinksDegreeToSurvivingPool) {
  // One bootstrap: MGPS runs LLP.  After 2 of 8 SPEs fail-stop early, every
  // window evaluation sees a 6-SPE pool: degree = clamp(6/1, 1, 6/2) = 3.
  const task::Workload wl = task::make_synthetic(1, small_workload());
  RunConfig cfg;
  cfg.fault_script = {
      {sim::Time::ms(0.5), sim::FaultKind::FailStop, 6, 1.0},
      {sim::Time::ms(0.6), sim::FaultKind::FailStop, 7, 1.0},
  };
  MgpsPolicy mgps;
  const RunResult r = run_workload(wl, mgps, cfg);
  expect_all_complete(r);
  EXPECT_EQ(r.spe_failures, 2u);
  EXPECT_EQ(mgps.current_degree(), 3);
}

TEST(FaultInjection, TransientDmaFailuresAreRetriedToCompletion) {
  const task::Workload wl = task::make_synthetic(4, small_workload());
  RunConfig cfg;
  cfg.fault.seed = 99;
  cfg.fault.dma_fail_rate = 0.05;
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol, cfg);
  expect_all_complete(r);
  EXPECT_GT(r.dma_faults, 0u);
  EXPECT_GT(r.dma_retries, 0u);
  // Every retry answers an injected failure.
  EXPECT_LE(r.dma_retries, r.dma_faults);
}

TEST(FaultInjection, SevereStragglerTripsWatchdogAndStillFinishes) {
  const task::Workload wl = task::make_synthetic(4, small_workload());
  RunConfig cfg;
  // 20x derate blows through the 4x watchdog deadline: tasks landing on the
  // straggler are superseded and re-offloaded elsewhere.
  cfg.fault_script = {
      {sim::Time::ms(0.5), sim::FaultKind::Degrade, 3, 0.05},
  };
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol, cfg);
  expect_all_complete(r);
  EXPECT_EQ(r.stragglers, 1u);
  EXPECT_GT(r.timeouts, 0u);
  EXPECT_GT(r.reoffloads, 0u);
}

TEST(FaultInjection, WholePoolFailureFallsBackToPpe) {
  const task::Workload wl = task::make_synthetic(2, small_workload());
  RunConfig cfg;
  for (int s = 0; s < 8; ++s) {
    cfg.fault_script.push_back(
        {sim::Time::us(100.0 * (s + 1)), sim::FaultKind::FailStop, s, 1.0});
  }
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol, cfg);
  EXPECT_EQ(r.spe_failures, 8u);
  expect_all_complete(r);
  EXPECT_GT(r.fault_ppe_fallbacks, 0u);
}

TEST(FaultInjection, RetryBudgetExhaustionFallsBackToPpe) {
  // Every SPE straggles at 5% speed from t = 1 us, so every off-load blows
  // its watchdog while all eight SPEs stay healthy: only the retry budget
  // can send a task to the PPE.
  const task::Workload wl = task::make_synthetic(2, small_workload());
  RunConfig cfg;
  for (int s = 0; s < 8; ++s) {
    cfg.fault_script.push_back(
        {sim::Time::us(1.0), sim::FaultKind::Degrade, s, 0.05});
  }
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol, cfg);
  EdtlpPolicy clean_pol;
  const RunResult clean = run_workload(wl, clean_pol);
  expect_all_complete(r);
  EXPECT_EQ(r.spe_failures, 0u);
  EXPECT_GT(r.fault_ppe_fallbacks, 0u);
  // Each fallback follows the first attempt plus kMaxTaskRetries re-offloads,
  // every one of them timed out.
  EXPECT_EQ(r.timeouts,
            static_cast<std::uint64_t>(kMaxTaskRetries + 1) *
                r.fault_ppe_fallbacks);
  EXPECT_EQ(r.bootstrap_digests, clean.bootstrap_digests);
}

// Recovery actions must appear in the trace, in causal order: the fault is
// recorded before the watchdog that detects it, the watchdog before the
// re-offload it triggers, and a fault-path PPE fallback only after the pool
// was actually lost.

std::int64_t first_time(const trace::TraceSink& sink, trace::EventKind k) {
  for (const trace::Event& e : sink.events()) {
    if (e.kind == k) return e.t_ns;
  }
  return -1;
}

TEST(FaultInjection, StragglerRecoveryEventsAppearInCausalOrder) {
  const task::Workload wl = task::make_synthetic(4, small_workload());
  RunConfig cfg;
  cfg.fault_script = {
      {sim::Time::ms(0.5), sim::FaultKind::Degrade, 3, 0.05},
  };
  trace::TraceSink sink;
  cfg.trace = &sink;
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol, cfg);
  expect_all_complete(r);
  ASSERT_GT(r.timeouts, 0u);

  const std::int64_t t_degrade =
      first_time(sink, trace::EventKind::FaultDegrade);
  const std::int64_t t_watchdog =
      first_time(sink, trace::EventKind::WatchdogFire);
  const std::int64_t t_reoffload =
      first_time(sink, trace::EventKind::Reoffload);
  ASSERT_GE(t_degrade, 0) << "degrade event missing from trace";
  ASSERT_GE(t_watchdog, 0) << "watchdog event missing from trace";
  ASSERT_GE(t_reoffload, 0) << "re-offload event missing from trace";
  EXPECT_LE(t_degrade, t_watchdog);
  EXPECT_LE(t_watchdog, t_reoffload);
  EXPECT_EQ(sink.count(trace::EventKind::WatchdogFire), r.timeouts);
  EXPECT_EQ(sink.count(trace::EventKind::Reoffload), r.reoffloads);
}

TEST(FaultInjection, PpeFallbackTracedAfterWholePoolLost) {
  const task::Workload wl = task::make_synthetic(2, small_workload());
  RunConfig cfg;
  for (int s = 0; s < 8; ++s) {
    cfg.fault_script.push_back(
        {sim::Time::us(100.0 * (s + 1)), sim::FaultKind::FailStop, s, 1.0});
  }
  trace::TraceSink sink;
  cfg.trace = &sink;
  EdtlpPolicy pol;
  const RunResult r = run_workload(wl, pol, cfg);
  expect_all_complete(r);
  ASSERT_GT(r.fault_ppe_fallbacks, 0u);

  EXPECT_EQ(sink.count(trace::EventKind::FaultFailStop), 8u);
  // Every fault-path fallback (b=1) is traced, and causally after a fault:
  // none can precede the first fail-stop.
  const std::int64_t first_failstop =
      first_time(sink, trace::EventKind::FaultFailStop);
  ASSERT_GE(first_failstop, 0);
  std::uint64_t fault_fallbacks = 0;
  for (const trace::Event& e : sink.events()) {
    if (e.kind == trace::EventKind::PpeFallback && e.b == 1) {
      ++fault_fallbacks;
      EXPECT_GE(e.t_ns, first_failstop);
    }
  }
  EXPECT_EQ(fault_fallbacks, r.fault_ppe_fallbacks);
}

TEST(FaultInjection, ClusterReplaysBitIdentically) {
  const task::Workload wl = task::make_synthetic(12, small_workload());
  RunConfig cfg;
  cfg.fault.seed = 5;
  cfg.fault.spe_fail_rate = 0.2;
  cfg.fault.blade_fail_rate = 0.3;
  auto factory = [] {
    return std::unique_ptr<SchedulerPolicy>(new EdtlpPolicy());
  };
  const RunResult a = run_cluster(wl, factory, 4, cfg);
  const RunResult b = run_cluster(wl, factory, 4, cfg);
  expect_identical(a, b);
}

TEST(FaultInjection, BladeFailStopRedistributesUnfinishedBootstraps) {
  const task::Workload wl = task::make_synthetic(12, small_workload());
  auto factory = [] {
    return std::unique_ptr<SchedulerPolicy>(new EdtlpPolicy());
  };
  // Scan seeds for one where at least one blade fails (rate 0.5 makes the
  // no-failure draw rare); the scan itself is deterministic.
  bool exercised = false;
  for (std::uint64_t seed = 1; seed <= 20 && !exercised; ++seed) {
    RunConfig cfg;
    cfg.fault.seed = seed;
    cfg.fault.blade_fail_rate = 0.5;
    const RunResult r = run_cluster(wl, factory, 4, cfg);
    ASSERT_EQ(r.bootstrap_completion_s.size(), 12u);
    for (double c : r.bootstrap_completion_s) {
      EXPECT_GT(c, 0.0) << "seed=" << seed;
      EXPECT_LE(c, r.makespan_s + 1e-12) << "seed=" << seed;
    }
    if (r.recovered_bootstraps > 0) exercised = true;
  }
  EXPECT_TRUE(exercised) << "no seed in 1..20 failed a blade at rate 0.5";
}

TEST(FaultInjection, ClusterFaultFreeMatchesLegacyAggregation) {
  const task::Workload wl = task::make_synthetic(10, small_workload());
  auto factory = [] {
    return std::unique_ptr<SchedulerPolicy>(new EdtlpPolicy());
  };
  const RunResult r = run_cluster(wl, factory, 3, {});
  EXPECT_EQ(r.recovered_bootstraps, 0u);
  EXPECT_EQ(r.spe_failures, 0u);
  ASSERT_EQ(r.bootstrap_completion_s.size(), 10u);
  for (double c : r.bootstrap_completion_s) EXPECT_GT(c, 0.0);
  // Makespan equals the slowest blade, which any single completion respects.
  for (double c : r.bootstrap_completion_s) {
    EXPECT_LE(c, r.makespan_s + 1e-12);
  }
}

}  // namespace
}  // namespace cbe::rt
