// Structural invariants of the traced event stream: whatever the schedule,
// the trace must tell a story consistent with the run's own accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "runtime/mgps.hpp"
#include "runtime/policy.hpp"
#include "runtime/sim_runtime.hpp"
#include "task/synthetic.hpp"
#include "trace/trace.hpp"

namespace cbe::rt {
namespace {

task::SyntheticConfig small_workload() {
  task::SyntheticConfig cfg;
  cfg.tasks_per_bootstrap = 120;
  return cfg;
}

struct TracedRun {
  trace::TraceSink sink;
  RunResult result;
};

TracedRun traced_mgps_run(int bootstraps, RunConfig cfg = {}) {
  TracedRun out;
  const task::Workload wl = task::make_synthetic(bootstraps, small_workload());
  cfg.trace = &out.sink;
  MgpsPolicy mgps;
  out.result = run_workload(wl, mgps, cfg);
  return out;
}

TEST(TraceInvariantsTest, TimestampsAreMonotoneAndInsideTheRun) {
  const TracedRun run = traced_mgps_run(4);
  ASSERT_FALSE(run.sink.empty());
  const auto makespan_ns =
      static_cast<std::int64_t>(std::llround(run.result.makespan_s * 1e9));
  std::int64_t prev = 0;
  for (const trace::Event& e : run.sink.events()) {
    EXPECT_GE(e.t_ns, prev);  // single-threaded sim: totally ordered
    EXPECT_LE(e.t_ns, makespan_ns);
    prev = e.t_ns;
  }
}

TEST(TraceInvariantsTest, EveryDispatchHasAMatchingComplete) {
  const TracedRun run = traced_mgps_run(4);
  // Fault-free: dispatches and completions pair up exactly, globally and
  // per process, and completions never precede their dispatch.
  std::map<int, int> open_per_pid;
  std::uint64_t dispatches = 0;
  std::uint64_t completes = 0;
  for (const trace::Event& e : run.sink.events()) {
    if (e.kind == trace::EventKind::TaskDispatch) {
      ++dispatches;
      ++open_per_pid[e.pid];
    } else if (e.kind == trace::EventKind::TaskComplete) {
      ++completes;
      ASSERT_GT(open_per_pid[e.pid], 0)
          << "completion without a dispatch for pid " << e.pid;
      --open_per_pid[e.pid];
    }
  }
  EXPECT_EQ(dispatches, run.result.offloads);
  EXPECT_EQ(completes, dispatches);
  for (const auto& [pid, open] : open_per_pid) {
    EXPECT_EQ(open, 0) << "pid " << pid << " left an offload open";
  }
}

TEST(TraceInvariantsTest, BusyIdleSpansAlternateAndFitTheMakespan) {
  const TracedRun run = traced_mgps_run(4);
  const auto makespan_ns =
      static_cast<std::int64_t>(std::llround(run.result.makespan_s * 1e9));
  std::map<int, std::int64_t> busy_since;   // spe -> open span start
  std::map<int, std::int64_t> busy_total;   // spe -> closed busy ns
  for (const trace::Event& e : run.sink.events()) {
    if (e.kind == trace::EventKind::SpeBusy) {
      ASSERT_EQ(busy_since.count(e.spe), 0u)
          << "SPE " << e.spe << " reserved twice";
      busy_since[e.spe] = e.t_ns;
    } else if (e.kind == trace::EventKind::SpeIdle) {
      auto it = busy_since.find(e.spe);
      ASSERT_NE(it, busy_since.end())
          << "SPE " << e.spe << " released while idle";
      busy_total[e.spe] += e.t_ns - it->second;
      busy_since.erase(it);
    }
  }
  EXPECT_TRUE(busy_since.empty()) << "a reservation never released";
  double util_sum = 0.0;
  for (const auto& [spe, busy] : busy_total) {
    EXPECT_LE(busy, makespan_ns) << "SPE " << spe << " busy beyond makespan";
    util_sum += static_cast<double>(busy);
  }
  // The trace's busy spans reproduce the machine's utilization accounting.
  const double util_traced =
      util_sum / (8.0 * static_cast<double>(makespan_ns));
  EXPECT_NEAR(util_traced, run.result.mean_spe_utilization, 1e-6);
}

TEST(TraceInvariantsTest, DmaEventsMatchTheMachineCounters) {
  const TracedRun run = traced_mgps_run(4);
  std::uint64_t issues = 0;
  std::uint64_t retires = 0;
  double issued_bytes = 0.0;
  std::map<int, int> open_dmas;  // dma id -> outstanding count
  for (const trace::Event& e : run.sink.events()) {
    if (e.kind == trace::EventKind::DmaIssue) {
      ++issues;
      issued_bytes += static_cast<double>(e.a);
      ++open_dmas[e.pid];
    } else if (e.kind == trace::EventKind::DmaRetire) {
      ++retires;
      ASSERT_GT(open_dmas[e.pid], 0) << "retire without issue, id " << e.pid;
      --open_dmas[e.pid];
    }
  }
  EXPECT_GT(issues, 0u);
  EXPECT_EQ(issues, retires);  // the engine drains every transfer
  // Event payloads carry rounded byte counts; the machine accumulates exact
  // doubles — they must agree to rounding error.
  EXPECT_NEAR(issued_bytes, run.result.dma_bytes,
              static_cast<double>(issues));
}

TEST(TraceInvariantsTest, LoopForkAndJoinPairUpFaultFree) {
  const TracedRun run = traced_mgps_run(2);
  const std::uint64_t forks = run.sink.count(trace::EventKind::LoopFork);
  const std::uint64_t joins = run.sink.count(trace::EventKind::LoopJoin);
  EXPECT_EQ(forks, joins);
  EXPECT_EQ(forks, run.result.loop_splits);
}

TEST(TraceInvariantsTest, FaultyRunStillBalancesDmaIssueAndRetire) {
  RunConfig cfg;
  cfg.fault.seed = 99;
  cfg.fault.spe_fail_rate = 0.25;
  cfg.fault.dma_fail_rate = 0.05;
  const TracedRun run = traced_mgps_run(4, cfg);
  // Even with fail-stops mid-transfer the retire always fires (recorded
  // before the usability check), so issue/retire stay balanced.
  EXPECT_EQ(run.sink.count(trace::EventKind::DmaIssue),
            run.sink.count(trace::EventKind::DmaRetire));
  EXPECT_EQ(run.sink.count(trace::EventKind::DmaFault),
            run.result.dma_faults);
  EXPECT_EQ(run.sink.count(trace::EventKind::FaultFailStop),
            run.result.spe_failures);
}

TEST(TraceInvariantsTest, SinkRestoredAfterRun) {
  // run_workload installs the sink only for the run's duration.
  EXPECT_EQ(trace::current(), nullptr);
  const TracedRun run = traced_mgps_run(1);
  EXPECT_EQ(trace::current(), nullptr);
  EXPECT_FALSE(run.sink.empty());
}

}  // namespace
}  // namespace cbe::rt
