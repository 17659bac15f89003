#include "runtime/mgps.hpp"
#include "runtime/policy.hpp"

#include <gtest/gtest.h>

namespace cbe::rt {
namespace {

RuntimeView view(int total = 8, int idle = 8, int waiting = 0,
                 int active = 0) {
  RuntimeView v;
  v.total_spes = total;
  v.spes_per_cell = total;
  v.idle_spes = idle;
  v.waiting_offloads = waiting;
  v.active_processes = active;
  return v;
}

task::TaskDesc loop_task(std::uint32_t iters = 228,
                         double cycles_per_iter = 1500.0) {
  task::TaskDesc t;
  t.loop.iterations = iters;
  t.loop.spe_cycles_per_iter = cycles_per_iter;
  return t;
}

TEST(LinuxPolicy, Characteristics) {
  LinuxPolicy p;
  EXPECT_EQ(p.name(), "Linux");
  EXPECT_TRUE(p.pin_processes());
  EXPECT_FALSE(p.yield_on_offload());
  EXPECT_FALSE(p.granularity_test());
  EXPECT_EQ(p.worker_count(3, 8), 3);
  EXPECT_EQ(p.worker_count(20, 8), 8);
  EXPECT_EQ(p.loop_degree(view(), loop_task()), 1);
}

TEST(EdtlpPolicy, Characteristics) {
  EdtlpPolicy p;
  EXPECT_EQ(p.name(), "EDTLP");
  EXPECT_FALSE(p.pin_processes());
  EXPECT_TRUE(p.yield_on_offload());
  EXPECT_TRUE(p.granularity_test());
  EXPECT_EQ(p.worker_count(100, 8), 8);
  EXPECT_EQ(p.loop_degree(view(), loop_task()), 1);
}

TEST(StaticHybridPolicy, WorkerCountLeavesRoomForLoops) {
  StaticHybridPolicy p2(2), p4(4), p8(8);
  EXPECT_EQ(p2.worker_count(100, 8), 4);
  EXPECT_EQ(p4.worker_count(100, 8), 2);
  EXPECT_EQ(p8.worker_count(100, 8), 1);
  EXPECT_EQ(p4.worker_count(1, 8), 1);
  EXPECT_EQ(p4.loop_degree(view(), loop_task()), 4);
  EXPECT_EQ(p4.name(), "EDTLP-LLP(4)");
}

TEST(StaticHybridPolicy, NonParallelizableLoopStaysSequential) {
  StaticHybridPolicy p(4);
  EXPECT_EQ(p.loop_degree(view(), loop_task(1)), 1);
  EXPECT_EQ(p.loop_degree(view(), loop_task(0)), 1);
}

TEST(Mgps, StartsConservativelySequential) {
  MgpsPolicy p;
  EXPECT_EQ(p.current_degree(), 1);
  EXPECT_EQ(p.loop_degree(view(), loop_task()), 1);
}

TEST(Mgps, ActivatesLlpWhenTlpIsLow) {
  MgpsPolicy p;
  // Two processes off-loading; 8 departures complete the window.
  for (int i = 0; i < 8; ++i) {
    p.on_offload(view(), i % 2);
    p.on_departure(view(8, 6, 0, /*active=*/2), i % 2);
  }
  // U = 2 <= 4 -> degree = 8 / 2 = 4.
  EXPECT_EQ(p.current_degree(), 4);
  EXPECT_EQ(p.loop_degree(view(), loop_task()), 4);
}

TEST(Mgps, StaysEdtlpWhenTlpIsHigh) {
  MgpsPolicy p;
  for (int i = 0; i < 8; ++i) {
    p.on_offload(view(), i);  // 8 distinct processes
    p.on_departure(view(8, 0, 2, 8), i);
  }
  EXPECT_EQ(p.current_degree(), 1);
}

TEST(Mgps, DeactivatesLlpWhenTlpReturns) {
  MgpsPolicy p;
  for (int i = 0; i < 8; ++i) p.on_departure(view(8, 6, 0, 2), i % 2);
  EXPECT_GT(p.current_degree(), 1);
  for (int i = 0; i < 8; ++i) p.on_departure(view(8, 0, 1, 8), i);
  EXPECT_EQ(p.current_degree(), 1);
}

TEST(Mgps, EvaluatesOnlyAtWindowBoundaries) {
  MgpsPolicy p(/*history_window=*/8);
  for (int i = 0; i < 7; ++i) {
    p.on_departure(view(8, 6, 0, 1), 0);
    EXPECT_EQ(p.current_degree(), 1) << "premature adaptation at " << i;
  }
  p.on_departure(view(8, 6, 0, 1), 0);
  EXPECT_GT(p.current_degree(), 1);
}

TEST(Mgps, DegreeCappedAtHalfLocalPool) {
  MgpsPolicy p;
  for (int i = 0; i < 8; ++i) p.on_departure(view(8, 7, 0, 1), 0);
  // T = 1 would give 8, but the cap keeps it at 4 (Table 2's sweet spot).
  EXPECT_EQ(p.current_degree(), 4);
}

TEST(Mgps, TwoCellBladeUsesLocalPool) {
  MgpsPolicy p;
  RuntimeView v = view(16, 14, 0, 2);
  v.spes_per_cell = 8;
  for (int i = 0; i < 8; ++i) p.on_departure(v, i % 2);
  // 2 tasks over 2 cells -> 1 per cell -> degree = min(8/1, 8/2 cap) = 4.
  EXPECT_EQ(p.current_degree(), 4);
}

TEST(Mgps, ChunkGuardShrinksDegreeForTinyLoops) {
  MgpsPolicy p;
  for (int i = 0; i < 8; ++i) p.on_departure(view(8, 6, 0, 2), i % 2);
  ASSERT_EQ(p.current_degree(), 4);
  // A large loop keeps the full degree; a tiny one is not worth sharing.
  EXPECT_EQ(p.loop_degree(view(), loop_task(228, 1500.0)), 4);
  EXPECT_EQ(p.loop_degree(view(), loop_task(228, 100.0)), 1);
  // Mid-sized loops get an intermediate degree.
  EXPECT_EQ(p.loop_degree(view(), loop_task(228, 200.0)), 2);
}

TEST(Mgps, TimerFallbackAdapts) {
  MgpsPolicy p;
  // No departures at all; the timer should still trigger adaptation using
  // the live process count.
  p.on_timer(view(8, 7, 0, /*active=*/1));
  EXPECT_GT(p.current_degree(), 1);
}

TEST(Mgps, TimerWithEmptyHistoryAndIdleMachineIsSafe) {
  MgpsPolicy p;
  // Nothing has off-loaded yet: the window is empty and no process is live.
  // U degenerates to 0 and T clamps to 1; the evaluation must not divide by
  // zero or go out of range, and lands on the capped full-pool degree.
  p.on_timer(view(8, 8, 0, /*active=*/0));
  EXPECT_EQ(p.current_degree(), 4);
}

TEST(Mgps, TimerWithSaturatedMachineStaysSequential) {
  MgpsPolicy p;
  p.on_timer(view(8, 0, 2, /*active=*/8));
  EXPECT_EQ(p.current_degree(), 1);
}

TEST(Mgps, FailedSpesShrinkDegree) {
  MgpsPolicy p;
  RuntimeView v = view(8, 5, 0, /*active=*/1);
  v.failed_spes = 2;
  // Surviving pool = 6: U = 1 <= 3 keeps LLP on, degree = clamp(6, 1, 3).
  p.on_timer(v);
  EXPECT_EQ(p.current_degree(), 3);
}

TEST(Mgps, MostlyFailedPoolDegeneratesToSequential) {
  MgpsPolicy p;
  RuntimeView v = view(8, 1, 0, /*active=*/1);
  v.failed_spes = 6;
  p.on_timer(v);
  EXPECT_EQ(p.current_degree(), 1);
}

TEST(Mgps, LoopDegreeClampedByIdleSpes) {
  MgpsPolicy p;
  for (int i = 0; i < 8; ++i) p.on_departure(view(8, 6, 0, 2), i % 2);
  ASSERT_EQ(p.current_degree(), 4);
  // The pool shrank since the window evaluation: only 2 SPEs are idle now.
  EXPECT_EQ(p.loop_degree(view(8, /*idle=*/2), loop_task()), 2);
  // Queued dispatches (no SPE idle) keep the evaluated degree for later.
  EXPECT_EQ(p.loop_degree(view(8, /*idle=*/0), loop_task()), 4);
}

TEST(Mgps, WorkerCountLikeEdtlp) {
  MgpsPolicy p;
  EXPECT_EQ(p.worker_count(3, 8), 3);
  EXPECT_EQ(p.worker_count(100, 8), 8);
}

}  // namespace
}  // namespace cbe::rt
