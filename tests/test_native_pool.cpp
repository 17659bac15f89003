#include "native/native_runtime.hpp"
#include "native/offload_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cbe::native {
namespace {

using namespace std::chrono_literals;

TEST(OffloadPool, ExecutesTasks) {
  OffloadPool pool(2);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 20; ++i) {
    futs.push_back(pool.offload_result([&count] { ++count; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 20);
  EXPECT_EQ(pool.tasks_executed(), 20u);
}

TEST(OffloadPool, ReturnsResults) {
  OffloadPool pool(2);
  auto f = pool.offload_result([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(OffloadPool, PropagatesExceptions) {
  OffloadPool pool(1);
  auto f = pool.offload_result(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(OffloadPool, DefaultsToAtLeastOneWorker) {
  OffloadPool pool(0);
  EXPECT_GE(pool.workers(), 1);
  auto f = pool.offload_result([] { return 1; });
  EXPECT_EQ(f.get(), 1);
}

TEST(OffloadPool, ParallelForCoversRangeExactlyOnce) {
  OffloadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&hits](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  }, /*degree=*/4, /*grain=*/16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(OffloadPool, ParallelForEmptyRangeIsNoop) {
  OffloadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 0);
}

TEST(OffloadPool, ParallelForDegreeOneRunsOnCaller) {
  OffloadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> all_on_caller{true};
  pool.parallel_for(0, 100, [&](std::int64_t, std::int64_t) {
    if (std::this_thread::get_id() != caller) all_on_caller = false;
  }, 1, 10);
  EXPECT_TRUE(all_on_caller.load());
}

TEST(OffloadPool, ParallelForComputesCorrectSum) {
  OffloadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(1, 10001, [&sum](std::int64_t lo, std::int64_t hi) {
    std::int64_t local = 0;
    for (std::int64_t i = lo; i < hi; ++i) local += i;
    sum.fetch_add(local);
  }, 5, 64);
  EXPECT_EQ(sum.load(), 10000ll * 10001 / 2);
}

TEST(OffloadPool, NestedParallelForDoesNotDeadlock) {
  // Regression: helpers queued behind blocked outer tasks must not wedge
  // the pool (the master participates and waits only on completed work).
  OffloadPool pool(2);
  std::vector<std::future<void>> futs;
  std::atomic<int> done{0};
  for (int t = 0; t < 8; ++t) {
    futs.push_back(pool.offload_result([&pool, &done] {
      std::atomic<int> inner{0};
      pool.parallel_for(0, 64, [&inner](std::int64_t lo, std::int64_t hi) {
        inner.fetch_add(static_cast<int>(hi - lo));
      }, 3, 4);
      if (inner.load() == 64) ++done;
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(done.load(), 8);
}

TEST(OffloadPool, ParallelForRethrowsBodyException) {
  OffloadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [&ran](std::int64_t lo, std::int64_t) {
                          if (lo >= 512) throw std::runtime_error("mid-loop");
                          ++ran;
                        },
                        4, 16),
      std::runtime_error);
  EXPECT_GT(ran.load(), 0);
  // The pool must stay fully usable after a failed loop.
  auto f = pool.offload_result([] { return 7; });
  EXPECT_EQ(f.get(), 7);
  std::atomic<int> ok{0};
  pool.parallel_for(0, 100, [&ok](std::int64_t lo, std::int64_t hi) {
    ok.fetch_add(static_cast<int>(hi - lo));
  }, 4, 8);
  EXPECT_EQ(ok.load(), 100);
}

TEST(OffloadPool, ParallelForExceptionWithOversubscribedDegree) {
  // degree > workers + 1 queues helpers that may never start; an error must
  // still unwind without waiting on them.
  OffloadPool pool(1);
  EXPECT_THROW(
      pool.parallel_for(0, 64,
                        [](std::int64_t, std::int64_t) {
                          throw std::logic_error("always");
                        },
                        8, 4),
      std::logic_error);
}

TEST(OffloadPool, ManySmallTasksStress) {
  OffloadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 2000; ++i) {
    futs.push_back(pool.offload_result([&count] { ++count; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 2000);
}

TEST(Governor, RecommendsSharingWhenStreamsAreScarce) {
  AdaptiveGovernor gov(8);
  EXPECT_EQ(gov.loop_degree(), 1);
  for (int i = 0; i < 8; ++i) gov.on_departure(0, /*live_streams=*/1);
  EXPECT_EQ(gov.loop_degree(), 8);
}

TEST(Governor, KeepsSequentialWhenStreamsAbound) {
  AdaptiveGovernor gov(8);
  for (int i = 0; i < 8; ++i) gov.on_departure(i, 8);
  EXPECT_EQ(gov.loop_degree(), 1);
}

TEST(Governor, SplitsPoolAcrossTwoStreams) {
  AdaptiveGovernor gov(8);
  for (int i = 0; i < 8; ++i) gov.on_departure(i % 2, 2);
  EXPECT_EQ(gov.loop_degree(), 4);
}

TEST(Governor, ReEvaluatesOnlyAtWindowBoundary) {
  AdaptiveGovernor gov(8);
  for (int i = 0; i < 7; ++i) {
    gov.on_departure(0, 1);
    EXPECT_EQ(gov.loop_degree(), 1);
  }
  gov.on_departure(0, 1);
  EXPECT_GT(gov.loop_degree(), 1);
}

TEST(NativeRuntime, OffloadDrivesGovernor) {
  NativeRuntime rt(4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(rt.offload(0, [] { return 1; }, 1));
  }
  int total = 0;
  for (auto& f : futs) total += f.get();
  EXPECT_EQ(total, 16);
  EXPECT_GT(rt.governor().loop_degree(), 1);  // single stream -> share loops
}

TEST(NativeRuntime, ThrowingTasksStillDriveGovernor) {
  // A task that throws is still a departure: it closes the U window like a
  // returning one, so one stream on a 3-worker pool shares loops across
  // all 4 participants (the workers plus the waiting caller).
  NativeRuntime rt(3);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < AdaptiveGovernor::kHistoryWindow; ++i) {
    futs.push_back(rt.offload(
        0, []() -> int { throw std::runtime_error("task failed"); }, 1));
  }
  for (auto& f : futs) EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_EQ(rt.governor().loop_degree(), 4);
}

/// Loop degree of a 3-worker runtime after one U window of `streams`
/// round-robin streams.
int degree_after_window(int streams) {
  NativeRuntime rt(3);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < AdaptiveGovernor::kHistoryWindow; ++i) {
    futs.push_back(rt.offload(i % streams, [] { return 1; }, streams));
  }
  for (auto& f : futs) f.get();
  return rt.governor().loop_degree();
}

TEST(Governor, ThreeWorkersPlusCallerAreFourParticipants) {
  // U < 4 participants shares each loop ceil(4 / U) ways, so at U = 2 no
  // worker idles; U >= 4 keeps loops sequential.
  EXPECT_EQ(degree_after_window(1), 4);
  EXPECT_EQ(degree_after_window(2), 2);
  EXPECT_EQ(degree_after_window(8), 1);
}

TEST(NativeRuntime, WaitingCallerRunsQueuedTasks) {
  // The only worker is held by a task that waits for a flag only a second
  // task sets.  Waiting on the second future must run it on this thread;
  // a caller that merely slept would see it run on the worker, after the
  // first task's deadline.
  NativeRuntime rt(1);
  std::atomic<bool> started{false}, flag{false};
  auto first = rt.offload(
      0,
      [&] {
        started = true;
        const auto deadline = std::chrono::steady_clock::now() + 3s;
        while (!flag && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(100us);
        }
        return flag.load();
      },
      2);
  while (!started) std::this_thread::sleep_for(100us);
  std::thread::id ran_on;
  auto second = rt.offload(
      1,
      [&] {
        ran_on = std::this_thread::get_id();
        flag = true;
      },
      2);
  second.get();
  EXPECT_TRUE(flag.load());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_TRUE(first.get());
  // Only the second task left the worker's hands.
  EXPECT_EQ(rt.pool().steals(), 1u);
}

TEST(NativeRuntime, DroppedFutureStillRunsItsTask) {
  // The returned future is deferred, but the task is the pool's: dropping
  // the future without get() must not drop the task.  The task may still
  // run while the runtime is destroyed, so its departure must find the
  // governor alive (TSan reports a use-after-free if the governor is
  // destroyed before the pool).
  std::atomic<int> ran{0};
  {
    NativeRuntime rt(1);
    rt.offload(0, [&ran] { ran.fetch_add(1); }, 1);
  }
  EXPECT_EQ(ran.load(), 1);
}

TEST(NativeRuntime, ParallelForUsesGovernorDegree) {
  NativeRuntime rt(4);
  std::atomic<std::int64_t> sum{0};
  rt.parallel_for(0, 256, [&sum](std::int64_t lo, std::int64_t hi) {
    sum.fetch_add(hi - lo);
  }, 16);
  EXPECT_EQ(sum.load(), 256);
}

}  // namespace
}  // namespace cbe::native
