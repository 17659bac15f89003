// Stress suite for the offload pool — the tests the TSan CI job
// (CBE_SANITIZE=thread) runs to prove its one job queue and the park/wake
// protocol race-free.  Each test hammers one contended edge: many external
// producers, a worker blocked on subtasks that its peers must run, a park
// between every job, the parallel_for corner cases (0 iterations, fewer
// iterations than workers, throwing bodies, nesting, uneven tails), and
// NativeRuntime callers that run pool work while they wait on their
// off-loads.
#include "native/native_runtime.hpp"
#include "native/offload_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cbe::native {
namespace {

using namespace std::chrono_literals;

TEST(PoolStress, ManyExternalProducers) {
  OffloadPool pool(4);
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 500;
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  std::vector<std::future<void>> futures[kProducers];
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        futures[t].push_back(pool.offload_result(
            [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
      }
    });
  }
  for (auto& p : producers) p.join();
  for (auto& fs : futures) {
    for (auto& f : fs) f.get();
  }
  EXPECT_EQ(ran.load(), kProducers * kTasksPerProducer);
  // The counter is published before a job's future completes, so it is
  // exact the moment the last future resolves.
  EXPECT_EQ(pool.tasks_executed(),
            static_cast<std::uint64_t>(kProducers * kTasksPerProducer));
}

TEST(PoolStress, CountersAreExactOnceFuturesResolve) {
  // Regression for a counter published after the job body had already
  // completed the caller's future: a caller reading tasks_executed() right
  // after its last future resolved could see one task short.  Spinning on
  // the futures reads the counter within nanoseconds of completion, which
  // is the window that race needs.
  for (int round = 0; round < 200; ++round) {
    OffloadPool pool(2);
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 20; ++i) futs.push_back(pool.offload_result([] {}));
    for (auto& f : futs) {
      while (f.wait_for(0s) != std::future_status::ready) {
      }
    }
    ASSERT_EQ(pool.tasks_executed(), 20u) << "round " << round;
  }
}

TEST(PoolStress, BlockedSpawnerSubtasksRunOnPeers) {
  // One worker spawns subtasks and then blocks until they all finish.  The
  // spawner never takes a job while blocked, so its peers must run every
  // subtask, each exactly once.
  OffloadPool pool(4);
  constexpr int kSubtasks = 256;
  std::vector<std::atomic<int>> ran(kSubtasks);
  std::atomic<int> done{0};
  std::atomic<int> on_spawner{0};
  pool.offload_result([&] {
        const std::thread::id spawner = std::this_thread::get_id();
        for (int i = 0; i < kSubtasks; ++i) {
          pool.offload_result([&, spawner, i] {
            ran[static_cast<std::size_t>(i)].fetch_add(1);
            if (std::this_thread::get_id() == spawner) on_spawner.fetch_add(1);
            done.fetch_add(1, std::memory_order_release);
          });
        }
        while (done.load(std::memory_order_acquire) < kSubtasks) {
          std::this_thread::yield();
        }
      })
      .get();
  for (int i = 0; i < kSubtasks; ++i) {
    EXPECT_EQ(ran[static_cast<std::size_t>(i)].load(), 1) << "subtask " << i;
  }
  EXPECT_EQ(on_spawner.load(), 0);
}

TEST(PoolStress, SequentialRoundTripsNeverStall) {
  // One job at a time, each waited for before the next is submitted, so
  // the serving worker parks between every pair of jobs and must be woken
  // for each.  A lost wakeup hangs this test instead of slowing it down.
  constexpr int kRoundTrips = 10000;
  auto round_trips = [](OffloadPool& pool) {
    int sum = 0;
    for (int i = 0; i < kRoundTrips; ++i) {
      sum += pool.offload_result([i] { return i & 1; }).get();
    }
    return sum;
  };
  {
    OffloadPool pool(1);
    EXPECT_EQ(round_trips(pool), kRoundTrips / 2);
    EXPECT_EQ(pool.tasks_executed(), static_cast<std::uint64_t>(kRoundTrips));
  }
  {
    // The same loop inside a pool job: one worker submits and waits, the
    // other serves it.
    OffloadPool pool(2);
    EXPECT_EQ(pool.offload_result([&] { return round_trips(pool); }).get(),
              kRoundTrips / 2);
    EXPECT_EQ(pool.tasks_executed(),
              static_cast<std::uint64_t>(kRoundTrips + 1));
  }
}

TEST(PoolStress, ParallelForZeroIterations) {
  OffloadPool pool(3);
  std::atomic<int> calls{0};
  pool.parallel_for(
      0, 0, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); }, 4);
  pool.parallel_for(
      5, 5, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); }, 4);
  pool.parallel_for(
      9, 3, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); }, 4);
  EXPECT_EQ(calls.load(), 0);
}

TEST(PoolStress, ParallelForFewerIterationsThanWorkers) {
  OffloadPool pool(6);
  std::vector<std::atomic<int>> hit(3);
  pool.parallel_for(
      0, 3,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          hit[static_cast<std::size_t>(i)].fetch_add(1);
        }
      },
      pool.workers() + 1, 1);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(hit[i].load(), 1) << "index " << i;
}

TEST(PoolStress, ParallelForUnevenTailCoversEveryIndexOnce) {
  // Regression guard for the classic tail-chunk double-count: n not
  // divisible by the participant count or the grain (1003 = prime), with
  // master participation.  Every index must be visited exactly once.
  OffloadPool pool(4);
  constexpr std::int64_t kN = 1003;
  std::vector<std::atomic<int>> hit(kN);
  pool.parallel_for(
      0, kN,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          hit[static_cast<std::size_t>(i)].fetch_add(1);
        }
      },
      pool.workers() + 1, 8);
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hit[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(PoolStress, ParallelForThrowingBodyPropagatesAndPoolSurvives) {
  OffloadPool pool(4);
  std::atomic<int> attempts{0};
  EXPECT_THROW(
      pool.parallel_for(
          0, 10000,
          [&](std::int64_t lo, std::int64_t) {
            attempts.fetch_add(1);
            if (lo >= 128) throw std::runtime_error("chunk failed");
          },
          pool.workers() + 1, 16),
      std::runtime_error);
  // The pool must stay fully usable: run a clean loop afterwards.
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(
      0, 1000,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
      },
      pool.workers() + 1, 32);
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
  EXPECT_GT(attempts.load(), 0);
}

TEST(PoolStress, NestedParallelForStorm) {
  // parallel_for bodies that themselves parallel_for — the nesting case
  // that deadlocks naive fork-join pools.  Workers enqueue helpers while
  // their peers take jobs, so this also churns the one queue.
  OffloadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(
      0, 24,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          pool.parallel_for(
              0, 100,
              [&](std::int64_t ilo, std::int64_t ihi) {
                total.fetch_add(ihi - ilo, std::memory_order_relaxed);
              },
              pool.workers() + 1, 7);
        }
      },
      pool.workers() + 1, 1);
  EXPECT_EQ(total.load(), 24 * 100);
}

TEST(PoolStress, MixedStorm) {
  // Everything at once: external producers whose tasks sometimes throw,
  // and parallel_for on the main thread, sharing the same pool.
  OffloadPool pool(4);
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 50;
  std::atomic<int> throws{0};
  std::vector<std::thread> producers;
  std::vector<std::future<int>> futures[kProducers];
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        futures[t].push_back(pool.offload_result([&throws, i] {
          if (i % 3 == 0) {
            throws.fetch_add(1, std::memory_order_relaxed);
            throw std::runtime_error("task failed");
          }
          return i;
        }));
      }
    });
  }
  std::atomic<std::int64_t> loop_sum{0};
  for (int rep = 0; rep < 20; ++rep) {
    pool.parallel_for(
        0, 512,
        [&](std::int64_t lo, std::int64_t hi) {
          loop_sum.fetch_add(hi - lo, std::memory_order_relaxed);
        },
        pool.workers() + 1, 9);
  }
  for (auto& p : producers) p.join();
  int resolved = 0, failed = 0;
  for (auto& fs : futures) {
    for (auto& f : fs) {
      ++resolved;
      try {
        f.get();
      } catch (const std::runtime_error&) {
        ++failed;
      }
    }
  }
  EXPECT_EQ(resolved, kProducers * kTasksPerProducer);
  EXPECT_EQ(failed, throws.load());
  EXPECT_EQ(loop_sum.load(), 20 * 512);
}

TEST(PoolStress, WaitingCallersRunNestedLoopsExactlyOnce) {
  // Several external threads off-load through one runtime and wait in
  // batches, so each waiter runs other threads' tasks and their loops'
  // helpers while it waits.  Every task must run once and every index of
  // every task's nested parallel_for must be covered once.
  NativeRuntime rt(3);
  constexpr int kThreads = 4;
  constexpr int kTasksPerThread = 48;
  constexpr int kBatch = 3;
  constexpr std::int64_t kN = 61;
  constexpr int kTasks = kThreads * kTasksPerThread;
  std::vector<std::atomic<int>> ran(kTasks);
  std::vector<std::atomic<int>> hit(static_cast<std::size_t>(kTasks * kN));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<int>> batch;
      for (int i = 0; i < kTasksPerThread; ++i) {
        const int id = t * kTasksPerThread + i;
        batch.push_back(rt.offload(
            t,
            [&, id] {
              ran[static_cast<std::size_t>(id)].fetch_add(1);
              rt.parallel_for(
                  0, kN,
                  [&, id](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t j = lo; j < hi; ++j) {
                      hit[static_cast<std::size_t>(id * kN + j)].fetch_add(1);
                    }
                  },
                  5);
              return id;
            },
            kThreads));
        if (batch.size() == kBatch || i + 1 == kTasksPerThread) {
          for (auto& f : batch) f.get();
          batch.clear();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int id = 0; id < kTasks; ++id) {
    ASSERT_EQ(ran[static_cast<std::size_t>(id)].load(), 1) << "task " << id;
  }
  for (std::size_t j = 0; j < hit.size(); ++j) {
    ASSERT_EQ(hit[j].load(), 1) << "index " << j;
  }
}

TEST(PoolStress, ShutdownWithQueuedWorkDoesNotHangOrLeak) {
  // Destroy pools while tasks are still in flight, repeatedly: the
  // destructor must join cleanly and delete whatever never ran (ASan
  // verifies the no-leak half; TSan the no-race half).
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    {
      OffloadPool pool(2);
      for (int i = 0; i < 64; ++i) {
        pool.offload_result([&ran] {
          ran.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(50us);
        });
      }
      // Destructor runs here with most tasks still queued or running.
    }
    EXPECT_GE(ran.load(), 0);
  }
}

}  // namespace
}  // namespace cbe::native
