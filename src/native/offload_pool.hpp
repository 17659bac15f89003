// Host-threads backend: the runtime's scheduling ideas (event-driven task
// off-loading plus adaptive loop work-sharing) running on real std::thread
// workers instead of the simulated SPEs.  This is what makes the library
// usable outside the simulator: examples off-load real kernels here.
//
// The pool mirrors the Cell topology: a fixed set of "SPE" workers that
// serve off-loaded tasks, and a work-sharing primitive that splits a loop
// across the *idle* workers, master-participating — the host analogue of the
// paper's LLP executor.
//
// Execution mirrors the EDTLP runtime's one wait queue (DESIGN.md §9): every
// job, whichever thread submits it, goes onto one mutex-guarded FIFO, and
// the submitter notifies one parked worker.  An idle worker takes the
// oldest job or parks on a plain condition-variable wait.  A thread outside
// the pool that waits on it can lend itself too: try_run_one() runs one
// queued job on the calling thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cbe::native {

class OffloadPool {
 public:
  /// `workers` <= 0 selects hardware_concurrency - 1 (min 1).
  explicit OffloadPool(int workers = 0);
  /// The number of workers OffloadPool(workers) starts.
  static int resolve_workers(int workers) noexcept;
  ~OffloadPool();

  OffloadPool(const OffloadPool&) = delete;
  OffloadPool& operator=(const OffloadPool&) = delete;

  int workers() const noexcept { return static_cast<int>(threads_.size()); }

  /// Off-loads a computation; the returned future holds its result (or its
  /// exception) once it ran.
  template <typename F, typename R = std::invoke_result_t<F>>
  std::future<R> offload_result(F&& f) {
    auto prom = std::make_shared<std::promise<R>>();
    std::future<R> fut = prom->get_future();
    enqueue([prom, fn = std::forward<F>(f)]() mutable {
      try {
        if constexpr (std::is_void_v<R>) {
          fn();
          prom->set_value();
        } else {
          prom->set_value(fn());
        }
      } catch (...) {
        prom->set_exception(std::current_exception());
      }
    });
    return fut;
  }

  /// Work-shares [begin, end) across up to `degree` participants (the
  /// calling thread included, playing the master SPE).  Chunks are claimed
  /// dynamically from an atomic cursor (grain-sized), so late-starting
  /// workers self-balance — the host analogue of the paper's purposeful
  /// load unbalancing.  Blocks until the whole range is done.
  ///
  /// If the body throws, the first exception is captured, remaining chunks
  /// are abandoned, and the exception is rethrown here on the caller once
  /// every running participant has stopped.  The pool stays usable.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>&
                        body,
                    int degree, std::int64_t grain = 256);

  /// Runs the oldest queued job on the calling thread; false when nothing
  /// was queued.  This is how a thread that waits on the pool lends itself
  /// to it (NativeRuntime::offload's futures call it while they wait).
  bool try_run_one();

  std::uint64_t tasks_executed() const noexcept {
    return tasks_executed_.load(std::memory_order_relaxed);
  }
  /// Jobs run through try_run_one(), by a thread waiting on the pool rather
  /// than by a worker's own loop.  (The name predates the single queue: it
  /// once counted jobs stolen from a peer worker's deque, and `cbe_e2e`
  /// reports it as `native.steals`.)
  std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  /// A queued task plus the causal span of its submitter, captured at
  /// enqueue() so the span survives the thread hop: the worker re-installs
  /// it while the task runs, so trace events the task emits (and tasks it
  /// enqueues in turn) carry the span of the job that off-loaded it.
  struct Job {
    std::function<void()> fn;
    std::uint64_t span = 0;  // trace::kNoSpan
  };

  void enqueue(std::function<void()> job);
  void worker_loop();
  /// The one run path of a job, whichever thread took it: re-install the
  /// submitter's span, count the job, call it.
  void run(Job& job);
  /// Moves the oldest job out of the queue; the caller holds mu_ and has
  /// seen the queue non-empty.
  Job pop_locked();

  // The one job queue; `mu_` guards queue_ and stop_, and cv_ parks idle
  // workers until either changes.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace cbe::native
