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
// Execution is work-stealing (DESIGN.md §9): each worker owns a bounded
// Chase–Lev deque.  A task submitted from a worker thread of this pool is
// pushed lock-free onto that worker's own deque (the fast path — nested
// off-loads and parallel_for helpers never touch a lock); tasks submitted
// from outside, and overflow from a full deque, go through a mutex-guarded
// shared injection queue.  An idle worker drains its own deque LIFO, then
// the injection queue, then steals FIFO from its peers (lock-free CAS);
// only after all three come up empty does it park on a condition variable
// with a short timeout backstop, so a lost wakeup race costs at most one
// timeout period of latency, never liveness.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "native/work_deque.hpp"

namespace cbe::trace {
class FlightRecorder;
class Histogram;
class MetricsRegistry;
}  // namespace cbe::trace

namespace cbe::native {

class OffloadPool {
 public:
  /// `workers` <= 0 selects hardware_concurrency - 1 (min 1).
  explicit OffloadPool(int workers = 0);
  ~OffloadPool();

  OffloadPool(const OffloadPool&) = delete;
  OffloadPool& operator=(const OffloadPool&) = delete;

  int workers() const noexcept { return static_cast<int>(threads_.size()); }

  /// Off-loads a task; the returned future completes when it ran.
  std::future<void> offload(std::function<void()> task);

  /// Off-loads a computation with a result.
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

  std::uint64_t tasks_executed() const noexcept {
    return tasks_executed_.load(std::memory_order_relaxed);
  }
  /// Tasks a worker took from another worker's deque.
  std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Streams per-task dispatch/complete events into `rec` (timestamps are
  /// steady-clock ns since pool construction; spe=worker index).  Each
  /// worker records into its own ring of `rec`, so recording is lock-free;
  /// size the ring for the events to keep.  Pass nullptr to detach.  A task
  /// that started while `rec` was installed still records its completion
  /// into it, so `rec` must outlive every such task.  A no-op with
  /// CBE_TRACE=OFF.
  void set_trace(trace::FlightRecorder* rec) noexcept;
  /// Records per-task latency into `m`'s "native.task_us" histogram.
  /// Pass nullptr to detach.  A no-op with CBE_TRACE=OFF.
  void set_metrics(trace::MetricsRegistry* m);

 private:
  /// A queued task plus the causal span of its submitter, captured at
  /// enqueue() so the span survives the thread hop: the worker re-installs
  /// it before recording/running, and cell_profiler can attribute pool-side
  /// TaskDispatch/TaskComplete events to the job that off-loaded them.
  struct Job {
    std::function<void()> fn;
    std::uint64_t span = 0;  // trace::kNoSpan
  };

  void enqueue(std::function<void()> job);
  void worker_loop(int index);
  /// Wakes one parked worker iff any are parked (lock-free check first).
  void wake_one();
  /// Steals one task from a peer deque, scanning from `self + 1`.
  Job* try_steal(int self) noexcept;
  bool any_deque_nonempty() const noexcept;

  // Shared injection queue (external submitters + deque overflow) and the
  // park/wake channel; `mu_` guards queue_, stop_, work_epoch_, sleepers_.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job*> queue_;
  std::uint64_t work_epoch_ = 0;  ///< bumped per lock-free push, for waits
  std::atomic<int> sleepers_{0};  ///< parked workers (producers peek at it)
  // Per-worker Chase–Lev deques; stable addresses across the pool's life.
  std::vector<std::unique_ptr<WorkStealingDeque<Job>>> deques_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> steals_{0};

  // Observability (see set_trace / set_metrics).
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::atomic<trace::FlightRecorder*> trace_rec_{nullptr};
  std::atomic<trace::Histogram*> task_hist_{nullptr};
  std::atomic<std::uint64_t> next_task_id_{0};
};

}  // namespace cbe::native
