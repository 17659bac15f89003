#include "native/offload_pool.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace cbe::native {

int OffloadPool::resolve_workers(int workers) noexcept {
  if (workers > 0) return workers;
  return std::max(1u, std::thread::hardware_concurrency()) > 1
             ? static_cast<int>(std::thread::hardware_concurrency()) - 1
             : 1;
}

OffloadPool::OffloadPool(int workers) {
  workers = resolve_workers(workers);
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

OffloadPool::~OffloadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // Workers drain the queue before exiting; a job submitted after the last
  // one left is destroyed with queue_, never run.
  for (auto& t : threads_) t.join();
}

void OffloadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(Job{std::move(job), trace::current_span()});
  }
  cv_.notify_one();
}

OffloadPool::Job OffloadPool::pop_locked() {
  Job job = std::move(queue_.front());
  queue_.pop_front();
  return job;
}

void OffloadPool::worker_loop() {
  for (;;) {
    std::unique_lock lock(mu_);
    // Every push happens under mu_ and is followed by notify_one, so a
    // worker that sees an empty queue here cannot miss the next job.
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and every queued job ran
    Job job = pop_locked();
    lock.unlock();
    run(job);
  }
}

void OffloadPool::run(Job& job) {
  // Re-install the submitter's span for the task's whole execution, so
  // trace events the task emits and any nested enqueue() inherit it.
  trace::ScopedSpan span(job.span);
  // Counted before the body runs: the body completes the caller's future,
  // and a caller that waited on it must read a count that includes it.
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  job.fn();
}

bool OffloadPool::try_run_one() {
  std::unique_lock lock(mu_);
  if (queue_.empty()) return false;
  Job job = pop_locked();
  lock.unlock();
  steals_.fetch_add(1, std::memory_order_relaxed);
  run(job);
  return true;
}

void OffloadPool::parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& body, int degree,
    std::int64_t grain) {
  if (begin >= end) return;
  grain = std::max<std::int64_t>(grain, 1);
  degree = std::clamp(degree, 1, workers() + 1);

  // Shared, self-contained loop state.  Chunks are claimed from one atomic
  // cursor, so every index in [begin, end) is covered by exactly one chunk
  // — including the short tail when the trip count does not divide evenly
  // (hi is clamped to end; the next claimant sees lo >= end and stops).
  // Helpers that start late (or after the loop already finished) find the
  // cursor exhausted and return, so the master never has to wait for
  // *queued-but-unstarted* helpers — that wait is what would deadlock a
  // pool whose workers nest parallel_for inside off-loaded tasks.  The
  // master instead waits on the completed-iteration counter, which only
  // running participants advance.  Helper tasks go through enqueue() like
  // any job, so whichever worker or waiting caller is idle picks them up.
  struct LoopState {
    std::atomic<std::int64_t> cursor;
    std::atomic<std::int64_t> completed{0};
    std::atomic<int> inflight{0};  ///< participants inside run_chunks
    std::atomic<bool> has_error{false};
    std::int64_t end;
    std::int64_t grain;
    std::function<void(std::int64_t, std::int64_t)> body;
    std::mutex err_mu;
    std::exception_ptr error;
  };
  auto st = std::make_shared<LoopState>();
  st->cursor.store(begin, std::memory_order_relaxed);
  st->end = end;
  st->grain = grain;
  st->body = body;

  auto run_chunks = [](LoopState& s) {
    s.inflight.fetch_add(1, std::memory_order_acq_rel);
    for (;;) {
      if (s.has_error.load(std::memory_order_acquire)) break;
      const std::int64_t lo =
          s.cursor.fetch_add(s.grain, std::memory_order_relaxed);
      if (lo >= s.end) break;
      const std::int64_t hi = std::min(lo + s.grain, s.end);
      try {
        s.body(lo, hi);
      } catch (...) {
        {
          std::lock_guard lk(s.err_mu);
          if (!s.error) s.error = std::current_exception();
        }
        s.has_error.store(true, std::memory_order_release);
        // Exhaust the cursor so no further chunk is claimed.
        s.cursor.store(s.end, std::memory_order_relaxed);
        break;
      }
      s.completed.fetch_add(hi - lo, std::memory_order_acq_rel);
    }
    s.inflight.fetch_sub(1, std::memory_order_acq_rel);
  };

  for (int i = 0; i < degree - 1; ++i) {
    enqueue([st, run_chunks] { run_chunks(*st); });
  }
  run_chunks(*st);  // master participates
  // A thrown chunk never counts toward `completed`, so an error always
  // lands in the second exit condition; waiting for inflight to drain
  // guarantees no participant is still inside the body when we rethrow
  // (queued-but-unstarted helpers bail on has_error without touching it).
  const std::int64_t total = end - begin;
  while (st->completed.load(std::memory_order_acquire) < total) {
    if (st->has_error.load(std::memory_order_acquire) &&
        st->inflight.load(std::memory_order_acquire) == 0) {
      break;
    }
    std::this_thread::yield();
  }
  if (st->has_error.load(std::memory_order_acquire)) {
    std::lock_guard lk(st->err_mu);
    std::rethrow_exception(st->error);
  }
}

}  // namespace cbe::native
