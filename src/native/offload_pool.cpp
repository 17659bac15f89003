#include "native/offload_pool.hpp"

#include <algorithm>
#include <chrono>

#include "trace/trace.hpp"

namespace cbe::native {

namespace {

/// Identifies the pool (if any) the current thread is a worker of, so
/// enqueue() can take the lock-free own-deque fast path.  Pool identity is
/// checked on every use: threads of pool A submitting into pool B go
/// through B's injection queue like any external thread.
struct WorkerTls {
  OffloadPool* pool = nullptr;
  int index = -1;
};
thread_local WorkerTls tls_worker;

}  // namespace

int OffloadPool::resolve_workers(int workers) noexcept {
  if (workers > 0) return workers;
  return std::max(1u, std::thread::hardware_concurrency()) > 1
             ? static_cast<int>(std::thread::hardware_concurrency()) - 1
             : 1;
}

OffloadPool::OffloadPool(int workers) {
  workers = resolve_workers(workers);
  deques_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    deques_.push_back(std::make_unique<WorkStealingDeque<Job>>());
  }
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

OffloadPool::~OffloadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
    ++work_epoch_;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
  // Workers drain everything before exiting; anything left here means a
  // task was submitted after shutdown began — never run, but not leaked.
  for (Job* j : queue_) delete j;
  for (auto& d : deques_) {
    while (Job* j = d->pop()) delete j;
  }
}

void OffloadPool::wake_one() {
  // Lock-free in the common no-sleepers case.  When someone is (or is
  // about to be) parked, bump the epoch under the lock so the sleeper's
  // predicate observes it; a sleeper that raced past the check parks for
  // at most one wait_for timeout.
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  {
    std::lock_guard lock(mu_);
    ++work_epoch_;
  }
  cv_.notify_one();
}

void OffloadPool::enqueue(std::function<void()> job) {
  auto* node = new Job{std::move(job), trace::current_span()};
  if (tls_worker.pool == this && tls_worker.index >= 0 &&
      deques_[static_cast<std::size_t>(tls_worker.index)]->push(node)) {
    wake_one();  // lock-free fast path: own-deque push succeeded
    return;
  }
  // External submitter, or the own deque is full: shared injection queue.
  {
    std::lock_guard lock(mu_);
    queue_.push_back(node);
    ++work_epoch_;
  }
  cv_.notify_one();
}

OffloadPool::Job* OffloadPool::pop_injected() {
  std::lock_guard lock(mu_);
  if (queue_.empty()) return nullptr;
  Job* job = queue_.front();
  queue_.pop_front();
  return job;
}

OffloadPool::Job* OffloadPool::try_steal(int self) noexcept {
  const int n = static_cast<int>(deques_.size());
  // Two sweeps so one lost CAS per victim doesn't abandon a loaded deque.
  for (int round = 0; round < 2; ++round) {
    for (int k = 0; k < n; ++k) {
      const int victim = (self + 1 + k) % n;
      if (victim == self) continue;
      if (Job* j = deques_[static_cast<std::size_t>(victim)]->steal()) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        return j;
      }
    }
  }
  return nullptr;
}

bool OffloadPool::any_deque_nonempty() const noexcept {
  for (const auto& d : deques_) {
    if (d->maybe_nonempty()) return true;
  }
  return false;
}

void OffloadPool::worker_loop(int index) {
  tls_worker = WorkerTls{this, index};
  WorkStealingDeque<Job>& own = *deques_[static_cast<std::size_t>(index)];
  for (;;) {
    // Own deque (LIFO, lock-free) -> injection queue -> steal (FIFO).
    Job* job = own.pop();
    if (job == nullptr) job = pop_injected();
    if (job == nullptr) job = try_steal(index);
    if (job == nullptr) {
      std::unique_lock lock(mu_);
      if (!queue_.empty()) continue;  // raced an injection: rescan
      if (stop_) {
        lock.unlock();
        // Drain stragglers other workers left behind before exiting: a
        // worker only exits once every visible source is empty.
        if (any_deque_nonempty()) continue;
        return;
      }
      const std::uint64_t epoch = work_epoch_;
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      // The timeout is the backstop for the one benign race (a producer
      // that read sleepers_ == 0 just before this park): it bounds the
      // latency of a lost wakeup, it is not needed for correctness of
      // shutdown (stop_ bumps the epoch under the lock).
      cv_.wait_for(lock, std::chrono::milliseconds(1), [this, epoch] {
        return stop_ || !queue_.empty() || work_epoch_ != epoch;
      });
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      continue;
    }
    run(job);
  }
}

void OffloadPool::run(Job* job) {
  // Re-install the submitter's span for the task's whole execution, so
  // trace events the task emits and any nested enqueue() inherit it.
  trace::ScopedSpan span(job->span);
  // Counted before the body runs: the body completes the caller's future,
  // and a caller that waited on it must read a count that includes it.
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  job->fn();
  delete job;
}

bool OffloadPool::try_run_one() {
  Job* job = pop_injected();
  if (job == nullptr) job = try_steal(-1);
  if (job == nullptr) return false;
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
  // running participants advance.  Helper tasks are submitted through
  // enqueue(), so a helper spawned from a worker lands in that worker's
  // own deque and idle peers pick it up by stealing.
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
