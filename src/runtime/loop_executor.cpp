#include "runtime/loop_executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "cellsim/mfc.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace cbe::rt {

void LoopExecutor::set_metrics(trace::MetricsRegistry* m) {
#if CBE_TRACE_ENABLED
  imbalance_hist_ =
      m != nullptr ? &m->histogram("loop_imbalance_pct") : nullptr;
#else
  (void)m;
#endif
}

void LoopBalancer::observe(double master_idle_us, double worker_wait_us,
                           double loop_span_us) noexcept {
  if (!adaptive_ || loop_span_us <= 0.0) return;
  // If the master sat idle waiting for workers, its share was too small;
  // if worker results waited on the master, its share was too big.  Step
  // proportional to the imbalance, capped for stability.
  const double imbalance = (master_idle_us - worker_wait_us) / loop_span_us;
  const double step = std::clamp(imbalance * 0.5, -0.10, 0.10);
  bias_ = std::clamp(bias_ * (1.0 + step), 0.5, 3.0);
}

/// Per-invocation state of one work-shared loop.  A pooled record: every
/// pending callback of the loop holds a Ref, and the record returns to the
/// executor's pool after the last one (or after abandonment, once the dead
/// loop's stragglers drain).  Per-SPE arrays are indexed by SPE id and keep
/// their capacity across reuse.
struct LoopState : sim::Pooled<LoopState> {
  cell::CellMachine* m = nullptr;
  sim::Engine* eng = nullptr;
  LoopBalancer* bal = nullptr;
  int master = -1;
  int degree = 1;
  std::uint16_t module_id = 0;
  double cycles_per_iter = 0.0;
  double bytes_in_per_iter = 0.0;
  double join_cycles_per_worker = 0.0;
  double clock = 1.0;
  double send_us = 0.0;
  int max_dma_retries = 0;
  std::uint64_t* reassigned_ctr = nullptr;
  std::uint64_t* retry_ctr = nullptr;
  trace::Histogram* imbalance_hist = nullptr;
  /// Fires on dead-loop SPE releases (the executor's hook).
  const std::function<void()>* release_hook = nullptr;

  std::uint32_t master_iters = 0;
  std::vector<int> workers;          ///< in Pass-send order
  std::vector<std::uint32_t> share;  ///< per SPE: the worker's iterations
  /// Per SPE: a worker whose result has not been computed yet; cleared at
  /// chunk-compute completion, so a later worker death cannot reassign work
  /// whose Pass is already in flight.
  std::vector<bool> pending;
  /// Per SPE: workers whose fetch chain has started; they release
  /// themselves even if the master dies.  Unstarted workers are freed by
  /// the master-death hook.
  std::vector<bool> launched;

  int remaining = 0;       ///< worker results not yet arrived or reassigned
  bool master_done = false;
  bool master_busy = false;  ///< master re-executing a reassigned chunk
  bool dead = false;         ///< master fail-stopped; loop abandoned
  bool faulted = false;      ///< any fault touched this loop (skip balancer)
  bool finished = false;
  std::uint32_t extra_iters = 0;  ///< iterations awaiting master re-execution
  int observer = -1;

  sim::Time start;
  sim::Time master_end;
  sim::Time last_arrival;
  LoopExecutor::Done done;

  void recycle() noexcept { done = nullptr; }
};

namespace {

using LoopRef = sim::Ref<LoopState>;

/// A dead loop's SPE releases happen outside any driver callback; the
/// executor's hook tells the driver that capacity is back.
void notify_dead_release(const LoopState& st) {
  if (st.dead && *st.release_hook) (*st.release_hook)();
}

void loop_finish_check(const LoopRef& st);

/// After its own chunk, the master absorbs iterations reassigned from lost
/// workers, one batch per pass (more may accumulate while it computes).
void loop_master_drain(const LoopRef& st) {
  if (st->dead || st->finished) return;
  if (!st->master_done || st->master_busy) return;
  if (st->extra_iters == 0) {
    loop_finish_check(st);
    return;
  }
  const auto batch = static_cast<double>(st->extra_iters);
  st->extra_iters = 0;
  st->master_busy = true;
  st->m->spe_compute(st->master, st->cycles_per_iter * batch, [st] {
    st->master_busy = false;
    st->master_end = st->eng->now();
    loop_master_drain(st);
  });
}

void loop_finish_check(const LoopRef& st) {
  if (st->dead || st->finished) return;
  if (!st->master_done || st->master_busy || st->extra_iters != 0 ||
      st->remaining != 0) {
    return;
  }
  st->finished = true;
  if (st->observer >= 0) {
    st->m->remove_fault_observer(st->observer);
    st->observer = -1;
  }
#if CBE_TRACE_ENABLED
  {
    const std::int64_t m_idle_ns =
        st->last_arrival > st->master_end
            ? (st->last_arrival - st->master_end).nanoseconds()
            : 0;
    const std::int64_t w_wait_ns =
        st->master_end > st->last_arrival
            ? (st->master_end - st->last_arrival).nanoseconds()
            : 0;
    CBE_TRACE_EVENT(st->eng->now().nanoseconds(), trace::EventKind::LoopJoin,
                    st->master, -1, m_idle_ns, w_wait_ns);
    if (st->imbalance_hist != nullptr) {
      const double span_us = (st->eng->now() - st->start).to_us();
      if (span_us > 0.0) {
        st->imbalance_hist->observe(
            100.0 * (static_cast<double>(m_idle_ns + w_wait_ns) / 1000.0) /
            span_us);
      }
    }
  }
#endif
  if (!st->faulted) {
    // Feed the balancer only with clean invocations: a reassigned chunk or
    // retried transfer distorts the master/worker timing signal.
    const double master_idle =
        st->last_arrival > st->master_end
            ? (st->last_arrival - st->master_end).to_us()
            : 0.0;
    const double worker_wait =
        st->master_end > st->last_arrival
            ? (st->master_end - st->last_arrival).to_us()
            : 0.0;
    st->bal->observe(master_idle, worker_wait,
                     (st->eng->now() - st->start).to_us());
  }
  // Sequential merge of (d-1) partial results on the master.
  const sim::Time join = sim::cycles_to_time(
      st->join_cycles_per_worker * static_cast<double>(st->degree - 1),
      st->clock);
  st->eng->schedule_after(join, [st] { st->done(); });
}

/// Moves a lost worker's outstanding iterations to the master.  No-op when
/// the worker has no pending chunk (already computed, or not ours).
void loop_reassign(const LoopRef& st, int w) {
  const auto ix = static_cast<std::size_t>(w);
  if (ix >= st->pending.size() || !st->pending[ix]) return;
  const std::uint32_t iters = st->share[ix];
  st->pending[ix] = false;
  if (st->dead) return;  // abandoned loop: the driver watchdog re-runs it
  st->faulted = true;
  st->extra_iters += iters;
  --st->remaining;
  ++*st->reassigned_ctr;
  CBE_TRACE_EVENT(st->eng->now().nanoseconds(),
                  trace::EventKind::ChunkReassign, w, st->master,
                  static_cast<std::int64_t>(iters), 0);
  loop_master_drain(st);
}

/// Worker data fetch through the checked DMA path, retried on transient
/// failure; on retry exhaustion the chunk is reassigned to the master and
/// the worker freed.  The transfer size is recomputed from the worker's
/// share on every try, which keeps the continuation to `{state, w, try}`.
void loop_worker_fetch(const LoopRef& st, int w, int attempt) {
  const std::uint32_t iters = st->share[static_cast<std::size_t>(w)];
  const double bytes = st->bytes_in_per_iter * static_cast<double>(iters);
  const int chunks = cell::MfcRules::list_entries(
      static_cast<std::size_t>(bytes), st->m->params());
  st->m->dma_checked(w, bytes, chunks, [st, w, attempt](bool ok) {
    if (!ok) {
      st->faulted = true;
      if (attempt < st->max_dma_retries) {
        ++*st->retry_ctr;
        loop_worker_fetch(st, w, attempt + 1);
        return;
      }
      // The completion only fires on a usable SPE, so the worker is alive
      // but its input transfer is lost for good: free it and let the master
      // re-execute the chunk.
      st->m->spe(w).release(st->eng->now());
      loop_reassign(st, w);
      notify_dead_release(*st);
      return;
    }
    const double cycles =
        st->cycles_per_iter *
        static_cast<double>(st->share[static_cast<std::size_t>(w)]);
    st->m->spe_compute(w, cycles, [st, w] {
      st->pending[static_cast<std::size_t>(w)] = false;
      st->m->spe(w).release(st->eng->now());
      notify_dead_release(*st);
      st->eng->schedule_after(st->m->pass_latency(w, st->master), [st] {
        if (st->dead || st->finished) return;
        st->last_arrival = st->eng->now();
        --st->remaining;
        loop_finish_check(st);
      });
    });
  });
}

/// Worker-side chain, entered when the Pass structure lands in its LS.
void loop_launch_worker(const LoopRef& st, int w) {
  // A master fail-stop already freed this worker's reservation (see the
  // fault hook); the stale Pass delivery must not touch the SPE, which may
  // have been handed to another task by now.
  if (st->dead) return;
  st->launched[static_cast<std::size_t>(w)] = true;
  st->m->ensure_module(w, st->module_id, cell::ModuleVariant::Parallel,
                       [st, w] { loop_worker_fetch(st, w, 0); });
}

/// Master-side chain after the fork: serialized Pass sends (each occupying
/// the master for send_us), then its own chunk, then join (in
/// loop_finish_check).  Send completions are at deterministic offsets, so
/// they are scheduled directly instead of chained.
void loop_start_sends(const LoopRef& st) {
  const std::size_t nw = st->workers.size();
  for (std::size_t k = 0; k < nw; ++k) {
    const double depart_us = st->send_us * static_cast<double>(k + 1);
    st->eng->schedule_after(sim::Time::us(depart_us),
                            [st, w = st->workers[k]] {
      st->eng->schedule_after(st->m->pass_latency(st->master, w),
                              [st, w] { loop_launch_worker(st, w); });
    });
  }
  const double busy_us = st->send_us * static_cast<double>(nw);
  st->eng->schedule_after(sim::Time::us(busy_us), [st] {
    const double cycles =
        st->cycles_per_iter * static_cast<double>(st->master_iters);
    st->m->spe_compute(st->master, cycles, [st] {
      st->master_end = st->eng->now();
      st->master_done = true;
      loop_master_drain(st);
    });
  });
}

/// Fail-stop hook: a lost worker's chunk moves to the master; a lost master
/// kills the loop (the runtime driver's watchdog recovers the whole task).
void loop_on_failure(const LoopRef& st, int spe) {
  if (st->finished || st->dead) return;
  if (spe != st->master) {
    loop_reassign(st, spe);
    return;
  }
  st->dead = true;
  if (st->observer >= 0) {
    st->m->remove_fault_observer(st->observer);
    st->observer = -1;
  }
  // Free workers whose fetch chain never started (their Pass send was cut
  // off with the master); started workers release themselves.
  for (std::size_t w = 0; w < st->pending.size(); ++w) {
    if (!st->pending[w] || st->launched[w]) continue;
    cell::Spe& s = st->m->spe(static_cast<int>(w));
    if (s.usable() && !s.idle()) s.release(st->eng->now());
    st->pending[w] = false;
  }
  // The driver's failure observer ran before this one (it registered first)
  // and may have queued the re-dispatch while these workers were still
  // reserved; tell it capacity is back.
  if (*st->release_hook) (*st->release_hook)();
}

}  // namespace

LoopExecutor::LoopExecutor(cell::CellMachine& machine, LoopParams params)
    : machine_(&machine), params_(params) {}

LoopExecutor::~LoopExecutor() = default;

void LoopExecutor::run(int master, const std::vector<int>& workers,
                       const task::TaskDesc& task, LoopBalancer& balancer,
                       Done done) {
  cell::CellMachine* m = machine_;
  sim::Engine* eng = &m->engine();
  const int d = static_cast<int>(workers.size()) + 1;
  if (workers.empty()) {
    throw std::logic_error("LoopExecutor::run: needs at least one worker");
  }
  const task::LoopDesc loop = task.loop;
  if (loop.iterations < static_cast<std::uint32_t>(d)) {
    throw std::logic_error("LoopExecutor::run: degree exceeds iterations");
  }
  CBE_TRACE_EVENT(eng->now().nanoseconds(), trace::EventKind::LoopFork,
                  master, -1, d, static_cast<std::int64_t>(loop.iterations));

  const LoopRef st = states_.acquire();
  // Iteration split: master takes a (possibly biased) share, workers split
  // the remainder evenly with the first workers absorbing the remainder.
  const double frac = balancer.master_fraction(d);
  auto m_iters = static_cast<std::uint32_t>(
      std::lround(static_cast<double>(loop.iterations) * frac));
  m_iters = std::clamp<std::uint32_t>(
      m_iters, 1, loop.iterations - static_cast<std::uint32_t>(d - 1));
  const std::uint32_t rest = loop.iterations - m_iters;
  const auto nw = static_cast<std::uint32_t>(workers.size());
  const auto spes = static_cast<std::size_t>(m->num_spes());
  st->master_iters = m_iters;
  st->workers.assign(workers.begin(), workers.end());
  st->share.assign(spes, 0);
  st->pending.assign(spes, false);
  st->launched.assign(spes, false);
  for (std::uint32_t k = 0; k < nw; ++k) {
    const auto w = static_cast<std::size_t>(workers[k]);
    st->share[w] = rest / nw + (k < rest % nw ? 1 : 0);
    st->pending[w] = true;
  }

  st->m = m;
  st->eng = eng;
  st->bal = &balancer;
  st->master = master;
  st->degree = d;
  st->module_id = task.module_id;
  st->cycles_per_iter = loop.spe_cycles_per_iter;
  st->bytes_in_per_iter = loop.bytes_in_per_iter;
  st->clock = m->params().clock_ghz;
  st->join_cycles_per_worker = params_.join_per_worker_us * st->clock * 1e3 +
                               loop.reduction_cycles_per_worker;
  st->send_us = params_.send_per_worker_us;
  st->max_dma_retries = params_.max_dma_retries;
  st->reassigned_ctr = &reassigned_chunks_;
  st->retry_ctr = &dma_retries_;
  st->imbalance_hist = imbalance_hist_;
  st->release_hook = &release_hook_;
  st->remaining = static_cast<int>(workers.size());
  st->master_done = false;
  st->master_busy = false;
  st->dead = false;
  st->faulted = false;
  st->finished = false;
  st->extra_iters = 0;
  st->observer = -1;
  st->start = eng->now();
  st->master_end = sim::Time();
  st->last_arrival = sim::Time();
  st->done = std::move(done);
  // Only a machine with a fault plan fails SPEs, so fault-free runs skip
  // the observer (and its registration) entirely.
  if (m->faults_installed()) {
    st->observer =
        m->add_fault_observer([st](int spe) { loop_on_failure(st, spe); });
  }

  // Master-side chain: non-loop prologue, fork, then the sends.
  m->spe_compute(master, task.spe_cycles_nonloop,
                 [st, fork = sim::Time::us(params_.fork_us)] {
    st->eng->schedule_after(fork, [st] { loop_start_sends(st); });
  });
}

}  // namespace cbe::rt
