#include "cellsim/ppe.hpp"

#include <stdexcept>
#include <utility>

#include "trace/trace.hpp"

namespace cbe::cell {

Ppe::Ppe(sim::Engine& eng, Config cfg) : eng_(eng), cfg_(cfg) {
  contexts_.resize(static_cast<std::size_t>(cfg_.contexts));
}

int Ppe::add_process(int pinned_context) {
  if (pinned_context >= cfg_.contexts) {
    throw std::out_of_range("Ppe::add_process: bad pinned context");
  }
  procs_.push_back(Proc{pinned_context, -1, sim::Time()});
  return static_cast<int>(procs_.size() - 1);
}

bool Ppe::context_ok(int ctx, int pid) const noexcept {
  const int pin = procs_[static_cast<std::size_t>(pid)].pinned;
  return pin < 0 || pin == ctx;
}

void Ppe::grant(int ctx, Waiter w) {
  Context& c = contexts_[static_cast<std::size_t>(ctx)];
  c.holder = w.pid;
  Proc& p = procs_[static_cast<std::size_t>(w.pid)];
  p.context = ctx;

  const bool needs_switch = c.last_holder != -1 && c.last_holder != w.pid;
  const int prev_holder = c.last_holder;
  c.last_holder = w.pid;
  if (needs_switch) {
    ++switches_;
    const sim::Time cost = cfg_.ctx_switch + cfg_.resume_penalty;
    CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::CtxSwitch,
                    ctx, w.pid, prev_holder, cost.nanoseconds());
    p.grant_time = eng_.now() + cost;
    eng_.schedule_after(cost, std::move(w.on_granted));
  } else {
    p.grant_time = eng_.now();
    w.on_granted();
  }
}

void Ppe::request(int pid, Fn on_granted) {
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  if (p.context != -1) {
    throw std::logic_error("Ppe::request: process already holds a context");
  }
  // A free, affinity-compatible context — preferring the context this
  // process ran on last, so an uncontended process never pays the
  // cross-process switch penalty.
  int free_ctx = -1;
  for (int ctx = 0; ctx < cfg_.contexts; ++ctx) {
    const Context& c = contexts_[static_cast<std::size_t>(ctx)];
    if (c.holder != -1 || !context_ok(ctx, pid)) continue;
    if (c.last_holder == pid) {
      free_ctx = ctx;
      break;
    }
    if (free_ctx == -1) free_ctx = ctx;
  }
  if (free_ctx != -1) {
    grant(free_ctx, Waiter{pid, wait_seq_++, std::move(on_granted)});
    return;
  }
  Waiter w{pid, wait_seq_++, std::move(on_granted)};
  if (p.pinned >= 0) {
    contexts_[static_cast<std::size_t>(p.pinned)].pinned_queue.push_back(
        std::move(w));
  } else {
    global_queue_.push_back(std::move(w));
  }
}

void Ppe::compute(int pid, double cycles, Fn done) {
  if (!holds_context(pid)) {
    throw std::logic_error("Ppe::compute: process does not hold a context");
  }
  const double factor =
      busy_contexts() >= cfg_.contexts ? cfg_.smt_slowdown : 1.0;
  const sim::Time dt = sim::cycles_to_time(cycles * factor, cfg_.clock_ghz);
  eng_.schedule_after(dt, std::move(done));
}

void Ppe::yield(int pid) {
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  if (p.context == -1) {
    throw std::logic_error("Ppe::yield: process holds no context");
  }
  const int ctx = p.context;
  Context& c = contexts_[static_cast<std::size_t>(ctx)];
  c.holder = -1;
  p.context = -1;

  // Next waiter: FIFO across this context's pinned queue and the global one.
  const bool has_pinned = !c.pinned_queue.empty();
  const bool has_global = !global_queue_.empty();
  if (!has_pinned && !has_global) return;
  bool take_pinned = has_pinned;
  if (has_pinned && has_global) {
    take_pinned = c.pinned_queue.front().seq < global_queue_.front().seq;
  }
  Waiter w = take_pinned ? std::move(c.pinned_queue.front())
                         : std::move(global_queue_.front());
  if (take_pinned) {
    c.pinned_queue.pop_front();
  } else {
    global_queue_.pop_front();
  }
  grant(ctx, std::move(w));
}

bool Ppe::holds_context(int pid) const noexcept {
  return procs_[static_cast<std::size_t>(pid)].context != -1;
}

bool Ppe::quantum_expired(int pid, sim::Time quantum) const noexcept {
  const Proc& p = procs_[static_cast<std::size_t>(pid)];
  if (p.context == -1) return false;
  if (eng_.now() - p.grant_time < quantum) return false;
  const Context& c = contexts_[static_cast<std::size_t>(p.context)];
  return !c.pinned_queue.empty() || !global_queue_.empty();
}

int Ppe::busy_contexts() const noexcept {
  int n = 0;
  for (const auto& c : contexts_) n += c.holder != -1 ? 1 : 0;
  return n;
}

}  // namespace cbe::cell
