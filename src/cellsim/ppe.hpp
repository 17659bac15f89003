// Power Processing Element model: two SMT hardware contexts multiplexing an
// arbitrary number of logical processes ("MPI ranks").
//
// Mechanisms provided here; policy lives in the schedulers:
//   - request(): a process asks for a context and is granted FIFO, optionally
//     restricted to a pinned context (the Linux baseline pins ranks
//     round-robin, which is what produces the ceil(N/2) waves of Table 1).
//   - compute(): runs PPE work; the duration is inflated by the SMT
//     contention factor when both contexts are busy (sampled at burst start,
//     a good approximation at the paper's ~11 us burst granularity).
//   - yield(): releases the context; handing it to a *different* process
//     costs the 1.5 us context-switch penalty (Section 5.2).
//   - quantum_expired(): lets quantum-based policies test for preemption at
//     their scheduling points.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fifo.hpp"

namespace cbe::cell {

class Ppe {
 public:
  struct Config {
    int contexts = 2;
    double clock_ghz = 3.2;
    double smt_slowdown = 1.45;
    sim::Time ctx_switch = sim::Time::us(1.5);
    /// Implicit cost of switching across address spaces: cache/TLB warmup
    /// charged when a context is granted to a different process than it last
    /// ran (Section 5.2: "implicit costs following context-switching across
    /// address spaces, such as cache and TLB pollution").
    sim::Time resume_penalty = sim::Time::us(9.0);
  };

  /// Continuation type of every PPE mechanism (see sim/callback.hpp).
  using Fn = sim::InlineFn<void(), sim::kContinuationBytes>;

  Ppe(sim::Engine& eng, Config cfg);

  /// Registers a logical process.  `pinned_context` >= 0 restricts it to one
  /// hardware context (static affinity); -1 lets it run anywhere.
  int add_process(int pinned_context = -1);

  /// Requests a context.  `on_granted` fires (possibly immediately) once the
  /// process holds one.  A process must not request while holding.
  void request(int pid, Fn on_granted);

  /// Runs `cycles` of PPE work for `pid` (which must hold a context); `done`
  /// fires on completion.
  void compute(int pid, double cycles, Fn done);

  /// Releases the context.  The head waiter (pinned queue of that context
  /// first-come-first-served with the global queue) is granted next.
  void yield(int pid);

  bool holds_context(int pid) const noexcept;
  /// True if `pid` has held its context at least `quantum` and another
  /// process is waiting that could use it.
  bool quantum_expired(int pid, sim::Time quantum) const noexcept;

  int busy_contexts() const noexcept;
  std::uint64_t context_switches() const noexcept { return switches_; }

 private:
  struct Proc {
    int pinned = -1;
    int context = -1;  // held context or -1
    sim::Time grant_time;
  };
  struct Waiter {
    int pid = -1;
    std::uint64_t seq = 0;
    Fn on_granted;
  };
  struct Context {
    int holder = -1;
    int last_holder = -1;
    sim::Fifo<Waiter> pinned_queue;
  };

  void grant(int ctx, Waiter w);
  bool context_ok(int ctx, int pid) const noexcept;

  sim::Engine& eng_;
  Config cfg_;
  std::vector<Proc> procs_;
  std::vector<Context> contexts_;
  sim::Fifo<Waiter> global_queue_;
  std::uint64_t wait_seq_ = 0;
  std::uint64_t switches_ = 0;
};

}  // namespace cbe::cell
