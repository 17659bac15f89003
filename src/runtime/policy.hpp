// Scheduling policies (Section 5 of the paper).
//
// The runtime driver (sim_runtime) provides the mechanisms; a SchedulerPolicy
// decides: how many PPE processes serve a workload, whether processes are
// pinned to PPE SMT contexts, whether a process yields its context upon
// off-loading (the EDTLP idea) or spin-waits (the Linux baseline), whether
// the granularity test gates off-loading, and with how many SPEs each
// off-loaded task's enclosed loop is executed (the LLP degree).
#pragma once

#include <algorithm>
#include <string>

#include "sim/time.hpp"
#include "task/task.hpp"

namespace cbe::rt {

/// Snapshot of runtime state visible to policies at decision points.
struct RuntimeView {
  int total_spes = 0;
  int spes_per_cell = 0;
  int idle_spes = 0;         ///< idle right now (before this dispatch)
  int failed_spes = 0;       ///< SPEs lost to fail-stop faults
  int waiting_offloads = 0;  ///< queued dispatches with no SPE available
  int active_processes = 0;  ///< processes that still have work
  sim::Time now;
};

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual std::string name() const = 0;
  /// PPE processes to spawn for `bootstraps` units of work.
  virtual int worker_count(int bootstraps, int total_spes) const = 0;
  /// Static round-robin pinning of processes to PPE contexts (Linux model).
  virtual bool pin_processes() const { return false; }
  /// Yield the PPE context while an off-loaded task runs (EDTLP) instead of
  /// spin-waiting on the completion mailbox (naive MPI-on-Linux).
  virtual bool yield_on_offload() const { return true; }
  /// Apply the t_spe + t_code + 2 t_comm < t_ppe off-loading test (5.2).
  virtual bool granularity_test() const { return true; }
  /// Requested LLP degree (total SPEs incl. the master) for this dispatch;
  /// the driver clamps to what is actually idle.
  virtual int loop_degree(const RuntimeView& view,
                          const task::TaskDesc& task) = 0;
  /// Observation hooks (arrivals/departures in the paper's terminology).
  virtual void on_offload(const RuntimeView& /*view*/, int /*pid*/) {}
  virtual void on_departure(const RuntimeView& /*view*/, int /*pid*/) {}
  /// Periodic hook, fired by the driver's policy timer when configured
  /// (Section 5.4: timer interrupts cover applications whose off-load rate
  /// is too low to drive adaptation).
  virtual void on_timer(const RuntimeView& /*view*/) {}
};

/// Baseline: the stock Linux 2.6 kernel scheduler driving one MPI process
/// per bootstrap.  Processes are pinned round-robin over the two PPE SMT
/// contexts by the MPI launcher and busy-wait on task completion; the OS
/// quantum (~10 ms) dwarfs the 96 us task granularity, so no useful
/// interleaving happens (Figure 2b) and runtimes grow as ceil(N/2) waves
/// (Table 1, third column).
class LinuxPolicy final : public SchedulerPolicy {
 public:
  std::string name() const override { return "Linux"; }
  int worker_count(int bootstraps, int total_spes) const override {
    return std::min(bootstraps, total_spes);
  }
  bool pin_processes() const override { return true; }
  bool yield_on_offload() const override { return false; }
  bool granularity_test() const override { return false; }
  int loop_degree(const RuntimeView&, const task::TaskDesc&) override {
    return 1;
  }
};

/// EDTLP: event-driven task-level parallelism (Section 5.2).  The user-level
/// scheduler off-loads a task and immediately switches the PPE to another
/// MPI process, keeping all eight SPEs supplied with tasks.
class EdtlpPolicy final : public SchedulerPolicy {
 public:
  std::string name() const override { return "EDTLP"; }
  int worker_count(int bootstraps, int total_spes) const override {
    return std::min(bootstraps, total_spes);
  }
  int loop_degree(const RuntimeView&, const task::TaskDesc&) override {
    return 1;
  }
};

/// Static hybrid EDTLP-LLP (Section 5.4's illustrative scheme): every
/// off-loaded loop is split over a fixed number of SPEs, and the PPE runs
/// total_spes/degree concurrent processes so SPE demand never exceeds supply.
class StaticHybridPolicy final : public SchedulerPolicy {
 public:
  explicit StaticHybridPolicy(int degree) : degree_(std::max(degree, 1)) {}

  std::string name() const override {
    return "EDTLP-LLP(" + std::to_string(degree_) + ")";
  }
  int worker_count(int bootstraps, int total_spes) const override {
    return std::min(bootstraps, std::max(1, total_spes / degree_));
  }
  int loop_degree(const RuntimeView&, const task::TaskDesc& t) override {
    return t.loop.parallelizable() ? degree_ : 1;
  }

 private:
  int degree_;
};

}  // namespace cbe::rt
