// MGPS: multigrain parallelism scheduling (Section 5.4).
//
// Extends EDTLP with an adaptive processor-saving policy.  The scheduler is
// invoked on arrivals (off-load requests) and departures (completions).  It
// maintains a history window of the last `history_window` off-loads (the
// paper uses a window equal to the number of SPEs, i.e. 8).  At every
// window boundary it evaluates U — the degree of task-level parallelism
// observed in the window, measured as the number of distinct processes that
// off-loaded tasks — and:
//   - if U <= total_spes / 2, activates LLP with floor(total_spes / T) SPEs
//     per parallel loop, where T is the number of tasks currently waiting
//     for off-loading (approximated by the number of live processes when
//     nothing is queued, since each process keeps one task in flight);
//   - otherwise retains pure EDTLP (degree 1), deactivating LLP if it was
//     previously active.
// Switching between the sequential and loop-parallel SPE code variants is
// charged by the machine model as a code DMA when a task lands on an SPE
// holding the wrong variant (the paper's "code replacement" cost).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "runtime/policy.hpp"
#include "trace/trace.hpp"

namespace cbe::rt {

class MgpsPolicy final : public SchedulerPolicy {
 public:
  explicit MgpsPolicy(int history_window = 8)
      : history_window_(history_window > 0 ? history_window : 8) {}

  std::string name() const override { return "MGPS"; }

  int worker_count(int bootstraps, int total_spes) const override {
    return std::min(bootstraps, total_spes);
  }

  int loop_degree(const RuntimeView& view, const task::TaskDesc& t) override {
    if (!t.loop.parallelizable()) return 1;
    int d = current_degree_;
    // The pool can shrink between window evaluations (SPE fail-stop, or
    // siblings grabbing SPEs); never request more participants than are
    // idle right now.
    if (view.idle_spes > 0) d = std::min(d, view.idle_spes);
    // Loop-granularity guard (the LLP analogue of the task granularity
    // test): shrink the degree until each SPE's chunk is big enough to
    // amortize the work-sharing protocol's per-worker costs.  Section 5.3
    // observes exactly this — fine loops stop profiting from extra SPEs.
    while (d > 1 && t.loop.total_cycles() / d < kMinChunkCycles) --d;
    return d;
  }

  /// Minimum per-SPE loop chunk (cycles) worth the sharing overhead:
  /// 6.25 us at 3.2 GHz.
  static constexpr double kMinChunkCycles = 20000.0;

  void on_offload(const RuntimeView&, int pid) override { note_pid(pid); }

  void on_departure(const RuntimeView& view, int pid) override {
    note_pid(pid);
    if (++departures_ % history_window_ != 0) return;
    evaluate(view, window_distinct_);
    std::fill(window_pids_.begin(), window_pids_.end(), 0);
    window_distinct_ = 0;
  }

  void on_timer(const RuntimeView& view) override {
    // Low off-load rates never fill the window; re-evaluate from whatever
    // history exists, treating the live process count as the TLP degree.
    const int u = std::max(window_distinct_,
                           std::min(view.active_processes, view.total_spes));
    evaluate(view, u);
  }

  int current_degree() const noexcept { return current_degree_; }

 private:
  /// Adds `pid` to the window's distinct-process set.
  void note_pid(int pid) {
    const auto word = static_cast<std::size_t>(pid) / 64;
    const std::uint64_t bit = std::uint64_t{1} << (pid % 64);
    if (word >= window_pids_.size()) window_pids_.resize(word + 1, 0);
    if ((window_pids_[word] & bit) != 0) return;
    window_pids_[word] |= bit;
    ++window_distinct_;
  }

  void evaluate(const RuntimeView& view, int u) {
    const int prev_degree = current_degree_;
    // Fail-stopped SPEs are gone for good: every decision is made against
    // the surviving pool, so MGPS adapts its degree when faults shrink the
    // machine mid-run.
    const int avail = std::max(1, view.total_spes - view.failed_spes);
    if (u <= avail / 2) {
      const int t = std::max(
          1, std::max(view.waiting_offloads, view.active_processes));
      const int cells = std::max(
          1, view.spes_per_cell > 0 ? view.total_spes / view.spes_per_cell
                                    : 1);
      // Loops are shared within one Cell (local Pass protocol), so the
      // degree is computed against the local pool, with the waiting tasks
      // spread over the blade's Cells.  The degree is capped at half the
      // local pool: Table 2 shows per-worker overheads erase the gains
      // beyond ~4-5 SPEs per loop, and the paper's own MGPS behaves like
      // the 4-SPE hybrid at low task counts (Figure 8a).
      const int local_cap = view.spes_per_cell > 0 ? view.spes_per_cell
                                                   : view.total_spes;
      const int local = std::max(1, std::min(local_cap, avail / cells));
      const int t_local = std::max(1, (t + cells - 1) / cells);
      current_degree_ =
          std::clamp(local / t_local, 1, std::max(1, local / 2));
    } else {
      current_degree_ = 1;
    }
    if (current_degree_ != prev_degree) {
      CBE_TRACE_EVENT(view.now.nanoseconds(), trace::EventKind::DegreeChange,
                      -1, -1, current_degree_, u);
    }
  }

  int history_window_;
  int current_degree_ = 1;
  std::uint64_t departures_ = 0;
  /// The window's distinct off-loading processes: a pid bitmap plus its
  /// population count (U).
  std::vector<std::uint64_t> window_pids_;
  int window_distinct_ = 0;
};

}  // namespace cbe::rt
