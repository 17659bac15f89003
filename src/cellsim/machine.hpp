// The assembled Cell blade: one or two Cells, each with a dual-context PPE
// and eight SPEs, connected by the EIB.  Exposes timed *mechanisms* (code
// loading, DMA, SPE compute, mailbox signals); schedulers compose them into
// policies.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cellsim/mfc.hpp"
#include "cellsim/params.hpp"
#include "cellsim/ppe.hpp"
#include "cellsim/spe.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "task/task.hpp"

namespace cbe::cell {

/// Counters for injected faults observed by the machine model.
struct FaultStats {
  std::uint64_t spe_failures = 0;  ///< fail-stop events applied
  std::uint64_t stragglers = 0;    ///< derating events applied
  std::uint64_t dma_faults = 0;    ///< transient DMA failures injected
  std::uint64_t dma_corruptions = 0;  ///< silent payload bit-flips injected
  std::uint64_t quarantined = 0;   ///< SPEs removed by integrity quarantine
};

class CellMachine {
 public:
  using Fn = sim::InlineFn<void(), sim::kContinuationBytes>;
  using DmaFn = sim::InlineFn<void(bool ok), sim::kContinuationBytes>;
  /// `ok` is the transport's verdict; `corrupt` reports a silent payload
  /// bit-flip the transport did NOT see (only an end-to-end check can).
  using VerifiedDmaFn =
      sim::InlineFn<void(bool ok, bool corrupt), sim::kContinuationBytes>;
  using FaultObserver = std::function<void(int spe)>;

  CellMachine(sim::Engine& eng, CellParams params,
              const task::ModuleRegistry& modules);

  sim::Engine& engine() noexcept { return eng_; }
  const CellParams& params() const noexcept { return params_; }
  const task::ModuleRegistry& modules() const noexcept { return *modules_; }

  int num_spes() const noexcept { return static_cast<int>(spes_.size()); }
  int num_cells() const noexcept { return params_.num_cells; }
  Spe& spe(int i) { return spes_.at(static_cast<std::size_t>(i)); }
  const Spe& spe(int i) const { return spes_.at(static_cast<std::size_t>(i)); }
  Ppe& ppe(int cell = 0) { return *ppes_.at(static_cast<std::size_t>(cell)); }

  /// Fills `out` with the idle SPE ids, preferring the given cell first
  /// (locality), each cell in ascending id order.  Failed SPEs are never
  /// offered.  `out` is the caller's buffer: dispatch reuses one, so the
  /// scan never allocates once it has grown to the pool size.
  void idle_spes(int preferred_cell, std::vector<int>& out) const;
  /// Counts below are maintained by the SPEs on every state change (see
  /// SpeTally), so they cost O(cells), not a pool scan.
  int count_idle_spes() const noexcept;
  /// SPEs that have not fail-stopped (healthy or degraded).
  int healthy_spes() const noexcept { return num_spes() - failed_spes(); }
  int failed_spes() const noexcept;

  // -- Fault injection -----------------------------------------------------
  /// Schedules the plan's events on the engine and enables its DMA oracle.
  /// The plan must outlive the machine's use of it.  Scheduled events keep
  /// the engine alive; call cancel_pending_faults() once the workload drains.
  void install_faults(const sim::FaultPlan& plan);
  /// True once a plan is installed.  Only such a machine fails SPEs
  /// (fail_spe and quarantine_spe require one), so components register
  /// fault observers only when this holds.
  bool faults_installed() const noexcept { return fault_plan_ != nullptr; }
  /// Cancels fault events that have not fired yet (end of workload).
  void cancel_pending_faults() noexcept;
  /// Applies a fail-stop now: marks the SPE dead, clears its occupancy and
  /// notifies observers.  In-flight completion callbacks on this SPE are
  /// suppressed when they fire.  Throws std::logic_error without a plan.
  void fail_spe(int spe);
  /// Applies straggler derating now.
  void degrade_spe(int spe, double factor);
  /// Integrity quarantine: permanently removes an SPE whose results keep
  /// failing end-to-end checks.  Mechanically a fail-stop (observers fire,
  /// `failed_spes` grows, MGPS adapts) but traced and counted separately so
  /// the health story is visible in profiles.
  void quarantine_spe(int spe, int strikes = 0, int threshold = 0);
  /// Observers fire on every SPE fail-stop (loop executor uses this for
  /// chunk reassignment; the runtime driver for wait-queue rescue).
  int add_fault_observer(FaultObserver obs);
  void remove_fault_observer(int id) noexcept;
  const FaultStats& fault_stats() const noexcept { return fault_stats_; }

  /// Ensures the (module, variant) image is resident on `spe`; `done` fires
  /// immediately if already resident, else after the code DMA.  The paper's
  /// runtime pre-loads modules and swaps variants only when the MGPS policy
  /// flips between EDTLP and EDTLP-LLP (Section 5.4).
  void ensure_module(int spe, std::uint16_t module, ModuleVariant v, Fn done);

  /// Runs `cycles` of SPU compute on `spe`, then `done`.
  void spe_compute(int spe, double cycles, Fn done);

  /// DMA between main memory and `spe`'s local store.  `chunks` models
  /// aggregation: an optimized transfer uses one DMA-list entry per 16 KB;
  /// naive code issues one small request per loop iteration.
  void dma(int spe, double bytes, int chunks, Fn done);

  /// DMA whose completion reports success: an installed fault plan may mark
  /// the transfer as transiently failed (`ok == false`), in which case the
  /// full transfer time was still spent and the caller decides whether to
  /// retry.  Without a plan this behaves exactly like dma().
  void dma_checked(int spe, double bytes, int chunks, DmaFn done);

  /// dma_checked plus the silent-corruption channel: the transfer can
  /// complete "successfully" (`ok == true`) with a poisoned payload
  /// (`corrupt == true`).  The transient draw shares dma_checked's sequence
  /// so swapping callers between the two paths never perturbs the transient
  /// fault replay; corruption draws use their own independent stream.
  /// Scripted BitFlip events force the next verified transfer on that SPE
  /// to corrupt regardless of rate.
  void dma_verified(int spe, double bytes, int chunks, VerifiedDmaFn done);

  /// One-way PPE<->SPE mailbox signal delay (t_comm in the granularity
  /// test of Section 5.2).
  sim::Time signal_latency(int spe) const noexcept;
  /// SPE-to-SPE `Pass` structure delivery delay (Section 5.3.1).
  sim::Time pass_latency(int from, int to) const noexcept;
  /// Schedules `done` after the one-way signal latency.
  void signal(int spe, Fn done);

  /// Uncontended transfer time for `bytes` in `chunks` requests (used by the
  /// granularity test, which reasons about intrinsic task cost).
  sim::Time solo_dma_time(double bytes, int chunks) const noexcept;
  /// Uncontended load time of a module variant's code image.
  sim::Time code_load_time(std::uint16_t module, ModuleVariant v) const;

  /// Aggregate SPE utilization in [0,1] over the simulation so far.
  double mean_spe_utilization() const noexcept;
  int active_dmas() const noexcept { return active_dma_; }
  /// Total payload bytes moved by every DMA issued so far (code loads
  /// included); the trace invariant tests reconcile the event stream
  /// against this counter.
  double total_dma_bytes() const noexcept { return dma_bytes_; }

 private:
  void notify_fault_observers(int spe);
  void require_faults(const char* what) const;
  /// One transfer for every DMA flavour: `done` is an Fn, DmaFn or
  /// VerifiedDmaFn and receives the verdicts it asks for, so no flavour
  /// wraps another's continuation.
  template <typename Done>
  void start_dma(int spe, double bytes, int chunks, bool ok, bool corrupt,
                 Done done);

  sim::Engine& eng_;
  CellParams params_;
  const task::ModuleRegistry* modules_;
  Mfc mfc_;
  std::vector<SpeTally> tallies_;  ///< per Cell; sized before spes_ exists
  std::vector<Spe> spes_;
  std::vector<std::unique_ptr<Ppe>> ppes_;
  int active_dma_ = 0;

  const sim::FaultPlan* fault_plan_ = nullptr;
  std::vector<sim::EventId> fault_events_;
  std::vector<int> forced_flips_;  ///< scripted BitFlip arms, per SPE
  std::uint64_t dma_seq_ = 0;
  std::uint64_t verified_seq_ = 0;  ///< corruption-oracle stream position
  std::uint64_t dma_id_ = 0;  ///< trace pairing id for issue/retire events
  double dma_bytes_ = 0.0;
  FaultStats fault_stats_;
  std::vector<std::pair<int, FaultObserver>> fault_observers_;
  int next_observer_id_ = 0;
};

}  // namespace cbe::cell
