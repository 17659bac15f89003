// The trace-driven runtime driver: spawns the policy's worker processes on
// the PPE model, serves bootstraps master-worker style, and executes every
// off-load through the Cell machine model (signals, code loading, DMA,
// compute, loop work-sharing).  Produces a RunResult with the makespan and
// the scheduling metrics the paper discusses.
#pragma once

#include <functional>
#include <memory>

#include <vector>

#include "cellsim/params.hpp"
#include "runtime/metrics.hpp"
#include "runtime/policy.hpp"
#include "sim/fault.hpp"
#include "task/task.hpp"

namespace cbe::trace {
class TraceSink;
class MetricsRegistry;
}  // namespace cbe::trace

namespace cbe::rt {

/// Re-offload attempts after a watchdog timeout or a torn-down attempt
/// before the task is executed on the PPE (always-correct fallback).
inline constexpr int kMaxTaskRetries = 2;

/// Offload watchdog deadline as a multiple of the task's intrinsic off-load
/// cost (t_spe + t_code + t_dma + 2 t_comm).  Watchdogs are only armed when
/// fault injection is enabled.
inline constexpr double kWatchdogFactor = 4.0;

/// End-to-end data-integrity controls (DESIGN.md §11).  Detection is
/// end-to-end by construction: the producer frames payloads/results with a
/// CRC and the *consumer* verifies — the transport is never trusted.
struct IntegrityConfig {
  /// CRC-frame task DMA payloads; silently corrupted transfers are detected
  /// at the receiving end and retried.  Costs `kCrcCyclesPerByte`
  /// (sim_runtime.cpp) of modeled compute per framed byte (the < 3%
  /// overhead the bench gates).
  bool crc_framing = false;
  /// Fraction of task results re-executed redundantly and compared; catches
  /// wrong-but-well-framed results CRC framing cannot see.  The sample is a
  /// deterministic function of (fault.seed, task index).
  double verify_fraction = 0.0;
  /// Detected corruptions attributed to one SPE before it is quarantined
  /// (permanently removed from the pool).  Zero disables quarantine.
  int quarantine_threshold = 3;

  bool enabled() const noexcept {
    return crc_framing || verify_fraction > 0.0;
  }
};

struct RunConfig {
  cell::CellParams cell;
  /// Optimized code aggregates DMAs into lists; naive code issues one small
  /// transfer per loop iteration (Section 5.1 optimization ladder).
  bool dma_aggregated = true;
  /// Feedback-guided master-share tuning in the loop executor (Section 5.3).
  bool adaptive_balance = true;
  /// Periodic policy re-evaluation ("timer interrupts" for applications that
  /// do not off-load often enough to trigger adaptation; Section 5.4).
  /// Zero disables the timer.
  sim::Time policy_timer;

  // -- Fault injection (see DESIGN.md "Fault model") -----------------------
  /// Seeded random fault plan; disabled when all rates are zero.  When
  /// `fault.horizon` is zero the driver derives one from the workload's
  /// fault-free compute demand so rates are comparable across workloads.
  sim::FaultConfig fault;
  /// Explicit fault script (deterministic tests); overrides `fault`'s rates
  /// but still uses `fault.seed` for the DMA oracle and `run_cluster`'s
  /// blade decisions.  Non-empty enables fault handling.
  std::vector<sim::FaultEvent> fault_script;

  // -- Data integrity (see DESIGN.md §11) ----------------------------------
  /// Detection and recovery for the silent-corruption channels enabled by
  /// `fault.dma_bitflip_rate` / `fault.result_corrupt_rate`.  With detection
  /// off, injected corruption propagates into `RunResult::bootstrap_digests`
  /// — exactly the failure mode the integrity tests prove impossible once
  /// `crc_framing` + `verify_fraction = 1` are on.
  IntegrityConfig integrity;

  // -- Observability (see DESIGN.md "Observability") -----------------------
  /// Structured event sink installed for the duration of the run.  The
  /// simulator is single-threaded, so the captured stream is totally ordered
  /// and bit-reproducible per seed.  run_cluster runs its blades
  /// sequentially into the same sink.
  trace::TraceSink* trace = nullptr;
  /// Per-run metrics: offload-latency and loop-imbalance histograms recorded
  /// live, plus end-of-run counters and per-SPE utilization gauges.
  trace::MetricsRegistry* metrics = nullptr;
};

/// Runs `wl` to completion under `policy`; deterministic for a given
/// workload and configuration.
RunResult run_workload(const task::Workload& wl, SchedulerPolicy& policy,
                       const RunConfig& cfg = {});

/// Section 5.5 scaling: distributes the workload's bootstraps round-robin
/// over `blades` independent (dual-Cell by default) blades, runs each blade
/// under a fresh policy from `make_policy`, and reports the slowest blade's
/// makespan plus aggregated counters.  Reproduces the paper's argument that
/// spreading 100 bootstraps over >= 4 blades brings each blade back into
/// the regime where multigrain (MGPS) scheduling pays off.
RunResult run_cluster(const task::Workload& wl,
                      const std::function<std::unique_ptr<SchedulerPolicy>()>&
                          make_policy,
                      int blades, const RunConfig& cfg = {});

}  // namespace cbe::rt
