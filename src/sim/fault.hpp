// Deterministic, seeded fault injection for the discrete-event machine
// model.
//
// A FaultPlan is a pure function of (seed, rates, node count): it yields a
// fixed schedule of node-level fault events (fail-stop, straggler derating)
// plus a stateless per-transfer oracle for transient DMA failures.  The same
// seed therefore produces a bit-identical replay of every fault, which is
// what makes degradation experiments and recovery tests reproducible.
//
// The plan speaks in abstract node ids so this layer stays independent of
// the Cell model; cellsim interprets nodes as SPEs and the cluster wrapper
// interprets a separate rate as whole-blade fail-stop.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace cbe::sim {

enum class FaultKind : std::uint8_t {
  FailStop,  ///< node halts permanently; in-flight work on it is lost
  Degrade,   ///< node's clock silently drops to `factor` of nominal
  BitFlip,   ///< node silently corrupts payloads/results from `at` onward
};

struct FaultEvent {
  Time at;
  FaultKind kind = FaultKind::FailStop;
  int node = 0;
  double factor = 1.0;  ///< clock fraction for Degrade; ignored for FailStop
};

struct FaultConfig {
  std::uint64_t seed = 0;
  /// Probability that a given node fail-stops during the horizon.
  double spe_fail_rate = 0.0;
  /// Per-transfer probability of a transient DMA failure.
  double dma_fail_rate = 0.0;
  /// Probability that a given node is derated (straggler) during the run.
  double straggler_rate = 0.0;
  /// Clock fraction a straggler drops to.
  double straggler_factor = 0.3;
  /// Events are drawn uniformly inside (0.1, 0.9) x horizon.  Zero lets the
  /// runtime substitute its own estimate of the workload span.
  Time horizon;
  /// Probability that a whole blade fail-stops (run_cluster only).
  double blade_fail_rate = 0.0;
  /// Per-transfer probability that a verified DMA completes "successfully"
  /// with a silently corrupted payload (caught only by end-to-end CRC
  /// framing, never by the transport).
  double dma_bitflip_rate = 0.0;
  /// Per-task probability that an SPE computes a wrong-but-well-framed
  /// result (caught only by sampled redundant execution).
  double result_corrupt_rate = 0.0;
  /// Process-level kill switch for kill-and-resume tests: the run dies (via
  /// SIGKILL, so no destructors or atexit handlers soften the crash) when
  /// the crash clock reaches this many events.  Zero disables it.  Armed by
  /// the checkpoint driver with arm_crash_clock(); the clock ticks at
  /// replicate boundaries and inside the checkpoint writer's atomicity
  /// window (after the temp file is written, before the rename).
  std::int64_t die_at_event = 0;

  bool enabled() const noexcept {
    return spe_fail_rate > 0.0 || dma_fail_rate > 0.0 ||
           straggler_rate > 0.0 || blade_fail_rate > 0.0 ||
           dma_bitflip_rate > 0.0 || result_corrupt_rate > 0.0;
  }
};

class FaultPlan {
 public:
  /// Empty plan: injects nothing.
  FaultPlan() = default;

  /// Draws a deterministic event schedule for `nodes` nodes from the seed.
  static FaultPlan from_config(const FaultConfig& cfg, int nodes);
  /// Uses an explicit event script; `base` still supplies the DMA oracle's
  /// seed and rate.
  static FaultPlan from_script(std::vector<FaultEvent> events,
                               FaultConfig base = {});

  const std::vector<FaultEvent>& events() const noexcept { return events_; }

  /// Stateless oracle: does the `transfer_index`-th checked DMA fail?
  /// Hash-based so the answer depends only on (seed, index), never on call
  /// order elsewhere in the simulation.
  bool dma_fails(std::uint64_t transfer_index) const noexcept;

  /// Stateless oracle: is the `transfer_index`-th *verified* DMA silently
  /// corrupted in transit?  Independent stream from dma_fails so transient
  /// and silent faults compose without perturbing each other's draws.
  bool dma_corrupts(std::uint64_t transfer_index) const noexcept;

  /// Stateless oracle: does the `task_index`-th SPE task compute a
  /// wrong-but-well-framed result?
  bool result_corrupts(std::uint64_t task_index) const noexcept;

 private:
  FaultConfig cfg_;
  std::vector<FaultEvent> events_;
};

/// Deterministic uniform [0,1) draw from a (seed, salt) pair; shared by the
/// plan builder and run_cluster's blade fail-stop decisions.
double fault_hash01(std::uint64_t seed, std::uint64_t salt) noexcept;

/// Deterministic bit-flip perturbation of a 64-bit value: returns `value`
/// with at least one bit flipped, as a pure function of (seed, index).  Used
/// by both corruption channels so an injected flip is bit-identical on
/// replay.
std::uint64_t corrupt_bits(std::uint64_t value, std::uint64_t seed,
                           std::uint64_t index) noexcept;

/// Deterministic redundant-execution sampler: is item `index` inside the
/// verify window for this (seed, fraction)?  fraction >= 1 samples
/// everything, <= 0 nothing; the same (seed, index) always answers the same.
bool verify_sampled(std::uint64_t seed, std::uint64_t index,
                    double fraction) noexcept;

// -- Process-level crash clock (kill-and-resume testing) ---------------------
//
// A single process-wide event counter.  When armed with a positive budget,
// the tick that exhausts it kills the process with SIGKILL — the hard crash
// the checkpoint subsystem must survive.  `start_position` seeds the counter
// when a resumed run restores the fault-plan position from a checkpoint, so
// "die at event N" refers to the same absolute event index across the crash.

/// Arms (or, with die_at_event <= 0, disarms) the crash clock.
void arm_crash_clock(std::int64_t die_at_event,
                     std::int64_t start_position = 0) noexcept;
/// Advances the clock by one event; kills the process on the fatal tick.
void crash_clock_tick() noexcept;
/// Events consumed so far (the position a checkpoint records).
std::int64_t crash_clock_position() noexcept;

/// Last-gasp hook run on the fatal tick, immediately before SIGKILL.  Used
/// by binaries to flush the trace flight recorder so a crash still leaves a
/// dump on disk.  Must be async-signal-tolerant in spirit: no exceptions
/// escape, the process dies right after regardless.  Pass nullptr to clear.
using CrashHook = void (*)() noexcept;
void set_crash_clock_hook(CrashHook hook) noexcept;

}  // namespace cbe::sim
