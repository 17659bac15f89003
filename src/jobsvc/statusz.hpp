// Live status plane for the job service (DESIGN.md §12).
//
// A StatusSnapshot is a point-in-time image of everything an operator (or
// cell_top) needs to answer "is the service healthy right now": per-tenant
// queue depth and in-flight counts, the retry/shed/corrupt counters, latency
// percentiles over completions so far, every blade's breaker and quarantine
// state, SLO deadline-miss ratios, and the flight recorder's loss counters.
//
// Snapshots are deterministic by construction: every field is a pure
// function of the service's virtual-time state (no wall clocks, no pids),
// and the JSON/text renderers emit fields in a fixed order with %.17g
// doubles — two runs of the same seeded config produce byte-identical
// exports, which is what the golden test pins.
//
// Schema `cbe-statusz-v1` (JSON): top-level object with
//   schema, t_ns, seq, counters{...}, latency{...}, slo{...},
//   recorder{...}, tenants[...], blades[...]
// Consumers must ignore unknown keys (the bench_diff contract).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jobsvc/service.hpp"

namespace cbe::jobsvc {

struct TenantStatus {
  std::uint32_t tenant = 0;
  int queued = 0;       ///< admitted, waiting for a blade
  int running = 0;      ///< currently dispatched
  int backoff = 0;      ///< waiting out a retry backoff
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;     ///< Failed + Corrupt terminals
  std::uint64_t rejected = 0;   ///< Rejected + Shed terminals
  std::uint64_t deadline_missed = 0;
  /// Deadline misses over terminal jobs that carried a deadline (0 when no
  /// such job finished yet).
  double slo_miss_ratio = 0.0;
};

struct BladeStatus {
  int blade = 0;
  bool alive = true;
  bool quarantined = false;
  /// "closed" | "open" | "half-open"
  std::string breaker = "closed";
  int running = 0;
  int slots = 0;
  double degrade = 1.0;  ///< current clock fraction (1 = nominal)
  int consecutive_failures = 0;
  int corruption_strikes = 0;
  std::uint64_t dispatches = 0;
};

/// The service counters (monotone within a run) plus point-in-time state.
struct StatusSnapshot : ServiceCounters {
  std::int64_t t_ns = 0;   ///< virtual time of the snapshot
  std::uint64_t seq = 0;   ///< snapshot index within the run (0-based)

  int queue_depth = 0;
  int running = 0;

  // Latency percentiles over completions so far (seconds; 0 when none).
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;

  /// Global SLO: deadline misses over terminal jobs that had a deadline.
  double slo_miss_ratio = 0.0;

  // Flight-recorder health (zeros when no recorder is installed).
  bool recorder_installed = false;
  std::uint64_t recorder_recorded = 0;
  std::uint64_t recorder_overwritten = 0;
  std::uint64_t recorder_dumps = 0;

  std::vector<TenantStatus> tenants;  ///< sorted by tenant id
  std::vector<BladeStatus> blades;    ///< sorted by blade index
};

/// Deterministic `cbe-statusz-v1` JSON (fixed field order, %.17g doubles,
/// trailing newline).
std::string statusz_json(const StatusSnapshot& s);

/// Deterministic human-readable rendering (what cell_top shows).
std::string statusz_text(const StatusSnapshot& s);

/// Fills the recorder_* fields from the process-wide flight recorder (a
/// no-op leaving zeros when none is installed).
void fill_recorder_status(StatusSnapshot& s);

}  // namespace cbe::jobsvc
