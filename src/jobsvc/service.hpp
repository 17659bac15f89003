// The fault-tolerant multi-tenant job service (ROADMAP item 1): a
// long-running coordinator that owns a bounded priority queue with admission
// control, dispatches jobs over a simulated blade fleet, and keeps every
// admitted job's result correct under blade loss.
//
// The whole service runs on the deterministic discrete-event engine
// (sim::Engine) in virtual time, so every schedule — admissions, backoff
// timers, breaker cooloffs, blade kills — replays bit-identically from the
// config.  Determinism is not a test convenience here; it is the mechanism
// behind the headline guarantee: a job's final result is a pure function of
// (service seed, tenant, job id), so a run where FaultPlan killed a blade
// and every in-flight job was restored from its last src/ckpt snapshot on a
// healthy blade finishes with results bit-identical to a fault-free run.
//
// Failure handling layers (DESIGN.md "Job service"):
//   admission   - bounded queue depth, per-tenant quotas, priority-aware
//                 load shedding under overload
//   retry       - transient execution failures restore from the last
//                 snapshot and re-dispatch after exponential backoff with
//                 deterministic, seeded jitter
//   watchdog    - per-dispatch deadline catches stragglers (Degrade faults);
//                 a fired watchdog is a retryable failure
//   breaker     - blades that fail repeatedly stop receiving work for a
//                 cooloff, then serve a half-open probe before closing
//   migration   - FaultPlan blade kills requeue in-flight jobs from their
//                 snapshots with no retry penalty (the blade failed, not
//                 the job)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jobsvc/job.hpp"
#include "platform/cluster.hpp"
#include "sim/fault.hpp"

namespace cbe::trace {
class TraceSink;
class MetricsRegistry;
}  // namespace cbe::trace

namespace cbe::jobsvc {

struct RetryPolicy {
  /// Retryable failures a job may accrue before it is marked Failed.
  /// Blade-kill migrations never count against this budget.
  int max_failures = 5;
  double base_backoff_s = 0.05;
  double multiplier = 2.0;
  /// Backoff jitter fraction: the delay is scaled by a deterministic
  /// per-(job, failure) factor in [1 - jitter, 1 + jitter].
  double jitter = 0.2;
};

struct CircuitBreakerPolicy {
  /// Consecutive failures on one blade that open its breaker; 0 disables.
  int failure_threshold = 3;
};

struct AdmissionPolicy {
  /// Bound on queued (not yet running) jobs; 0 = unbounded.
  int max_queue = 1024;
  /// Max queued+running+backing-off jobs per tenant; 0 = no quota.
  int per_tenant_quota = 0;
  /// Under overload, admit a higher-priority arrival by shedding the
  /// lowest-priority queued job (false: reject the arrival instead).
  bool shed_lowest = true;
};

/// Live status plane (DESIGN.md §12): periodic `cbe-statusz-v1` snapshots
/// of queue/tenant/blade/SLO state.  Snapshots are taken in virtual time, so
/// they are deterministic per config — including their contents.
struct StatuszPolicy {
  /// Virtual seconds between snapshots; 0 disables the periodic export (the
  /// final snapshot in ServiceReport is always produced).
  double every_s = 0.0;
  /// File the JSON snapshot is (re)written to; "" keeps snapshots in memory.
  std::string json_path;
  /// Optional parallel text rendering (what cell_top shows).
  std::string text_path;
};

struct ServiceConfig {
  /// Master seed: job payload streams, backoff jitter, and (salted) the
  /// fault plan all derive from it.
  std::uint64_t seed = 2026;
  platform::BladeFleetConfig fleet = platform::BladeFleetConfig::uniform(4);
  AdmissionPolicy admission;
  RetryPolicy retry;
  CircuitBreakerPolicy breaker;

  /// Steps between snapshots while a job runs (0 disables checkpointing and
  /// every recovery becomes a cold restart; migrations still work).
  int checkpoint_every = 8;
  /// A dispatch's watchdog fires after `watchdog_factor` x the expected
  /// remaining runtime at dispatch speed; <= 0 disables watchdogs.
  double watchdog_factor = 4.0;
  /// Per-(job, attempt, step) transient execution-failure probability
  /// (deterministic oracle seeded from `fault.seed`).
  double step_fail_rate = 0.0;

  // -- Data integrity (DESIGN.md §11) --------------------------------------
  /// Per-(job, attempt, step) *silent* corruption probability: the step
  /// completes normally but poisons the job's result digest.  Undetected
  /// corruption flows into snapshots and Completed results — which is why
  /// verification exists.
  double step_corrupt_rate = 0.0;
  /// Fraction of steps re-executed redundantly and compared (deterministic
  /// sample).  A mismatch is a retryable failure with the Corruption cause;
  /// a job that exhausts its retry budget on corruption is reported
  /// JobStatus::Corrupt — failed closed, never returned as clean.
  double verify_fraction = 0.0;
  /// Detected corruptions attributed to one blade before it is permanently
  /// quarantined (in-flight jobs migrate off it).  0 disables quarantine.
  int quarantine_threshold = 3;

  /// Blade-level fault injection: `fault.blade_fail_rate` draws fail-stop
  /// blades, `fault.straggler_rate`/`straggler_factor` draw Degrade events,
  /// over `fault.horizon` (0 = derived from the workload).  `fault.seed`
  /// also seeds the step-failure oracle and backoff jitter.
  sim::FaultConfig fault;
  /// Explicit fault script (node = blade index); overrides the drawn plan.
  std::vector<sim::FaultEvent> fault_script;

  StatuszPolicy statusz;

  trace::TraceSink* trace = nullptr;
  trace::MetricsRegistry* metrics = nullptr;
};

enum class JobStatus : std::uint8_t {
  Completed,
  Rejected,          ///< refused at admission (queue bound or tenant quota)
  Shed,              ///< admitted, later evicted for higher-priority work
  DeadlineExceeded,  ///< missed its completion deadline
  Failed,            ///< exhausted the retry budget, or starved of blades
  Corrupt,           ///< exhausted the budget on integrity failures: the
                     ///< service could never confirm a clean result and
                     ///< fails closed rather than returning a wrong one
};

const char* job_status_name(JobStatus s) noexcept;

/// Why an execution failed (JobFail trace payload `b`).
enum class FailReason : std::uint8_t {
  StepFault, Watchdog, Starved, Corruption,
};
/// Why admission refused a job (JobReject trace payload `b`).
enum class RejectReason : std::uint8_t { QueueFull, QuotaExceeded };

/// The service's counters, one record: the run increments it, and both the
/// report and every status snapshot take a copy of it.
struct ServiceCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t migrations = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_restores = 0;
  std::uint64_t watchdog_fires = 0;
  std::uint64_t blade_failures = 0;
  std::uint64_t blade_degrades = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t corrupt_injected = 0;   ///< silent step corruptions injected
  std::uint64_t corrupt_detected = 0;   ///< caught by sampled re-execution
  std::uint64_t corrupt_jobs = 0;       ///< jobs that failed closed (Corrupt)
  std::uint64_t verify_reexecs = 0;     ///< redundant step executions run
  std::uint64_t quarantined_blades = 0; ///< blades removed for corruption
};

struct JobOutcome {
  JobSpec spec;
  JobStatus status = JobStatus::Failed;
  JobResult result;       ///< meaningful only when status == Completed
  int attempts = 0;       ///< dispatches (including post-migration ones)
  int failures = 0;       ///< retryable failures consumed
};

struct ServiceReport : ServiceCounters {
  std::vector<JobOutcome> jobs;  ///< sorted by job id

  double makespan_s = 0.0;
  double throughput_jps = 0.0;   ///< completed jobs per virtual second
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double p50_queue_wait_s = 0.0;
  double p99_queue_wait_s = 0.0;

  std::uint64_t engine_events = 0;
  /// Event-queue high-water marks (ISSUE 8 leak guard): resident entries
  /// (live + cancelled corpses) and live events.  Bounded-memory invariant
  /// under watchdog churn: queue_peak <= 2 * live_peak + 64.
  std::uint64_t engine_queue_peak = 0;
  std::uint64_t engine_live_peak = 0;

  /// Final `cbe-statusz-v1` snapshot (JSON and text renderings), taken after
  /// the run drained.  Deterministic per config — the golden test diffs it.
  std::string statusz_json;
  std::string statusz_text;
  /// Periodic snapshots written during the run (excludes the final one).
  std::uint64_t statusz_snapshots = 0;

  /// Per-job *results only* (id, tenant, status, digest, value), one line
  /// per job in id order.  Byte-identical across runs that differ only in
  /// faults/retries/migrations — the string the bit-identical tests diff.
  std::string results_text() const;
  /// Full human-readable summary (includes timing, so fault-dependent).
  std::string to_text() const;
};

class Service {
 public:
  explicit Service(ServiceConfig cfg);

  /// Runs the whole lifetime of the service over `jobs` (submitted at their
  /// `submit_s` arrival times) and reports.  Deterministic per config.
  ServiceReport run(const std::vector<JobSpec>& jobs);

 private:
  ServiceConfig cfg_;
};

}  // namespace cbe::jobsvc
