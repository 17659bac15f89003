// Trace analysis & performance attribution (see DESIGN.md "Observability:
// analysis & attribution").
//
// Consumes the totally ordered TraceSink event stream and turns it into
// explanations of where the makespan went:
//
//   - per-SPE timelines: busy/idle interval reconstruction from the
//     SpeBusy/SpeIdle reservation pairs, with EIB contention stalls and
//     fail-stop markers folded in.  Per SPE, busy + idle tiles [0, makespan]
//     exactly (integer nanoseconds, no rounding).
//   - makespan attribution: every nanosecond of wall time is assigned to
//     exactly one component (SPE compute, DMA-only, context switching,
//     signal latency, fault recovery, queueing, residual PPE work) by a
//     priority sweep over the event stream, so the components sum to the
//     makespan *exactly* — the property the paper's Figures 7-10 argument
//     rests on.
//   - critical path: the longest chain of completed task spans linked by
//     process program order or SPE reuse, never exceeding the makespan.
//   - MGPS scheduler audit: each DegreeChange decision annotated with the
//     observed TLP and the queue/pool state that justified it.
//
// All outputs are integer-ns or fixed-precision, so reports are
// bit-reproducible per seed and usable as golden fixtures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace cbe::analysis {

/// Half-open interval [start_ns, end_ns).
struct Interval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Busy/idle reconstruction for one SPE.  Invariant: busy_ns + idle_ns ==
/// the analysis makespan; stall_ns counts EIB contention inside busy spans.
struct SpeTimeline {
  int spe = -1;
  std::vector<Interval> busy;     ///< closed reservation spans, time order
  std::int64_t busy_ns = 0;
  std::int64_t idle_ns = 0;
  std::int64_t stall_ns = 0;      ///< EibStall ns charged to this SPE
  std::uint64_t tasks = 0;        ///< offloads mastered on this SPE
  std::uint64_t dma_issues = 0;
  bool failed = false;            ///< fail-stop observed
  std::int64_t failed_at_ns = -1;

  double utilization(std::int64_t makespan_ns) const noexcept {
    return makespan_ns > 0 ? static_cast<double>(busy_ns) /
                                 static_cast<double>(makespan_ns)
                           : 0.0;
  }
};

/// Wall-clock decomposition.  Each nanosecond of [0, makespan) is assigned
/// to the highest-priority component active at that instant:
///   spe_compute > dma > ctx_switch > signal > recovery > queue > ppe.
/// The components therefore sum to makespan_ns exactly.
struct Attribution {
  std::int64_t makespan_ns = 0;
  std::int64_t spe_compute_ns = 0;  ///< >= 1 SPE reserved (DMA may overlap)
  std::int64_t dma_ns = 0;          ///< DMA in flight, no SPE busy
  std::int64_t ctx_switch_ns = 0;   ///< PPE context-switch cost windows
  std::int64_t signal_ns = 0;       ///< PPE<->SPE mailbox latency windows
  std::int64_t recovery_ns = 0;     ///< between fault teardown and re-issue
  std::int64_t queue_ns = 0;        ///< offloads parked, machine quiet
  std::int64_t ppe_ns = 0;          ///< residual: PPE bursts and dispatch

  std::int64_t sum() const noexcept {
    return spe_compute_ns + dma_ns + ctx_switch_ns + signal_ns +
           recovery_ns + queue_ns + ppe_ns;
  }
};

/// One completed off-load: TaskDispatch..TaskComplete matched per process
/// (LIFO, so a re-offload's completion closes the newest attempt).
struct TaskSpan {
  int pid = -1;
  int spe = -1;        ///< master SPE of the dispatch
  int bootstrap = -1;
  int degree = 1;      ///< loop-sharing degree at dispatch
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t duration() const noexcept { return end_ns - start_ns; }
};

/// Longest chain of task spans where each successor starts at or after its
/// predecessor's end and shares either the process (program order) or the
/// master SPE (resource order).  Spans on a path never overlap, so
/// length_ns <= makespan_ns by construction.
struct CriticalPath {
  std::int64_t length_ns = 0;
  std::vector<TaskSpan> steps;  ///< the chain, in time order
};

/// One MGPS DegreeChange with the runtime state observed at that instant.
struct DegreeDecision {
  std::int64_t t_ns = 0;
  int new_degree = 1;
  int observed_tlp = 0;  ///< U, the window's distinct off-loading processes
  int busy_spes = 0;     ///< reserved SPEs at the decision point
  int queued = 0;        ///< offloads parked in the wait queue
  int failed_spes = 0;   ///< fail-stopped SPEs so far
};

struct SchedulerAudit {
  std::vector<DegreeDecision> decisions;
  std::uint64_t queued_events = 0;     ///< TaskQueued count
  std::uint64_t ppe_fallbacks = 0;
  std::uint64_t reoffloads = 0;
  std::uint64_t watchdog_fires = 0;
  std::uint64_t chunk_reassigns = 0;
};

/// Everything the analyzers extract from one event stream.
struct Analysis {
  std::int64_t makespan_ns = 0;
  std::vector<SpeTimeline> spes;       ///< observed SPEs, ascending id
  Attribution attribution;
  CriticalPath critical_path;
  SchedulerAudit audit;
  std::vector<TaskSpan> tasks;         ///< completed spans, dispatch order
  std::uint64_t dispatches = 0;
  std::uint64_t completes = 0;
  std::uint64_t abandoned = 0;         ///< dispatches never completed
  std::uint64_t loop_forks = 0;
  std::uint64_t dma_issues = 0;
  std::uint64_t dma_faults = 0;
};

/// Full analysis of a totally ordered event stream.  `makespan_ns` < 0
/// derives the run length from the last event's timestamp; passing the
/// engine's final time widens the window (the trailing gap is attributed
/// like any other).  Engine::run_until(limit) lands the clock on `limit`
/// even when the queue drains early, so a windowed run's final time is the
/// window end and the idle tail shows up here as attributed idle rather
/// than silently truncating the makespan.
Analysis analyze(const std::vector<trace::Event>& events,
                 std::int64_t makespan_ns = -1);

// -- Individual passes (analyze() composes these) --------------------------

/// Busy/idle/stall reconstruction.  Open reservations (fail-stop mid-task)
/// are closed at the makespan so the tiling invariant always holds.
std::vector<SpeTimeline> build_timelines(
    const std::vector<trace::Event>& events, std::int64_t makespan_ns);

Attribution attribute_makespan(const std::vector<trace::Event>& events,
                               std::int64_t makespan_ns);

/// Completed task spans in dispatch order; `abandoned`, when non-null,
/// receives the count of dispatches with no matching completion.
std::vector<TaskSpan> task_spans(const std::vector<trace::Event>& events,
                                 std::uint64_t* abandoned = nullptr);

CriticalPath critical_path(const std::vector<TaskSpan>& tasks);

SchedulerAudit audit_scheduler(const std::vector<trace::Event>& events);

// -- Rendering --------------------------------------------------------------

/// Human-readable report (tables, fixed formatting, deterministic).
std::string to_text(const Analysis& a);

/// Machine-readable report, schema "cbe-profile-v1" (see DESIGN.md).
/// Deterministic: integer ns plus %.6f-formatted ratios only.
std::string to_json(const Analysis& a);

}  // namespace cbe::analysis
