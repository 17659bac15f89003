// Structured execution tracing (see DESIGN.md "Observability").
//
// Every layer of the stack emits typed events through the CBE_TRACE_EVENT
// macro into an *ambient* per-thread TraceSink.  The simulator is
// single-threaded per run, so installing a sink around run_workload captures
// a totally ordered, deterministic event stream: same seed + config produces
// a bit-identical trace, which is what makes traces usable as golden
// regression fixtures (tests/golden/).
//
// A sink has one writer, the thread that installed it.  Built with a
// capacity it is a bounded ring that keeps only the newest events: the
// always-on flight recorder, which a process can register for crash dumps
// (install_flight_recorder below).
//
// Trace sites are always compiled in.  With no sink installed, each costs
// one thread-local load and branch.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cbe::trace {

/// Every event the stack can emit.  The payload fields `a`/`b` are
/// per-kind (documented in DESIGN.md "Observability: event schema"); all
/// payloads are integers so the text export is bit-reproducible.
enum class EventKind : std::uint8_t {
  TaskDispatch,   ///< spe=master, pid, a=bootstrap, b=loop degree
  TaskComplete,   ///< spe=master, pid, a=bootstrap
  TaskQueued,     ///< spe=-1, pid (no idle SPE; dispatch parked)
  PpeFallback,    ///< spe=-1, pid, a=task kind, b=1 if fault-recovery path
  DmaIssue,       ///< spe, pid=dma id, a=bytes, b=chunks
  DmaRetire,      ///< spe, pid=dma id, a=ok
  DmaFault,       ///< spe, pid=oracle index, a=bytes (transient failure)
  EibStall,       ///< spe, pid=dma id, a=congestion, b=stall ns
  CodeLoad,       ///< spe, pid=module id, a=bytes, b=variant
  MailboxSignal,  ///< spe, a=latency ns (one-way PPE<->SPE signal)
  CtxSwitch,      ///< spe=context, pid=new holder, a=previous holder,
                  ///< b=switch cost ns
  SpeBusy,        ///< spe (reservation begins)
  SpeIdle,        ///< spe (reservation released)
  LoopFork,       ///< spe=master, a=degree, b=iterations
  LoopJoin,       ///< spe=master, a=master idle ns, b=worker wait ns
  ChunkReassign,  ///< spe=lost worker, a=iterations moved to the master
  DegreeChange,   ///< a=new MGPS degree, b=observed TLP degree U
  FaultFailStop,  ///< spe (fail-stop applied)
  FaultDegrade,   ///< spe, a=derate factor in parts-per-million
  WatchdogFire,   ///< spe=master, pid, a=attempt id
  Reoffload,      ///< spe=-1, pid, a=retry count
  EngineDrain,    ///< a=events processed, b=events still pending
  // -- Job-service events (src/jobsvc; spe = blade id, pid = job id) -------
  JobSubmit,      ///< spe=-1, pid=job, a=tenant, b=priority
  JobAdmit,       ///< spe=-1, pid=job, a=tenant, b=queue depth after admit
  JobReject,      ///< spe=-1, pid=job, a=tenant, b=reason (AdmissionDecision)
  JobShed,        ///< spe=-1, pid=shed job, a=tenant, b=displacing job
  JobDispatch,    ///< spe=blade, pid=job, a=attempt, b=steps already done
  JobCheckpoint,  ///< spe=blade, pid=job, a=steps done, b=snapshot bytes
  JobFail,        ///< spe=blade, pid=job, a=attempt, b=reason (FailReason)
  JobRetry,       ///< spe=-1, pid=job, a=attempt, b=backoff ns
  JobMigrate,     ///< spe=new blade (-1 while queued), pid=job,
                  ///< a=lost blade, b=steps restored from the snapshot
  JobComplete,    ///< spe=blade, pid=job, a=attempt, b=latency ns
  BladeFail,      ///< spe=blade, a=jobs in flight, b=1 fail-stop / 0 degrade
  BreakerOpen,    ///< spe=blade, a=consecutive failures, b=cooloff ns
  BreakerClose,   ///< spe=blade (half-open probe succeeded)
  // -- Data-integrity events (ISSUE 9) -------------------------------------
  DmaCorrupt,     ///< spe, pid=oracle index, a=bytes (payload flip injected)
  ResultCorrupt,  ///< spe, pid, a=injected (1) or detected-by-reexec (2),
                  ///< b=oracle index
  Quarantine,     ///< spe (or blade), a=corruptions detected, b=threshold
  kCount
};

/// Stable short name used by both exporters (and the golden text format).
/// constexpr so coverage is checked at compile time: a kind added without a
/// name fails the static_assert below instead of printing "unknown" into
/// goldens.
constexpr const char* event_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::TaskDispatch: return "task_dispatch";
    case EventKind::TaskComplete: return "task_complete";
    case EventKind::TaskQueued: return "task_queued";
    case EventKind::PpeFallback: return "ppe_fallback";
    case EventKind::DmaIssue: return "dma_issue";
    case EventKind::DmaRetire: return "dma_retire";
    case EventKind::DmaFault: return "dma_fault";
    case EventKind::EibStall: return "eib_stall";
    case EventKind::CodeLoad: return "code_load";
    case EventKind::MailboxSignal: return "mailbox";
    case EventKind::CtxSwitch: return "ctx_switch";
    case EventKind::SpeBusy: return "spe_busy";
    case EventKind::SpeIdle: return "spe_idle";
    case EventKind::LoopFork: return "loop_fork";
    case EventKind::LoopJoin: return "loop_join";
    case EventKind::ChunkReassign: return "chunk_reassign";
    case EventKind::DegreeChange: return "degree_change";
    case EventKind::FaultFailStop: return "fault_failstop";
    case EventKind::FaultDegrade: return "fault_degrade";
    case EventKind::WatchdogFire: return "watchdog_fire";
    case EventKind::Reoffload: return "reoffload";
    case EventKind::EngineDrain: return "engine_drain";
    case EventKind::JobSubmit: return "job_submit";
    case EventKind::JobAdmit: return "job_admit";
    case EventKind::JobReject: return "job_reject";
    case EventKind::JobShed: return "job_shed";
    case EventKind::JobDispatch: return "job_dispatch";
    case EventKind::JobCheckpoint: return "job_ckpt";
    case EventKind::JobFail: return "job_fail";
    case EventKind::JobRetry: return "job_retry";
    case EventKind::JobMigrate: return "job_migrate";
    case EventKind::JobComplete: return "job_complete";
    case EventKind::BladeFail: return "blade_fail";
    case EventKind::BreakerOpen: return "breaker_open";
    case EventKind::BreakerClose: return "breaker_close";
    case EventKind::DmaCorrupt: return "dma_corrupt";
    case EventKind::ResultCorrupt: return "result_corrupt";
    case EventKind::Quarantine: return "quarantine";
    case EventKind::kCount: break;
  }
  return "unknown";
}

namespace detail {
/// Every kind below kCount must have a real, pairwise-distinct name.
constexpr bool all_event_kinds_named() {
  constexpr int n = static_cast<int>(EventKind::kCount);
  for (int i = 0; i < n; ++i) {
    const std::string_view name = event_name(static_cast<EventKind>(i));
    if (name == "unknown") return false;
    for (int j = 0; j < i; ++j) {
      if (name == event_name(static_cast<EventKind>(j))) return false;
    }
  }
  return true;
}
}  // namespace detail
static_assert(detail::all_event_kinds_named(),
              "every EventKind up to kCount needs a unique event_name() "
              "entry (exporters and the text-trace parser rely on it)");

/// Inverse of event_name; returns kCount when `name` matches no kind.
EventKind event_kind_from_name(std::string_view name) noexcept;

// -- Causal spans -------------------------------------------------------------
//
// A span is a 64-bit causal identity threaded through trace events so the
// analyzer can pull one job's cross-component critical path out of a
// multi-tenant stream.  The taxonomy mirrors the recovery machinery:
//
//   job      which logical job (jobsvc job id, or driver bootstrap id)
//   attempt  retry/attempt generation within that job
//   hop      migration hop (blade-kill / quarantine recoveries so far)
//   task     offload task within the attempt (step index, task pid)
//
// Packing: bits 63..32 = job + 1 (so every tagged span is nonzero and 0
// means "untagged"), 31..24 = attempt, 23..16 = hop, 15..0 = task.  The
// narrow fields saturate instead of wrapping into their neighbours.
//
// The current span is ambient per-thread state, exactly like the current
// sink: installers use ScopedSpan and every record() site picks it up
// automatically, so instrumented code never threads span arguments around.

constexpr std::uint64_t kNoSpan = 0;

constexpr std::uint64_t make_span(std::uint64_t job, std::uint64_t attempt,
                                  std::uint64_t hop,
                                  std::uint64_t task) noexcept {
  const std::uint64_t j = job < 0xffffffffull ? job + 1 : 0xffffffffull;
  const std::uint64_t at = attempt < 0xffull ? attempt : 0xffull;
  const std::uint64_t h = hop < 0xffull ? hop : 0xffull;
  const std::uint64_t t = task < 0xffffull ? task : 0xffffull;
  return (j << 32) | (at << 24) | (h << 16) | t;
}

struct SpanParts {
  std::uint32_t job = 0;
  std::uint32_t attempt = 0;
  std::uint32_t hop = 0;
  std::uint32_t task = 0;
  bool valid = false;  ///< false when unpacked from kNoSpan
};

constexpr SpanParts span_parts(std::uint64_t span) noexcept {
  SpanParts p;
  if (span == kNoSpan) return p;
  p.job = static_cast<std::uint32_t>((span >> 32) - 1);
  p.attempt = static_cast<std::uint32_t>((span >> 24) & 0xff);
  p.hop = static_cast<std::uint32_t>((span >> 16) & 0xff);
  p.task = static_cast<std::uint32_t>(span & 0xffff);
  p.valid = true;
  return p;
}

/// The calling thread's ambient span (kNoSpan when none installed).
std::uint64_t current_span() noexcept;
/// Installs `span` as the ambient span; returns the previous one.
std::uint64_t set_current_span(std::uint64_t span) noexcept;

/// RAII installation of an ambient span (restores the previous on exit).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::uint64_t span) : prev_(set_current_span(span)) {}
  ~ScopedSpan() { set_current_span(prev_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t prev_;
};

struct Event {
  std::int64_t t_ns = 0;  ///< simulated ns (or steady-clock ns natively)
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int32_t pid = -1;
  std::int16_t spe = -1;
  EventKind kind = EventKind::TaskDispatch;
  std::uint64_t span = kNoSpan;  ///< causal span id (see make_span)
};

/// Single-writer event recorder.  The simulator installs one as the ambient
/// sink for the duration of a run; the golden tests snapshot its contents.
/// Unbounded by default.  Given a capacity it is a ring that holds the newest
/// `capacity` events: once full, each record overwrites the oldest, so it
/// always keeps the causal tail of what just happened.
class TraceSink final {
 public:
  static constexpr std::size_t kMinCapacity = 16;
  /// Largest capacity the command-line tools accept (640 MiB of events).
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 24;

  TraceSink() = default;
  /// `capacity` 0 means unbounded; smaller than kMinCapacity clamps up.  A
  /// bounded sink allocates its whole ring here.
  explicit TraceSink(std::size_t capacity);
  /// Unregisters the sink if it is the installed flight recorder.
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  TraceSink(TraceSink&&) = default;
  TraceSink& operator=(TraceSink&&) = default;

  void record(std::int64_t t_ns, EventKind kind, int spe, int pid,
              std::int64_t a = 0, std::int64_t b = 0);

  /// Storage order: record order, until a bounded sink wraps.
  const std::vector<Event>& events() const noexcept { return events_; }
  /// The held events in record order, oldest first.
  std::vector<Event> tail() const;
  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }
  /// Every event ever recorded; overwritten() of them fell off the ring.
  std::uint64_t recorded() const noexcept { return size() + overwritten_; }
  std::uint64_t overwritten() const noexcept { return overwritten_; }

  /// Number of held events of `kind`.
  std::uint64_t count(EventKind kind) const noexcept;

 private:
  std::vector<Event> events_;
  std::size_t limit_ = static_cast<std::size_t>(-1);  ///< max events_ size
  std::size_t oldest_ = 0;  ///< the slot the next overwrite replaces
  std::uint64_t overwritten_ = 0;
};

/// The calling thread's ambient sink (null when none installed).
TraceSink* current() noexcept;
/// Installs `sink` as the ambient sink; returns the previous one.
TraceSink* set_current(TraceSink* sink) noexcept;

/// RAII installation of an ambient sink (restores the previous on exit).
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceSink* sink) : prev_(set_current(sink)) {}
  ~ScopedTrace() { set_current(prev_); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceSink* prev_;
};

// -- Crash dumps --------------------------------------------------------------
//
// A process registers one sink as its flight recorder.  dump_flight_recorder
// writes the sink's newest `window` events as a strict `# cbe-trace v1` file
// (the reason and the loss counters ride in a `#` comment line), so every
// crash artifact feeds straight into cell_profiler.  Dump sites: the
// --die-at-event crash clock (via sim::set_crash_clock_hook), the jobsvc
// quarantine and watchdog paths, and nonzero-exit paths in cell_jobsvc.  A
// dump reads the sink, so it runs on the sink's recording thread.  Dumps are
// budgeted per process; the crash clock's bypasses the budget (`force`)
// because the final dump is the one that matters.

/// Registers `sink` as the process's flight recorder, dumped to `dump_path`
/// as its newest `window` events (clamped up to TraceSink::kMinCapacity).
/// Pass nullptr to unregister.  `max_dumps` bounds how many non-forced dumps
/// one process may write (each overwrites the file).
void install_flight_recorder(const TraceSink* sink, std::size_t window,
                             std::string dump_path, int max_dumps = 8);

/// The registered sink's counters as its dump reports them: events recorded,
/// and how many of those fell outside the dump window.  False, leaving both
/// untouched, when none is registered.
bool flight_recorder_counts(std::uint64_t& recorded,
                            std::uint64_t& overwritten) noexcept;

/// Writes the registered sink's dump, tagged with `reason`.  Returns false
/// when none is registered, the per-process dump budget is exhausted (unless
/// `force`), or the write fails.  Safe to call immediately before a SIGKILL.
bool dump_flight_recorder(const char* reason, bool force = false) noexcept;

/// Dumps written so far (for statusz and tests).
std::uint64_t flight_dumps_written() noexcept;

/// The dump text: `sink`'s newest `window` events plus a
/// `# flight-recorder ...` comment line.  Exposed for tests.
std::string flight_dump_text(const TraceSink& sink, std::size_t window,
                             const char* reason);

}  // namespace cbe::trace

/// Records an event into the ambient sink, if one is installed.  `t_ns` is
/// evaluated only when a sink is present.
#define CBE_TRACE_EVENT(t_ns, kind, spe, pid, a, b)                       \
  do {                                                                    \
    if (::cbe::trace::TraceSink* cbe_trace_sink_ = ::cbe::trace::current()) \
      cbe_trace_sink_->record((t_ns), (kind), (spe), (pid), (a), (b));    \
  } while (0)
