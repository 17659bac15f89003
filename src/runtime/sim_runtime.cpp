#include "runtime/sim_runtime.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cellsim/machine.hpp"
#include "cellsim/mfc.hpp"
#include "runtime/loop_executor.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/pool.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace cbe::rt {

namespace {

/// Modeled CRC cost, cycles per framed payload byte.  0.15 models a
/// table-driven slicing CRC32 on the SPU (branch-free, quadword loads); a
/// naive bytewise loop would be ~1 cycle/byte, hardware assist ~0.05.
constexpr double kCrcCyclesPerByte = 0.15;

/// The declared result of a task, as a pure function of its identity.  Both
/// a correct SPE execution and the PPE fallback "compute" this value, so the
/// per-bootstrap digest chain is schedule-independent on a clean run and any
/// divergence is injected corruption that escaped detection.
std::uint64_t task_result_hash(int bootstrap, std::size_t pc) noexcept {
  std::uint64_t s = static_cast<std::uint64_t>(bootstrap) *
                        0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(pc) + 1;
  return util::splitmix64(s);
}

/// Every continuation of the off-load chain captures `{this, record}`; this
/// pins that it fits the machine's inline buffer, so no stage allocates.
template <typename F>
F inline_cont(F f) {
  static_assert(cell::CellMachine::Fn::fits_inline<F>,
                "off-load continuation exceeds the machine's inline buffer");
  return f;
}

class Driver {
 public:
  Driver(const task::Workload& wl, SchedulerPolicy& policy,
         const RunConfig& cfg)
      : wl_(wl), policy_(policy), cfg_(cfg),
        machine_(eng_, cfg.cell),
        loop_exec_(machine_) {
    for (auto& b : balancers_) b.set_adaptive(cfg.adaptive_balance);
    if (cfg_.metrics != nullptr) {
      latency_hist_ = &cfg_.metrics->histogram("offload_latency_us");
      loop_exec_.set_metrics(cfg_.metrics);
    }
  }

  RunResult run();

 private:
  /// The record of one off-load attempt: everything its continuation chain
  /// needs, so each stage captures only `{this, ref}`.  Under faults the
  /// recovery paths (watchdog, fail-stop observer, DMA-retry exhaustion)
  /// coordinate through it so the attempt is torn down exactly once.
  /// Pooled: a superseded attempt keeps its record until its last callback
  /// drops, and a recycled record keeps its worker list's capacity.
  struct Attempt : sim::Pooled<Attempt> {
    int pid = -1;
    std::uint64_t id = 0;    ///< attempt generation (always 0 without faults)
    std::uint64_t span = 0;  ///< causal span shared by dispatch and completion
    const task::TaskDesc* task = nullptr;  ///< the workload outlives the run
    std::size_t kind = 0;
    int master = -1;
    std::vector<int> workers;  ///< reserved loop participants
    int degree = 1;
    cell::ModuleVariant variant = cell::ModuleVariant::Sequential;
    int chunks_in = 0;
    int chunks_out = 0;
    bool output = false;        ///< the task transfer in flight is the output
    int tries = 0;              ///< retries of the task transfer in flight
    bool closed = false;        ///< completed or torn down (exactly once)
    bool loop_started = false;  ///< loop_exec_.run was invoked
    bool dma_poison = false;    ///< silent payload corruption went unframed
    bool res_poison = false;    ///< result corruption injected this attempt

    void recycle() noexcept {}
  };
  using AttemptRef = sim::Ref<Attempt>;

  struct Proc {
    int pid = -1;
    int cell = 0;
    int ppe_pid = -1;
    int bootstrap = -1;
    std::size_t pc = 0;
    bool finished = false;
    int last_spe = -1;  ///< SPE affinity: reuse keeps code resident
    sim::Time dispatch_at;      ///< off-load start, for latency metrics
    std::uint64_t attempt = 0;  ///< generation: stale completions compare it
    int retries = 0;            ///< recovery re-offloads of the current task
    sim::EventId watchdog;
    AttemptRef att;  ///< current (latest) attempt, under faults only
  };
  // Granularity accounting (Section 5.2): the first few off-loads of each
  // kernel class are profiled against the t_spe + t_code + 2 t_comm < t_ppe
  // test using the intrinsic (uncontended) cost of each component, exactly
  // the quantities the paper's formula names.  The class is demoted to PPE
  // execution only if a majority fail, so one outlier task cannot throttle
  // a whole class.  t_code counts only for the first execution, since the
  // runtime pre-loads and keeps modules resident.
  struct KernelStat {
    static constexpr int kSamples = 5;
    int measured = 0;
    int failures = 0;
    bool demoted = false;
    bool evaluated() const { return measured >= kSamples; }
  };

  cell::Ppe& ppe(const Proc& p) { return machine_.ppe(p.cell); }
  const task::Segment& segment(const Proc& p) const {
    return wl_.bootstraps[static_cast<std::size_t>(p.bootstrap)]
        .segments[p.pc];
  }
  double clock() const { return cfg_.cell.clock_ghz; }

  /// Causal span for the offload layer: bootstrap → attempt generation →
  /// recovery re-offload hop → process id.  Matches the jobsvc taxonomy
  /// (job → attempt → hop → task) so cell_profiler stitches a job's critical
  /// path across both layers from one span id.
  std::uint64_t task_span(const Proc& p, int pid,
                          std::uint64_t attempt) const {
    if (p.bootstrap < 0) return trace::kNoSpan;
    return trace::make_span(static_cast<std::uint64_t>(p.bootstrap), attempt,
                            static_cast<std::uint64_t>(p.retries),
                            static_cast<std::uint64_t>(pid));
  }

  RuntimeView view() const {
    RuntimeView v;
    v.total_spes = machine_.num_spes();
    v.spes_per_cell = cfg_.cell.spes_per_cell;
    v.idle_spes = machine_.count_idle_spes();
    v.failed_spes = machine_.failed_spes();
    v.waiting_offloads = static_cast<int>(wait_queue_.size());
    v.active_processes = active_processes_;
    v.now = eng_.now();
    return v;
  }

  void next_bootstrap(int pid);
  void run_segment(int pid);
  void dispatch(int pid);
  void begin_offload(int pid, const std::vector<int>& idle, bool from_queue);
  // -- The off-load chain, one member per stage (see begin_offload) --------
  void load_code(const AttemptRef& a);
  void start_transfer(const AttemptRef& a, bool output);
  void task_dma(const AttemptRef& a);
  void on_task_dma(const AttemptRef& a, bool ok, bool corrupt);
  void run_task(const AttemptRef& a);
  void post_compute(const AttemptRef& a);
  void after_verify(const AttemptRef& a);
  void output_done(const AttemptRef& a);
  void on_task_done(int pid, std::uint64_t attempt_id);
  void after_ppe_task(int pid);
  void resume(int pid);
  void serve_wait_queue();
  void prefer_affine_spe(const Proc& p, std::vector<int>& idle);
  void arm_timer();

  // -- Fault handling ------------------------------------------------------
  void setup_faults();
  void on_spe_failure(int spe);
  void on_watchdog(int pid, std::uint64_t attempt_id);
  void abandon_attempt(const AttemptRef& att);
  /// Marks `a` torn down and frees the SPEs it reserved but never started:
  /// the master and, unless the loop ran, its workers.  Started workers free
  /// themselves (or the loop's fault hook does).
  void close_attempt(Attempt& a);
  /// Re-issues `p`'s current task after its attempt was lost: charges the
  /// wasted work, retires the watchdog and the attempt generation, and
  /// re-dispatches (or falls back to the PPE past the retry budget).
  void reissue(Proc& p);
  void redispatch(int pid);
  void ppe_recover(int pid);
  void rescue_wait_queue();
  void mark_recovered(int bootstrap) {
    recovered_.at(static_cast<std::size_t>(bootstrap)) = 1;
  }

  // -- Data integrity (DESIGN.md §11) --------------------------------------
  /// Attributes a detected corruption to `spe`; trips quarantine at the
  /// configured threshold (which tears down the SPE's live attempt through
  /// the fault-observer path).
  void note_strike(int spe);
  /// Folds the task's (possibly poisoned) result hash into the bootstrap's
  /// digest chain.  Called exactly once per committed task, in program
  /// order.
  void commit_result(int pid, bool poisoned);

  const task::Workload& wl_;
  SchedulerPolicy& policy_;
  RunConfig cfg_;
  /// Declared before the engine and the machine so it outlives every
  /// callback that still holds a record when the run is torn down.
  sim::RecordPool<Attempt> attempts_;
  sim::Engine eng_;
  cell::CellMachine machine_;
  LoopExecutor loop_exec_;
  std::array<LoopBalancer, 4> balancers_;
  std::array<KernelStat, 4> kstats_;

  std::vector<Proc> procs_;
  std::deque<int> bootstrap_queue_;
  sim::Fifo<int> wait_queue_;
  std::vector<int> idle_;  ///< idle-SPE scan buffer, reused by every dispatch
  int active_processes_ = 0;
  sim::EventId timer_event_;
  double degree_sum_ = 0.0;
  RunResult res_;

  sim::FaultPlan fault_plan_;
  bool faults_on_ = false;
  std::vector<char> recovered_;  ///< per-bootstrap: completion needed recovery
  std::vector<std::uint32_t> digests_;  ///< per-bootstrap result digest chain
  std::vector<int> strikes_;     ///< per-SPE detected-corruption count
  std::uint64_t task_seq_ = 0;   ///< result-corruption oracle stream position
  trace::Histogram* latency_hist_ = nullptr;

  void finalize_metrics();
};

RunResult Driver::run() {
  // Ambient sink for every layer's CBE_TRACE_EVENT sites; restored on exit
  // so nested/sequential runs (run_cluster) compose.
  trace::ScopedTrace scoped_trace(cfg_.trace);
  const int b = static_cast<int>(wl_.size());
  if (b == 0) return res_;
  res_.bootstrap_completion_s.assign(static_cast<std::size_t>(b), 0.0);
  recovered_.assign(static_cast<std::size_t>(b), 0);
  digests_.assign(static_cast<std::size_t>(b), 0u);
  strikes_.assign(static_cast<std::size_t>(machine_.num_spes()), 0);
  for (int i = 0; i < b; ++i) bootstrap_queue_.push_back(i);
  setup_faults();

  const int workers = std::max(
      1, std::min(policy_.worker_count(b, machine_.num_spes()),
                  b));
  procs_.resize(static_cast<std::size_t>(workers));
  active_processes_ = workers;
  for (int pid = 0; pid < workers; ++pid) {
    Proc& p = procs_[static_cast<std::size_t>(pid)];
    p.pid = pid;
    p.cell = pid % cfg_.cell.num_cells;
    const int pin = policy_.pin_processes()
                        ? (pid / cfg_.cell.num_cells) %
                              cfg_.cell.contexts_per_ppe
                        : -1;
    p.ppe_pid = ppe(p).add_process(pin);
  }
  for (int pid = 0; pid < workers; ++pid) next_bootstrap(pid);
  arm_timer();

  eng_.run();

  res_.makespan_s = eng_.now().to_seconds();
  res_.mean_spe_utilization = machine_.mean_spe_utilization();
  res_.mean_loop_degree =
      res_.offloads > 0 ? degree_sum_ / static_cast<double>(res_.offloads)
                        : 1.0;
  for (int c = 0; c < machine_.num_cells(); ++c) {
    res_.ctx_switches += machine_.ppe(c).context_switches();
  }
  for (int s = 0; s < machine_.num_spes(); ++s) {
    res_.code_loads += machine_.spe(s).code_loads();
  }
  res_.events = eng_.events_processed();

  const cell::FaultStats& fs = machine_.fault_stats();
  res_.spe_failures = fs.spe_failures;
  res_.stragglers = fs.stragglers;
  res_.dma_faults = fs.dma_faults;
  res_.dma_retries += loop_exec_.dma_retries();
  res_.loop_reassignments = loop_exec_.reassigned_chunks();
  res_.dma_bytes = machine_.total_dma_bytes();
  res_.corrupt_injected += fs.dma_corruptions;
  res_.quarantined_spes = fs.quarantined;
  res_.bootstrap_digests = digests_;
  for (char r : recovered_) res_.recovered_bootstraps += (r != 0);
  finalize_metrics();
  return res_;
}

void Driver::finalize_metrics() {
  trace::MetricsRegistry* m = cfg_.metrics;
  if (m == nullptr) return;
  m->gauge("run.makespan_s").set(res_.makespan_s);
  m->gauge("run.mean_spe_utilization").set(res_.mean_spe_utilization);
  m->gauge("run.mean_loop_degree").set(res_.mean_loop_degree);
  m->counter("run.offloads").add(res_.offloads);
  m->counter("run.ppe_fallbacks").add(res_.ppe_fallbacks);
  m->counter("run.loop_splits").add(res_.loop_splits);
  m->counter("run.ctx_switches").add(res_.ctx_switches);
  m->counter("run.code_loads").add(res_.code_loads);
  m->counter("run.events").add(res_.events);
  m->counter("dma.bytes").add(
      static_cast<std::uint64_t>(machine_.total_dma_bytes()));
  m->counter("fault.spe_failures").add(res_.spe_failures);
  m->counter("fault.stragglers").add(res_.stragglers);
  m->counter("fault.dma_faults").add(res_.dma_faults);
  m->counter("fault.dma_retries").add(res_.dma_retries);
  m->counter("fault.timeouts").add(res_.timeouts);
  m->counter("fault.reoffloads").add(res_.reoffloads);
  m->counter("fault.ppe_fallbacks").add(res_.fault_ppe_fallbacks);
  m->counter("integrity.injected").add(res_.corrupt_injected);
  m->counter("integrity.detected").add(res_.corrupt_detected);
  m->counter("integrity.silent").add(res_.corrupt_silent);
  m->counter("integrity.reexec").add(res_.verify_reexecs);
  m->counter("integrity.retries").add(res_.integrity_retries);
  m->counter("integrity.quarantined").add(res_.quarantined_spes);
  for (int s = 0; s < machine_.num_spes(); ++s) {
    m->gauge("spe." + std::to_string(s) + ".utilization")
        .set(machine_.spe(s).utilization(eng_.now()));
    m->counter("spe." + std::to_string(s) + ".tasks")
        .add(machine_.spe(s).tasks_served());
  }
}

void Driver::setup_faults() {
  sim::FaultConfig fc = cfg_.fault;
  if (fc.horizon == sim::Time()) {
    // Scale event placement to the workload: a rough fault-free makespan
    // estimate (aggregate SPE demand over the pool, plus the PPE stream over
    // two contexts) keeps a given rate comparable across workload sizes.
    double spe_cycles = 0.0;
    double ppe_cycles = 0.0;
    for (const auto& bs : wl_.bootstraps) {
      for (const auto& seg : bs.segments) {
        spe_cycles += seg.task.spe_cycles_total();
        ppe_cycles += seg.ppe_burst_cycles;
      }
    }
    const auto pool = static_cast<double>(
        std::max(1, std::min(machine_.num_spes(),
                             static_cast<int>(wl_.size()))));
    fc.horizon =
        sim::cycles_to_time(spe_cycles / pool + ppe_cycles / 2.0, clock());
    if (fc.horizon == sim::Time()) fc.horizon = sim::Time::ms(10.0);
  }
  if (!cfg_.fault_script.empty()) {
    fault_plan_ = sim::FaultPlan::from_script(cfg_.fault_script, fc);
    faults_on_ = true;
  } else if (fc.enabled()) {
    fault_plan_ = sim::FaultPlan::from_config(fc, machine_.num_spes());
    faults_on_ = true;
  }
  if (faults_on_) {
    machine_.install_faults(fault_plan_);
    machine_.add_fault_observer([this](int spe) { on_spe_failure(spe); });
    // Abandoned loops release their surviving workers outside any driver
    // callback; without this hook a re-dispatch queued during the teardown
    // would strand even though SPEs are idle.
    loop_exec_.set_release_hook([this] { serve_wait_queue(); });
  }
}

void Driver::arm_timer() {
  if (cfg_.policy_timer == sim::Time()) return;
  timer_event_ = eng_.schedule_after(cfg_.policy_timer, [this] {
    policy_.on_timer(view());
    arm_timer();
  });
}

void Driver::next_bootstrap(int pid) {
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  if (bootstrap_queue_.empty()) {
    p.finished = true;
    --active_processes_;
    if (active_processes_ == 0) {
      eng_.cancel(timer_event_);
      // Unfired fault events must not keep the drained simulation alive
      // (and inflate the makespan past the last completion).
      machine_.cancel_pending_faults();
    }
    return;
  }
  p.bootstrap = bootstrap_queue_.front();
  bootstrap_queue_.pop_front();
  p.pc = 0;
  ppe(p).request(p.ppe_pid, [this, pid] { run_segment(pid); });
}

void Driver::run_segment(int pid) {
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  p.retries = 0;  // recovery budget is per task
  const auto& trace =
      wl_.bootstraps[static_cast<std::size_t>(p.bootstrap)];
  if (p.pc >= trace.segments.size()) {
    res_.bootstrap_completion_s[static_cast<std::size_t>(p.bootstrap)] =
        eng_.now().to_seconds();
    ppe(p).yield(p.ppe_pid);
    next_bootstrap(pid);
    return;
  }
  const double dispatch_cycles = cfg_.cell.dispatch_us * clock() * 1e3;
  ppe(p).compute(p.ppe_pid,
                 segment(p).ppe_burst_cycles + dispatch_cycles,
                 [this, pid] { dispatch(pid); });
}

void Driver::dispatch(int pid) {
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  trace::ScopedSpan span(task_span(p, pid, p.attempt));
  const task::TaskDesc& t = segment(p).task;
  const auto kind = static_cast<std::size_t>(t.kind);

  if (policy_.granularity_test() && kstats_[kind].demoted) {
    // Task class failed the t_spe + t_code + 2 t_comm < t_ppe test; run the
    // PPE version of the function instead (Section 5.2).
    ++res_.ppe_fallbacks;
    CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::PpeFallback,
                    -1, pid, static_cast<std::int64_t>(kind), 0);
    ppe(p).compute(p.ppe_pid, t.ppe_cycles,
                   [this, pid] { after_ppe_task(pid); });
    return;
  }

  if (faults_on_ && machine_.healthy_spes() == 0) {
    // The whole pool fail-stopped: queueing would wait forever for a
    // departure that cannot come.  Fall back to the PPE.
    ppe_recover(pid);
    return;
  }

  machine_.idle_spes(p.cell, idle_);
  if (idle_.empty()) {
    CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::TaskQueued,
                    -1, pid, p.bootstrap, 0);
    wait_queue_.push_back(pid);
    if (policy_.yield_on_offload()) ppe(p).yield(p.ppe_pid);
    // Spin-wait policies keep the context while queued.
    return;
  }
  prefer_affine_spe(p, idle_);
  begin_offload(pid, idle_, /*from_queue=*/false);
}

void Driver::begin_offload(int pid, const std::vector<int>& idle,
                           bool from_queue) {
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  // The offload being built is the next attempt generation (faults mode
  // increments p.attempt below); tag its events with that generation so
  // dispatch and completion of one attempt share a span.
  const std::uint64_t span_id =
      task_span(p, pid, faults_on_ ? p.attempt + 1 : p.attempt);
  trace::ScopedSpan span(span_id);
  const task::TaskDesc& t = segment(p).task;
  const auto kind = static_cast<std::size_t>(t.kind);

  int d = policy_.loop_degree(view(), t);
  if (!t.loop.parallelizable()) {
    d = 1;
  } else {
    // Memory-aware minimum degree (Section 6 future work): each SPE must
    // hold its share of the task's working set next to the code image, so
    // large multi-gene alignments (the paper's 51,089-nucleotide mammal
    // data) require LLP independent of idle-SPE counts.
    const task::CodeModule& mod = task::code_module(t.module_id);
    const double free_ls = static_cast<double>(
        cfg_.cell.local_store_bytes -
        std::max(mod.bytes, mod.parallel_bytes) -
        cell::LocalStore::kMinStackHeap);
    const double working_set = t.dma_in_bytes + t.dma_out_bytes;
    if (free_ls > 0 && working_set > free_ls) {
      const int min_degree = static_cast<int>(
          std::ceil(working_set / free_ls));
      d = std::max(d, min_degree);
    }
  }
  d = std::min(d, static_cast<int>(t.loop.iterations == 0
                                       ? 1u
                                       : t.loop.iterations));

  const int master = idle[0];
  p.last_spe = master;
  const AttemptRef a = attempts_.acquire();
  // Loop work-sharing stays within the master's Cell: the Pass protocol
  // relies on local-EIB SPE-to-SPE puts (Section 5.3.1), and splitting a
  // loop across the blade's Cells would stream chunks over the slow
  // inter-Cell path.
  std::vector<int>& workers = a->workers;
  workers.clear();
  for (auto it = idle.begin() + 1;
       it != idle.end() && static_cast<int>(workers.size()) < d - 1; ++it) {
    if (machine_.spe(*it).cell() == machine_.spe(master).cell()) {
      workers.push_back(*it);
    }
  }
  d = static_cast<int>(workers.size()) + 1;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::TaskDispatch,
                  master, pid, p.bootstrap, d);
  p.dispatch_at = eng_.now();
  machine_.spe(master).reserve(eng_.now());
  for (int w : workers) machine_.spe(w).reserve(eng_.now());

  policy_.on_offload(view(), pid);
  ++res_.offloads;
  degree_sum_ += d;
  if (d > 1) ++res_.loop_splits;

  KernelStat& ks = kstats_[kind];
  if (policy_.granularity_test() && !ks.evaluated()) {
    const sim::Time t_spe = sim::cycles_to_time(t.spe_cycles_total(), clock());
    const sim::Time t_code =
        ks.measured == 0 ? machine_.code_load_time(
                               t.module_id, cell::ModuleVariant::Sequential)
                         : sim::Time();
    const sim::Time t_dma =
        machine_.solo_dma_time(t.dma_in_bytes + t.dma_out_bytes, 2);
    const sim::Time t_offload = t_spe + t_code + t_dma +
                                2.0 * machine_.signal_latency(master);
    const sim::Time t_ppe = sim::cycles_to_time(t.ppe_cycles, clock());
    ks.measured += 1;
    if (t_offload >= t_ppe) ks.failures += 1;
    if (ks.evaluated() && ks.failures * 2 > ks.measured) ks.demoted = true;
  }

  // Loop-parallel execution needs the Parallel image; a sequential task can
  // run on either image (the parallel variant contains the plain code paths
  // too), so reuse whatever is resident and avoid reload thrash when the
  // adaptive policy mixes degrees across kernel classes.
  const auto variant =
      d > 1 ? cell::ModuleVariant::Parallel
            : (machine_.spe(master).has_module(t.module_id,
                                               cell::ModuleVariant::Parallel)
                   ? cell::ModuleVariant::Parallel
                   : cell::ModuleVariant::Sequential);
  const int chunks_in =
      cfg_.dma_aggregated
          ? cell::MfcRules::list_entries(
                static_cast<std::size_t>(t.dma_in_bytes), cfg_.cell)
          : cell::MfcRules::naive_chunks(
                static_cast<std::size_t>(t.dma_in_bytes));
  const int chunks_out =
      cfg_.dma_aggregated
          ? cell::MfcRules::list_entries(
                static_cast<std::size_t>(t.dma_out_bytes), cfg_.cell)
          : cell::MfcRules::naive_chunks(
                static_cast<std::size_t>(t.dma_out_bytes));
  a->pid = pid;
  a->id = 0;
  a->span = span_id;
  a->task = &t;
  a->kind = kind;
  a->master = master;
  a->degree = d;
  a->variant = variant;
  a->chunks_in = chunks_in;
  a->chunks_out = chunks_out;
  a->closed = false;
  a->loop_started = false;
  a->dma_poison = false;
  a->res_poison = false;
  if (faults_on_) {
    p.att = a;
    const std::uint64_t attempt_id = ++p.attempt;
    a->id = attempt_id;
    // Deadline: a generous multiple of the intrinsic off-load cost — the
    // same quantities the granularity test reasons about.  A straggling or
    // silently stuck attempt past this point is superseded and re-issued.
    const sim::Time t_spe = sim::cycles_to_time(t.spe_cycles_total(), clock());
    const sim::Time t_code = machine_.code_load_time(t.module_id, variant);
    const sim::Time t_dma =
        machine_.solo_dma_time(t.dma_in_bytes + t.dma_out_bytes, 2);
    sim::Time deadline =
        kWatchdogFactor *
        (t_spe + t_code + t_dma + 2.0 * machine_.signal_latency(master));
    if (deadline < sim::Time::us(50.0)) deadline = sim::Time::us(50.0);
    p.watchdog = eng_.schedule_after(deadline, [this, pid, attempt_id] {
      on_watchdog(pid, attempt_id);
    });
  }

  // The chain: dispatch signal -> code load -> input transfer -> compute or
  // loop -> integrity stage -> output transfer -> release + completion
  // signal -> on_task_done.
  machine_.signal(master, inline_cont([this, a] { load_code(a); }));

  if (!from_queue && policy_.yield_on_offload()) ppe(p).yield(p.ppe_pid);
  // Spin-wait policies keep the context until on_task_done resumes them.
}

void Driver::load_code(const AttemptRef& a) {
  machine_.ensure_module(a->master, a->task->module_id, a->variant,
                         inline_cont([this, a] { start_transfer(a, false); }));
}

void Driver::start_transfer(const AttemptRef& a, bool output) {
  a->output = output;
  a->tries = 0;
  task_dma(a);
}

void Driver::task_dma(const AttemptRef& a) {
  const double bytes =
      a->output ? a->task->dma_out_bytes : a->task->dma_in_bytes;
  const int chunks = a->output ? a->chunks_out : a->chunks_in;
  // dma_verified shares dma_checked's transient stream, so fault replay is
  // unchanged; it additionally reports the silent-corruption channel.
  machine_.dma_verified(a->master, bytes, chunks,
                        inline_cont([this, a](bool ok, bool corrupt) {
                          on_task_dma(a, ok, corrupt);
                        }));
}

void Driver::on_task_dma(const AttemptRef& a, bool ok, bool corrupt) {
  if (ok && corrupt) {
    if (cfg_.integrity.crc_framing) {
      // The consumer's end-to-end CRC check rejects the poisoned payload;
      // the transfer is retried like a transport failure, but attributed
      // to the Corruption cause (counters + quarantine strikes).
      ++res_.corrupt_detected;
      note_strike(a->master);
      if (a->closed) {
        // Quarantine tore the attempt down and re-issued the task.
        serve_wait_queue();
        return;
      }
      if (a->tries < kMaxDmaRetries) {
        ++res_.integrity_retries;
        ++a->tries;
        task_dma(a);
        return;
      }
      abandon_attempt(a);
      return;
    }
    // Without framing the bit-flip sails through and poisons whatever
    // this attempt commits.
    a->dma_poison = true;
  }
  if (ok) {
    const double bytes =
        a->output ? a->task->dma_out_bytes : a->task->dma_in_bytes;
    auto next = inline_cont([this, a] {
      if (a->output) {
        output_done(a);
      } else {
        run_task(a);
      }
    });
    if (cfg_.integrity.crc_framing && bytes > 0.0) {
      // Modeled cost of computing/verifying the frame CRC at the consumer.
      eng_.schedule_after(
          sim::cycles_to_time(bytes * kCrcCyclesPerByte, clock()),
          std::move(next));
      return;
    }
    next();
    return;
  }
  if (a->tries < kMaxDmaRetries) {
    ++res_.dma_retries;
    ++a->tries;
    task_dma(a);
    return;
  }
  // Transfer permanently lost: tear the attempt down and recover.
  abandon_attempt(a);
}

void Driver::run_task(const AttemptRef& a) {
  auto done = inline_cont([this, a] { post_compute(a); });
  if (a->degree == 1) {
    machine_.spe_compute(a->master, a->task->spe_cycles_total(),
                         std::move(done));
    return;
  }
  a->loop_started = true;
  loop_exec_.run(a->master, a->workers, *a->task, balancers_[a->kind],
                 std::move(done));
}

// Integrity stage between compute and the output transfer: the seeded
// oracle may flip the declared result, and the sampled redundant-execution
// check re-runs the task and compares — the only detector that can see a
// wrong-but-well-framed result (DESIGN.md §11).
void Driver::post_compute(const AttemptRef& a) {
  trace::ScopedSpan span(a->span);
  if (!faults_on_ && !cfg_.integrity.enabled()) {
    start_transfer(a, /*output=*/true);
    return;
  }
  const std::uint64_t tix = task_seq_++;
  if (faults_on_ && fault_plan_.result_corrupts(tix)) {
    ++res_.corrupt_injected;
    CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::ResultCorrupt,
                    a->master, a->pid, 1, static_cast<std::int64_t>(tix));
    a->res_poison = true;
  }
  if (!sim::verify_sampled(cfg_.fault.seed, tix,
                           cfg_.integrity.verify_fraction)) {
    start_transfer(a, /*output=*/true);
    return;
  }
  ++res_.verify_reexecs;
  machine_.spe_compute(a->master, a->task->spe_cycles_total(),
                       inline_cont([this, a] { after_verify(a); }));
}

void Driver::after_verify(const AttemptRef& a) {
  trace::ScopedSpan span(a->span);
  if (a->res_poison && !a->closed) {
    ++res_.corrupt_detected;
    CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::ResultCorrupt,
                    a->master, a->pid, 2, 0);
    note_strike(a->master);
    // Quarantine (inside note_strike) may already have torn the attempt
    // down and re-issued the task via the observer path.
    abandon_attempt(a);
    return;
  }
  start_transfer(a, /*output=*/true);
}

void Driver::output_done(const AttemptRef& a) {
  machine_.spe(a->master).release(eng_.now());
  a->closed = true;
  machine_.signal(a->master, inline_cont([this, a] {
                    on_task_done(a->pid, a->id);
                  }));
}

void Driver::on_task_done(int pid, std::uint64_t attempt_id) {
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  trace::ScopedSpan span(task_span(p, pid, attempt_id));
  bool poisoned = false;
  if (faults_on_) {
    if (attempt_id != p.attempt) {
      // Superseded attempt finishing late (straggler): the chain already
      // freed its SPE; let waiting dispatches have it and drop the result.
      serve_wait_queue();
      return;
    }
    eng_.cancel(p.watchdog);
    poisoned = p.att && (p.att->dma_poison || p.att->res_poison);
    p.att.reset();
  }
  commit_result(pid, poisoned);
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::TaskComplete,
                  p.last_spe, pid, p.bootstrap, 0);
  if (latency_hist_ != nullptr) {
    latency_hist_->observe((eng_.now() - p.dispatch_at).to_us());
  }
  policy_.on_departure(view(), pid);
  serve_wait_queue();

  p.pc += 1;
  resume(pid);
}

void Driver::after_ppe_task(int pid) {
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  policy_.on_departure(view(), pid);
  // The PPE runs in trusted main memory: its result is always correct.
  commit_result(pid, /*poisoned=*/false);
  p.pc += 1;
  // The process already holds its context; continue directly (with a
  // quantum check for pinned spin policies).
  if (!policy_.yield_on_offload() &&
      ppe(p).quantum_expired(p.ppe_pid, cfg_.cell.linux_quantum)) {
    ppe(p).yield(p.ppe_pid);
    ppe(p).request(p.ppe_pid, [this, pid] { run_segment(pid); });
    return;
  }
  run_segment(pid);
}

void Driver::resume(int pid) {
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  if (policy_.yield_on_offload()) {
    ppe(p).request(p.ppe_pid, [this, pid] { run_segment(pid); });
    return;
  }
  // Spin-wait model: the process held its context throughout the off-load.
  // At this scheduling point the OS preempts it if its quantum expired and
  // a sibling is runnable (Figure 2b's behaviour emerges from this).
  if (ppe(p).quantum_expired(p.ppe_pid, cfg_.cell.linux_quantum)) {
    ppe(p).yield(p.ppe_pid);
    ppe(p).request(p.ppe_pid, [this, pid] { run_segment(pid); });
    return;
  }
  run_segment(pid);
}

void Driver::serve_wait_queue() {
  while (!wait_queue_.empty()) {
    const int pid = wait_queue_.front();
    Proc& p = procs_[static_cast<std::size_t>(pid)];
    machine_.idle_spes(p.cell, idle_);
    if (idle_.empty()) break;
    wait_queue_.pop_front();
    prefer_affine_spe(p, idle_);
    begin_offload(pid, idle_, /*from_queue=*/true);
  }
}

void Driver::prefer_affine_spe(const Proc& p, std::vector<int>& idle) {
  // Re-dispatching to the SPE a process used last keeps the code image
  // resident and avoids stealing a sibling's SPE (the paper's runtime
  // pre-loads annotated functions and leaves them on the SPEs).
  if (p.last_spe < 0) return;
  auto it = std::find(idle.begin(), idle.end(), p.last_spe);
  if (it != idle.end() && it != idle.begin()) std::iter_swap(idle.begin(), it);
}

void Driver::note_strike(int spe) {
  const int threshold = cfg_.integrity.quarantine_threshold;
  if (threshold <= 0) return;
  const auto ix = static_cast<std::size_t>(spe);
  if (ix >= strikes_.size()) return;
  if (++strikes_[ix] < threshold) return;
  if (machine_.spe(spe).usable()) {
    machine_.quarantine_spe(spe, strikes_[ix], threshold);
  }
}

void Driver::commit_result(int pid, bool poisoned) {
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  std::uint64_t h = task_result_hash(p.bootstrap, p.pc);
  if (poisoned) {
    // Deterministic poison so corrupting runs replay bit-identically.
    h = sim::corrupt_bits(h, cfg_.fault.seed,
                          (static_cast<std::uint64_t>(p.bootstrap) << 20) ^
                              static_cast<std::uint64_t>(p.pc));
    ++res_.corrupt_silent;
  }
  std::uint32_t& dg = digests_[static_cast<std::size_t>(p.bootstrap)];
  dg = util::crc32(&h, sizeof h, dg);
}

void Driver::close_attempt(Attempt& a) {
  a.closed = true;
  cell::Spe& master = machine_.spe(a.master);
  if (master.usable() && !master.idle()) master.release(eng_.now());
  if (a.loop_started) return;
  for (int w : a.workers) {
    if (machine_.spe(w).usable() && !machine_.spe(w).idle()) {
      machine_.spe(w).release(eng_.now());
    }
  }
}

void Driver::reissue(Proc& p) {
  res_.wasted_cycles += segment(p).task.spe_cycles_total();
  // A no-op when the watchdog itself is what fired.
  eng_.cancel(p.watchdog);
  mark_recovered(p.bootstrap);
  ++p.attempt;
  ++p.retries;
  redispatch(p.pid);
}

void Driver::abandon_attempt(const AttemptRef& att) {
  if (att->closed) return;
  close_attempt(*att);
  Proc& p = procs_[static_cast<std::size_t>(att->pid)];
  if (att->id == p.attempt && !p.finished) reissue(p);
  // Otherwise a superseded attempt cleaned up after itself; the live
  // attempt (or the PPE fallback) already owns the task.
  serve_wait_queue();
}

void Driver::on_watchdog(int pid, std::uint64_t attempt_id) {
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  if (p.finished || attempt_id != p.attempt || !p.att) return;
  trace::ScopedSpan span(task_span(p, pid, attempt_id));
  ++res_.timeouts;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::WatchdogFire,
                  p.att->master, pid,
                  static_cast<std::int64_t>(attempt_id), 0);
  // A master fail-stop the observer did not tear down is closed here.  A
  // live-but-slow chain (straggler, DMA storm) still owns its SPEs and
  // frees them itself on completion; it is superseded, not torn down.
  if (!machine_.spe(p.att->master).usable() && !p.att->closed) {
    close_attempt(*p.att);
  }
  reissue(p);
}

void Driver::on_spe_failure(int spe) {
  // Fast-path fail-stop recovery: a live attempt whose master died is torn
  // down and re-issued immediately instead of waiting for its watchdog.
  for (Proc& p : procs_) {
    if (p.finished || !p.att || p.att->closed || p.att->master != spe) {
      continue;
    }
    close_attempt(*p.att);
    reissue(p);
  }
  if (machine_.healthy_spes() == 0) rescue_wait_queue();
  serve_wait_queue();
}

void Driver::redispatch(int pid) {
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  trace::ScopedSpan span(task_span(p, pid, p.attempt));
  ++res_.reoffloads;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::Reoffload, -1,
                  pid, p.retries, 0);
  if (p.retries > kMaxTaskRetries || machine_.healthy_spes() == 0) {
    ppe_recover(pid);
    return;
  }
  machine_.idle_spes(p.cell, idle_);
  if (idle_.empty()) {
    CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::TaskQueued,
                    -1, pid, p.bootstrap, 1);
    wait_queue_.push_back(pid);
    return;
  }
  prefer_affine_spe(p, idle_);
  begin_offload(pid, idle_, /*from_queue=*/true);
}

void Driver::ppe_recover(int pid) {
  // Always-correct fallback: execute the PPE version of the task, as the
  // granularity test's demotion path does, but driven by fault recovery.
  Proc& p = procs_[static_cast<std::size_t>(pid)];
  trace::ScopedSpan span(task_span(p, pid, p.attempt));
  ++res_.fault_ppe_fallbacks;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::PpeFallback,
                  -1, pid, static_cast<std::int64_t>(segment(p).task.kind),
                  1);
  mark_recovered(p.bootstrap);
  p.att.reset();
  if (ppe(p).holds_context(p.ppe_pid)) {
    ppe(p).compute(p.ppe_pid, segment(p).task.ppe_cycles,
                   [this, pid] { after_ppe_task(pid); });
    return;
  }
  ppe(p).request(p.ppe_pid, [this, pid] {
    Proc& q = procs_[static_cast<std::size_t>(pid)];
    ppe(q).compute(q.ppe_pid, segment(q).task.ppe_cycles,
                   [this, pid] { after_ppe_task(pid); });
  });
}

void Driver::rescue_wait_queue() {
  // With zero healthy SPEs, no departure will ever serve the queue: every
  // queued dispatch goes to the PPE.
  while (!wait_queue_.empty()) {
    const int pid = wait_queue_.front();
    wait_queue_.pop_front();
    ppe_recover(pid);
  }
}

}  // namespace

RunResult run_workload(const task::Workload& wl, SchedulerPolicy& policy,
                       const RunConfig& cfg) {
  Driver driver(wl, policy, cfg);
  return driver.run();
}

RunResult run_cluster(const task::Workload& wl,
                      const std::function<std::unique_ptr<SchedulerPolicy>()>&
                          make_policy,
                      int blades, const RunConfig& cfg) {
  blades = std::max(blades, 1);
  struct Shard {
    task::Workload wl;
    std::vector<std::size_t> orig;  ///< workload index of each bootstrap
  };
  std::vector<Shard> shards(static_cast<std::size_t>(blades));
  for (std::size_t i = 0; i < wl.bootstraps.size(); ++i) {
    Shard& s = shards[i % static_cast<std::size_t>(blades)];
    s.wl.bootstraps.push_back(wl.bootstraps[i]);
    s.orig.push_back(i);
  }

  RunResult total;
  total.bootstrap_completion_s.assign(wl.bootstraps.size(), 0.0);
  total.bootstrap_digests.assign(wl.bootstraps.size(), 0u);
  int runs = 0;
  auto accumulate = [&total, &runs](const RunResult& r) {
    ++runs;
    total.offloads += r.offloads;
    total.ppe_fallbacks += r.ppe_fallbacks;
    total.loop_splits += r.loop_splits;
    total.ctx_switches += r.ctx_switches;
    total.code_loads += r.code_loads;
    total.events += r.events;
    total.mean_spe_utilization += r.mean_spe_utilization;
    total.mean_loop_degree +=
        r.mean_loop_degree * static_cast<double>(r.offloads);
    total.spe_failures += r.spe_failures;
    total.stragglers += r.stragglers;
    total.dma_faults += r.dma_faults;
    total.dma_retries += r.dma_retries;
    total.timeouts += r.timeouts;
    total.reoffloads += r.reoffloads;
    total.loop_reassignments += r.loop_reassignments;
    total.fault_ppe_fallbacks += r.fault_ppe_fallbacks;
    total.wasted_cycles += r.wasted_cycles;
    total.dma_bytes += r.dma_bytes;
    total.recovered_bootstraps += r.recovered_bootstraps;
    total.corrupt_injected += r.corrupt_injected;
    total.corrupt_detected += r.corrupt_detected;
    total.corrupt_silent += r.corrupt_silent;
    total.verify_reexecs += r.verify_reexecs;
    total.integrity_retries += r.integrity_retries;
    total.quarantined_spes += r.quarantined_spes;
  };

  // Per-blade seed salting keeps blades' fault draws independent while the
  // cluster as a whole replays bit-identically from one seed.
  auto blade_cfg = [&cfg](std::size_t salt) {
    RunConfig c = cfg;
    c.fault.seed = cfg.fault.seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    return c;
  };

  // Whole-blade fail-stop decisions (deterministic in the seed).  A failed
  // blade stops at a truncation point T_b inside its run; bootstraps that
  // completed by then are checkpointed, the rest are redistributed over the
  // surviving blades in a second phase.
  constexpr std::uint64_t kBladeSalt = 0x424c414445464c54ull;
  const double blade_rate = cfg.fault.blade_fail_rate;
  std::vector<bool> failed(shards.size(), false);
  bool any_used = false;
  bool any_survivor = false;
  for (std::size_t b = 0; b < shards.size(); ++b) {
    if (shards[b].wl.bootstraps.empty()) continue;
    any_used = true;
    failed[b] = blade_rate > 0.0 &&
                sim::fault_hash01(cfg.fault.seed, kBladeSalt + 2 * b) <
                    blade_rate;
    if (!failed[b]) any_survivor = true;
  }
  if (any_used && !any_survivor) {
    // Every blade failing leaves nobody to recover the work; keep the first
    // populated blade alive (in practice the job restarts from scratch).
    for (std::size_t b = 0; b < shards.size(); ++b) {
      if (!shards[b].wl.bootstraps.empty()) {
        failed[b] = false;
        break;
      }
    }
  }

  double phase1_end = 0.0;
  std::vector<std::size_t> leftovers;
  std::vector<std::size_t> survivors;
  for (std::size_t b = 0; b < shards.size(); ++b) {
    if (shards[b].wl.bootstraps.empty()) continue;
    auto policy = make_policy();
    const RunResult r = run_workload(shards[b].wl, *policy, blade_cfg(b));
    accumulate(r);
    if (!failed[b]) {
      survivors.push_back(b);
      phase1_end = std::max(phase1_end, r.makespan_s);
      for (std::size_t j = 0; j < shards[b].orig.size(); ++j) {
        total.bootstrap_completion_s[shards[b].orig[j]] =
            r.bootstrap_completion_s[j];
        total.bootstrap_digests[shards[b].orig[j]] = r.bootstrap_digests[j];
      }
      continue;
    }
    const double u =
        sim::fault_hash01(cfg.fault.seed, kBladeSalt + 2 * b + 1);
    const double t_b = (0.25 + 0.5 * u) * r.makespan_s;
    phase1_end = std::max(phase1_end, t_b);
    for (std::size_t j = 0; j < shards[b].orig.size(); ++j) {
      const double c = r.bootstrap_completion_s[j];
      if (c > 0.0 && c <= t_b) {
        total.bootstrap_completion_s[shards[b].orig[j]] = c;
        total.bootstrap_digests[shards[b].orig[j]] = r.bootstrap_digests[j];
      } else {
        leftovers.push_back(shards[b].orig[j]);
      }
    }
  }

  total.makespan_s = phase1_end;
  if (!leftovers.empty() && !survivors.empty()) {
    std::vector<Shard> extra(survivors.size());
    for (std::size_t k = 0; k < leftovers.size(); ++k) {
      Shard& s = extra[k % extra.size()];
      s.wl.bootstraps.push_back(wl.bootstraps[leftovers[k]]);
      s.orig.push_back(leftovers[k]);
    }
    double phase2 = 0.0;
    for (std::size_t k = 0; k < extra.size(); ++k) {
      if (extra[k].wl.bootstraps.empty()) continue;
      auto policy = make_policy();
      const RunResult r =
          run_workload(extra[k].wl, *policy,
                       blade_cfg(shards.size() + survivors[k]));
      accumulate(r);
      phase2 = std::max(phase2, r.makespan_s);
      for (std::size_t j = 0; j < extra[k].orig.size(); ++j) {
        total.bootstrap_completion_s[extra[k].orig[j]] =
            phase1_end + r.bootstrap_completion_s[j];
        total.bootstrap_digests[extra[k].orig[j]] = r.bootstrap_digests[j];
      }
    }
    total.makespan_s = phase1_end + phase2;
    total.recovered_bootstraps += leftovers.size();
  }

  if (runs > 0) total.mean_spe_utilization /= static_cast<double>(runs);
  if (total.offloads > 0) {
    total.mean_loop_degree /= static_cast<double>(total.offloads);
  }
  return total;
}

}  // namespace cbe::rt
