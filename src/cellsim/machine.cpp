#include "cellsim/machine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "trace/trace.hpp"

namespace cbe::cell {

CellMachine::CellMachine(sim::Engine& eng, CellParams params,
                         const task::ModuleRegistry& modules)
    : eng_(eng), params_(params), modules_(&modules), mfc_(params),
      tallies_(static_cast<std::size_t>(params_.num_cells)) {
  spes_.reserve(static_cast<std::size_t>(params_.total_spes()));
  for (int i = 0; i < params_.total_spes(); ++i) {
    const int cell = params_.cell_of_spe(i);
    spes_.emplace_back(i, cell, params_.local_store_bytes,
                       &tallies_.at(static_cast<std::size_t>(cell)));
  }
  Ppe::Config pc;
  pc.contexts = params_.contexts_per_ppe;
  pc.clock_ghz = params_.clock_ghz;
  pc.smt_slowdown = params_.smt_slowdown;
  pc.ctx_switch = params_.ctx_switch;
  pc.resume_penalty = params_.resume_penalty;
  for (int c = 0; c < params_.num_cells; ++c) {
    ppes_.push_back(std::make_unique<Ppe>(eng_, pc));
  }
}

void CellMachine::idle_spes(int preferred_cell, std::vector<int>& out) const {
  out.clear();
  // SPEs are numbered Cell by Cell; a Cell without an idle SPE is skipped
  // unscanned (the common case once the pool is saturated).
  const auto scan = [&](int cell) {
    if (tallies_[static_cast<std::size_t>(cell)].idle == 0) return;
    const int first = cell * params_.spes_per_cell;
    for (int i = first; i < first + params_.spes_per_cell; ++i) {
      const Spe& s = spes_[static_cast<std::size_t>(i)];
      if (s.idle() && s.usable()) out.push_back(i);
    }
  };
  if (preferred_cell >= 0 && preferred_cell < num_cells()) {
    scan(preferred_cell);
  }
  for (int c = 0; c < num_cells(); ++c) {
    if (c != preferred_cell) scan(c);
  }
}

int CellMachine::count_idle_spes() const noexcept {
  int n = 0;
  for (const auto& t : tallies_) n += t.idle;
  return n;
}

int CellMachine::failed_spes() const noexcept {
  int n = 0;
  for (const auto& t : tallies_) n += t.failed;
  return n;
}

void CellMachine::install_faults(const sim::FaultPlan& plan) {
  fault_plan_ = &plan;
  forced_flips_.assign(static_cast<std::size_t>(num_spes()), 0);
  for (const auto& ev : plan.events()) {
    if (ev.node < 0 || ev.node >= num_spes()) continue;
    const sim::Time at = ev.at < eng_.now() ? eng_.now() : ev.at;
    fault_events_.push_back(eng_.schedule_at(at, [this, ev] {
      switch (ev.kind) {
        case sim::FaultKind::FailStop:
          fail_spe(ev.node);
          break;
        case sim::FaultKind::Degrade:
          degrade_spe(ev.node, ev.factor);
          break;
        case sim::FaultKind::BitFlip:
          // Arms the node: its next verified transfer corrupts.
          ++forced_flips_[static_cast<std::size_t>(ev.node)];
          break;
      }
    }));
  }
}

void CellMachine::require_faults(const char* what) const {
  if (fault_plan_ == nullptr) {
    throw std::logic_error(std::string("CellMachine::") + what +
                           ": no fault plan installed");
  }
}

void CellMachine::cancel_pending_faults() noexcept {
  for (const auto& id : fault_events_) eng_.cancel(id);
  fault_events_.clear();
}

void CellMachine::fail_spe(int spe_id) {
  require_faults("fail_spe");
  Spe& s = spe(spe_id);
  if (!s.usable()) return;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::FaultFailStop,
                  spe_id, -1, 0, 0);
  s.fail(eng_.now());
  ++fault_stats_.spe_failures;
  notify_fault_observers(spe_id);
}

void CellMachine::degrade_spe(int spe_id, double factor) {
  Spe& s = spe(spe_id);
  if (!s.usable()) return;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::FaultDegrade,
                  spe_id, -1, std::llround(factor * 1e6), 0);
  s.degrade(factor);
  ++fault_stats_.stragglers;
}

void CellMachine::quarantine_spe(int spe_id, int strikes, int threshold) {
  require_faults("quarantine_spe");
  Spe& s = spe(spe_id);
  if (!s.usable()) return;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::Quarantine,
                  spe_id, -1, strikes, threshold);
  s.fail(eng_.now());
  ++fault_stats_.quarantined;
  notify_fault_observers(spe_id);
}

int CellMachine::add_fault_observer(FaultObserver obs) {
  const int id = next_observer_id_++;
  fault_observers_.emplace_back(id, std::move(obs));
  return id;
}

void CellMachine::remove_fault_observer(int id) noexcept {
  for (auto it = fault_observers_.begin(); it != fault_observers_.end();
       ++it) {
    if (it->first == id) {
      fault_observers_.erase(it);
      return;
    }
  }
}

void CellMachine::notify_fault_observers(int spe_id) {
  // Observers may remove themselves (or register new ones) while being
  // notified; iterate over a snapshot.
  std::vector<std::pair<int, FaultObserver>> snapshot = fault_observers_;
  for (auto& [id, obs] : snapshot) obs(spe_id);
}

void CellMachine::ensure_module(int spe_id, std::uint16_t module,
                                ModuleVariant v, Fn done) {
  Spe& s = spe(spe_id);
  if (s.has_module(module, v)) {
    done();
    return;
  }
  const auto& mod = modules_->get(module);
  const std::size_t bytes =
      v == ModuleVariant::Parallel && mod.parallel_bytes > 0
          ? mod.parallel_bytes
          : mod.bytes;
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::CodeLoad,
                  spe_id, module, static_cast<std::int64_t>(bytes),
                  static_cast<std::int64_t>(v));
  s.set_module(module, v, bytes);
  dma(spe_id, static_cast<double>(bytes),
      MfcRules::list_entries(bytes, params_), std::move(done));
}

namespace {

// Hands a DMA completion the verdicts its flavour asks for.
void complete(CellMachine::Fn& done, bool, bool) { done(); }
void complete(CellMachine::DmaFn& done, bool ok, bool) { done(ok); }
void complete(CellMachine::VerifiedDmaFn& done, bool ok, bool corrupt) {
  done(ok, corrupt);
}

}  // namespace

void CellMachine::spe_compute(int spe_id, double cycles, Fn done) {
  // A degraded SPE silently computes at a fraction of the nominal clock; a
  // fail-stop during the burst suppresses the completion (the work is lost
  // and the runtime's watchdog must recover it).
  const double factor = spe(spe_id).speed_factor();
  auto fire = [this, spe_id, cb = std::move(done)]() mutable {
    if (!spe(spe_id).usable()) return;
    cb();
  };
  static_assert(sim::SmallFn::fits_inline<decltype(fire)>);
  eng_.schedule_after(sim::cycles_to_time(cycles / factor, params_.clock_ghz),
                      std::move(fire));
}

void CellMachine::dma(int spe_id, double bytes, int chunks, Fn done) {
  // Unchecked transfers (code loads, legacy callers) are not subject to the
  // transient-failure oracle; only dma_checked consumes oracle draws, so a
  // caller mix cannot perturb the deterministic failure sequence.
  start_dma(spe_id, bytes, chunks, /*ok=*/true, /*corrupt=*/false,
            std::move(done));
}

void CellMachine::dma_checked(int spe_id, double bytes, int chunks,
                              DmaFn done) {
  // The oracle is consulted at issue time so replay is a pure function of
  // the deterministic transfer sequence number.
  bool ok = true;
  if (bytes > 0.0 && fault_plan_ != nullptr &&
      fault_plan_->dma_fails(dma_seq_++)) {
    ok = false;
    ++fault_stats_.dma_faults;
    CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::DmaFault,
                    spe_id, static_cast<std::int32_t>(dma_seq_ - 1),
                    std::llround(bytes), 0);
  }
  start_dma(spe_id, bytes, chunks, ok, /*corrupt=*/false, std::move(done));
}

void CellMachine::dma_verified(int spe_id, double bytes, int chunks,
                               VerifiedDmaFn done) {
  bool ok = true;
  bool corrupt = false;
  if (bytes > 0.0 && fault_plan_ != nullptr) {
    // Same transient stream as dma_checked — see the header contract.
    if (fault_plan_->dma_fails(dma_seq_++)) {
      ok = false;
      ++fault_stats_.dma_faults;
      CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::DmaFault,
                      spe_id, static_cast<std::int32_t>(dma_seq_ - 1),
                      std::llround(bytes), 0);
    }
    const std::uint64_t vix = verified_seq_++;
    const auto sid = static_cast<std::size_t>(spe_id);
    if (sid < forced_flips_.size() && forced_flips_[sid] > 0) {
      --forced_flips_[sid];
      corrupt = true;
    } else if (fault_plan_->dma_corrupts(vix)) {
      corrupt = true;
    }
    // A transport-reported failure is retried anyway; the silent channel
    // only matters on transfers that claim success.
    if (corrupt && ok) {
      ++fault_stats_.dma_corruptions;
      CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::DmaCorrupt,
                      spe_id, static_cast<std::int32_t>(vix),
                      std::llround(bytes), 0);
    } else {
      corrupt = false;
    }
  }
  start_dma(spe_id, bytes, chunks, ok, corrupt, std::move(done));
}

template <typename Done>
void CellMachine::start_dma(int spe_id, double bytes, int chunks, bool ok,
                            bool corrupt, Done done) {
  if (bytes <= 0.0) {
    complete(done, true, false);
    return;
  }
  ++active_dma_;
  dma_bytes_ += bytes;
  // Each Cell has its own XDR memory (512 MB per processor on the blade),
  // so DMA congestion is per-Cell: the busy SPEs of this SPE's Cell.
  const int cell = spe(spe_id).cell();
  const int congestion =
      std::max(tallies_[static_cast<std::size_t>(cell)].busy, 1);
  const sim::Time t = mfc_.transfer_time(bytes, chunks, congestion,
                                         /*cross_cell=*/false);
#if CBE_TRACE_ENABLED
  const auto id = static_cast<std::int32_t>(dma_id_++);
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::DmaIssue,
                  spe_id, id, std::llround(bytes), chunks);
  if (congestion > 1 && trace::current() != nullptr) {
    // Contention stall: extra transfer time versus the uncontended path.
    const sim::Time solo = mfc_.transfer_time(bytes, chunks, 1,
                                              /*cross_cell=*/false);
    if (t > solo) {
      CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::EibStall,
                      spe_id, id, congestion, (t - solo).nanoseconds());
    }
  }
  auto retire = [this, spe_id, id, ok, corrupt,
                 cb = std::move(done)]() mutable {
    --active_dma_;
    CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::DmaRetire,
                    spe_id, id, ok ? 1 : 0,
                    spe(spe_id).usable() ? 1 : 0);
    if (!spe(spe_id).usable()) return;
    complete(cb, ok, corrupt);
  };
#else
  auto retire = [this, spe_id, ok, corrupt, cb = std::move(done)]() mutable {
    --active_dma_;
    if (!spe(spe_id).usable()) return;
    complete(cb, ok, corrupt);
  };
#endif
  static_assert(sim::SmallFn::fits_inline<decltype(retire)>);
  eng_.schedule_after(t, std::move(retire));
}

sim::Time CellMachine::signal_latency(int spe_id) const noexcept {
  (void)spe_id;
  return params_.mailbox_latency;
}

sim::Time CellMachine::pass_latency(int from, int to) const noexcept {
  const bool cross = spe(from).cell() != spe(to).cell();
  return cross ? params_.pass_latency_local * params_.cross_cell_factor
               : params_.pass_latency_local;
}

void CellMachine::signal(int spe_id, Fn done) {
  CBE_TRACE_EVENT(eng_.now().nanoseconds(), trace::EventKind::MailboxSignal,
                  spe_id, -1, signal_latency(spe_id).nanoseconds(), 0);
  auto fire = [this, spe_id, cb = std::move(done)]() mutable {
    if (!spe(spe_id).usable()) return;
    cb();
  };
  static_assert(sim::SmallFn::fits_inline<decltype(fire)>);
  eng_.schedule_after(signal_latency(spe_id), std::move(fire));
}

sim::Time CellMachine::solo_dma_time(double bytes,
                                     int chunks) const noexcept {
  return mfc_.transfer_time(bytes, chunks, 1, /*cross_cell=*/false);
}

sim::Time CellMachine::code_load_time(std::uint16_t module,
                                      ModuleVariant v) const {
  const auto& mod = modules_->get(module);
  const std::size_t bytes =
      v == ModuleVariant::Parallel && mod.parallel_bytes > 0
          ? mod.parallel_bytes
          : mod.bytes;
  return mfc_.transfer_time(static_cast<double>(bytes),
                            MfcRules::list_entries(bytes, params_), 1,
                            /*cross_cell=*/false);
}

double CellMachine::mean_spe_utilization() const noexcept {
  if (spes_.empty() || eng_.now().nanoseconds() == 0) return 0.0;
  double sum = 0.0;
  for (const auto& s : spes_) sum += s.utilization(eng_.now());
  return sum / static_cast<double>(spes_.size());
}

}  // namespace cbe::cell
