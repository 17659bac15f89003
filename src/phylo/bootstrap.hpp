// Non-parametric bootstrapping (Section 3.1): each bootstrap replicate
// re-weights the alignment columns by resampling, runs an independent tree
// search, and the replicate trees assign confidence to the best-known ML
// tree's branches.  Each replicate is exactly the unit of work one MPI
// process executes in the paper's Cell experiments.
//
// TraceGenerator adapts a replicate into the scheduler world: it observes
// every kernel invocation of a real analysis and renders it as the
// task::ProcessTrace the Cell runtime consumes, with costs derived from the
// verified operation-count formulas via the SPU/PPE pipeline models.
#pragma once

#include "phylo/search.hpp"
#include "spu/pipeline.hpp"
#include "task/task.hpp"

namespace cbe::phylo {

struct BootstrapResult {
  double loglik;
  Tree tree;
};

/// Runs one bootstrap replicate: resamples the alignment's weights, then
/// searches under them.  The alignment is only read, so replicates over one
/// alignment may run concurrently.  `tips`, when given, is the shared
/// make_tip_clvs(alignment) set; otherwise the replicate builds its own.
BootstrapResult run_bootstrap(const PatternAlignment& alignment,
                              const SubstModel& model, util::Rng& rng,
                              const SearchConfig& cfg = {},
                              KernelObserver* observer = nullptr,
                              const TipClvs* tips = nullptr);

struct TraceGenConfig {
  spu::OptFlags spe_opt = spu::OptFlags::optimized();
  spu::SpuCostParams spu_costs;
  spu::PpeCostParams ppe_costs;
  double clock_ghz = 3.2;
  /// PPE-side search bookkeeping between consecutive off-loads, in cycles.
  /// The paper measured ~11 us between off-loads for RAxML (Section 5.2).
  double ppe_burst_cycles = 11.0 * 3.2e3;
  std::uint16_t module_id = task::kRaxmlModule;
};

/// KernelObserver that renders kernel calls into a ProcessTrace.  A call
/// is only recorded as it happens (12 bytes); trace() and take_trace()
/// render the recorded calls through describe() into segments sized
/// exactly, so a search never grows its trace beside its engine.
class TraceGenerator final : public KernelObserver {
 public:
  explicit TraceGenerator(TraceGenConfig cfg = {}) : cfg_(cfg) {}

  void on_kernel(task::KernelClass kind, int patterns,
                 int newton_iters) override {
    calls_.push_back(Call{kind, patterns, newton_iters});
  }

  /// The trace of every call so far.
  const task::ProcessTrace& trace();
  /// The trace of every call so far; the generator starts over empty.
  task::ProcessTrace take_trace();

  /// Builds the TaskDesc for one kernel call (also used by the
  /// optimization-ladder bench to cost kernels under partial OptFlags).
  task::TaskDesc describe(task::KernelClass kind, int patterns,
                          int newton_iters) const;

 private:
  struct Call {
    task::KernelClass kind;
    int patterns;
    int newton_iters;
  };
  /// Appends the segments of the calls recorded since the last render.
  void render();

  TraceGenConfig cfg_;
  std::vector<Call> calls_;
  task::ProcessTrace trace_;
};

}  // namespace cbe::phylo
