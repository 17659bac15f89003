#include "phylo/bootstrap.hpp"

#include <utility>

namespace cbe::phylo {

BootstrapResult run_bootstrap(const PatternAlignment& alignment,
                              const SubstModel& model, util::Rng& rng,
                              const SearchConfig& cfg,
                              KernelObserver* observer, const TipClvs* tips) {
  std::vector<double> weights = alignment.bootstrap_weights(rng);
  TipClvs own_tips;
  if (tips == nullptr) {
    own_tips = make_tip_clvs(alignment);
    tips = &own_tips;
  }
  LikelihoodEngine engine(alignment, model, *tips, std::move(weights),
                          observer);
  SearchResult res = search(engine, rng, cfg);
  return BootstrapResult{res.loglik, std::move(res.tree)};
}

task::TaskDesc TraceGenerator::describe(task::KernelClass kind, int patterns,
                                        int newton_iters) const {
  spu::OpCounts ops;
  double reduction = 0.0;
  switch (kind) {
    case task::KernelClass::Newview:
      ops = newview_ops(patterns, kRateCategories);
      reduction = 100.0;  // merge per-pattern scale counts
      break;
    case task::KernelClass::Evaluate:
      ops = evaluate_ops(patterns, kRateCategories);
      reduction = 220.0;  // global log-likelihood sum
      break;
    case task::KernelClass::Makenewz:
      ops = makenewz_ops(patterns, kRateCategories, newton_iters);
      reduction = 320.0;  // derivative sums per Newton step
      break;
    default:
      ops = newview_ops(patterns, kRateCategories);
      break;
  }

  const double spe_total = spu::spu_cycles(ops, cfg_.spe_opt, cfg_.spu_costs);
  // Out-of-loop prologue: transition-matrix construction (16 exps + the
  // eigen recombination) and call overhead; everything per-pattern is in
  // the parallelizable loop.
  const double nonloop =
      3000.0 + 16.0 * (cfg_.spe_opt.fast_math ? cfg_.spu_costs.exp_fast
                                              : cfg_.spu_costs.exp_libm);
  const double loop_cycles =
      spe_total > nonloop ? spe_total - nonloop : spe_total * 0.5;

  const double clv_bytes =
      static_cast<double>(patterns) * kRateCategories * kStates * 8.0;

  task::TaskDesc t;
  t.kind = kind;
  t.module_id = cfg_.module_id;
  t.spe_cycles_nonloop = spe_total - loop_cycles;
  t.loop.iterations = static_cast<std::uint32_t>(patterns);
  t.loop.spe_cycles_per_iter = loop_cycles / static_cast<double>(patterns);
  t.loop.reduction_cycles_per_worker = reduction;
  t.ppe_cycles = spu::ppe_cycles(ops, cfg_.ppe_costs) + 2000.0;
  // newview/evaluate/makenewz all stream two CLVs in; newview writes one
  // back, the others return scalars.
  t.dma_in_bytes = 2.0 * clv_bytes;
  t.dma_out_bytes =
      kind == task::KernelClass::Newview ? clv_bytes + 1024.0 : 128.0;
  t.loop.bytes_in_per_iter = t.dma_in_bytes / static_cast<double>(patterns);
  t.loop.bytes_out_per_iter = t.dma_out_bytes / static_cast<double>(patterns);
  return t;
}

void TraceGenerator::render() {
  std::vector<task::Segment>& segments = trace_.segments;
  segments.reserve(segments.size() + calls_.size());
  for (const Call& c : calls_) {
    task::Segment seg;
    seg.ppe_burst_cycles = cfg_.ppe_burst_cycles;
    seg.task = describe(c.kind, c.patterns, c.newton_iters);
    segments.push_back(seg);
  }
  calls_.clear();
}

const task::ProcessTrace& TraceGenerator::trace() {
  render();
  return trace_;
}

task::ProcessTrace TraceGenerator::take_trace() {
  render();
  calls_ = {};
  return std::exchange(trace_, {});
}

}  // namespace cbe::phylo
