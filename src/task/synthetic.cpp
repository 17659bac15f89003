#include "task/synthetic.hpp"

#include "util/rng.hpp"

namespace cbe::task {

namespace {

// Kernel-time shares from the paper's gprof profile (Section 5.1),
// renormalized over the three off-loaded functions.
constexpr double kNewviewShare = 0.768 / 0.9877;
constexpr double kMakenewzShare = 0.196 / 0.9877;

KernelClass draw_kind(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < kNewviewShare) return KernelClass::Newview;
  if (u < kNewviewShare + kMakenewzShare) return KernelClass::Makenewz;
  return KernelClass::Evaluate;
}

}  // namespace

Workload make_synthetic(int bootstraps, const SyntheticConfig& cfg) {
  Workload wl;
  wl.bootstraps.reserve(static_cast<std::size_t>(bootstraps));
  util::Rng master(cfg.seed);

  const double cycles_per_us = cfg.clock_ghz * 1e3;

  for (int b = 0; b < bootstraps; ++b) {
    util::Rng rng = master.split();
    ProcessTrace trace;
    trace.segments.reserve(static_cast<std::size_t>(cfg.tasks_per_bootstrap));
    for (int t = 0; t < cfg.tasks_per_bootstrap; ++t) {
      Segment seg;
      seg.ppe_burst_cycles =
          rng.lognormal_mean_cv(cfg.mean_ppe_burst_us, cfg.duration_cv) *
          cycles_per_us;

      TaskDesc& task = seg.task;
      task.kind = draw_kind(rng);
      task.module_id = kRaxmlModule;

      const double spe_cycles =
          rng.lognormal_mean_cv(cfg.mean_spe_task_us, cfg.duration_cv) *
          cycles_per_us;
      const double loop_cycles = spe_cycles * cfg.loop_fraction;
      task.spe_cycles_nonloop = spe_cycles - loop_cycles;
      task.loop.iterations = cfg.loop_iterations;
      task.loop.spe_cycles_per_iter =
          loop_cycles / static_cast<double>(cfg.loop_iterations);
      task.loop.bytes_in_per_iter =
          cfg.dma_in_bytes / static_cast<double>(cfg.loop_iterations);
      task.loop.bytes_out_per_iter =
          cfg.dma_out_bytes / static_cast<double>(cfg.loop_iterations);
      // Reductions exist in the loops of all three kernels (Section 5.3
      // notes "many of the loops have global reductions"); evaluate's sum is
      // the canonical example.
      task.loop.reduction_cycles_per_worker = cfg.reduction_cycles;

      task.ppe_cycles = spe_cycles * cfg.ppe_over_spe;
      task.dma_in_bytes = cfg.dma_in_bytes;
      task.dma_out_bytes = cfg.dma_out_bytes;

      trace.segments.push_back(seg);
    }
    wl.bootstraps.push_back(std::move(trace));
  }
  return wl;
}

double expected_bootstrap_seconds(const SyntheticConfig& cfg) {
  const double per_task_us = cfg.mean_spe_task_us + cfg.mean_ppe_burst_us;
  return per_task_us * 1e-6 * static_cast<double>(cfg.tasks_per_bootstrap);
}

}  // namespace cbe::task
