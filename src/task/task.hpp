// Task vocabulary shared by the workload generators (synthetic and phylo),
// the Cell machine model, and the schedulers.
//
// A "task" is one off-loadable function call (newview / evaluate / makenewz
// in RAxML terms): it transfers inputs to an SPE's local store, computes, and
// transfers results back.  A task may contain a single parallelizable loop
// (the paper's LLP target); the loop descriptor carries enough cost structure
// for the work-sharing executor to split it across SPEs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cbe::task {

enum class KernelClass : std::uint8_t {
  Newview,   ///< conditional-likelihood update at an inner tree node
  Evaluate,  ///< log-likelihood at the virtual root (global reduction)
  Makenewz,  ///< Newton branch-length optimization (iterative)
  Generic,   ///< anything else (tests, examples)
};

/// The parallelizable for-loop enclosed in an off-loaded function.
struct LoopDesc {
  std::uint32_t iterations = 0;      ///< e.g. 228 alignment patterns (42_SC)
  double spe_cycles_per_iter = 0.0;  ///< optimized-SPE cycles per iteration
  double bytes_in_per_iter = 0.0;    ///< input fetched per iteration chunk
  double bytes_out_per_iter = 0.0;   ///< output committed per iteration chunk
  /// Master-side cycles to merge one worker's partial result (reductions).
  double reduction_cycles_per_worker = 0.0;

  bool parallelizable() const noexcept { return iterations > 1; }
  double total_cycles() const noexcept {
    return spe_cycles_per_iter * static_cast<double>(iterations);
  }
};

struct TaskDesc {
  KernelClass kind = KernelClass::Generic;
  std::uint16_t module_id = 0;   ///< code module that must reside in the LS
  double spe_cycles_nonloop = 0; ///< SPE cycles outside the parallel loop
  LoopDesc loop;                 ///< loop part (iterations == 0 if none)
  double ppe_cycles = 0;         ///< cost of the PPE fallback version
  double dma_in_bytes = 0;       ///< aggregate input transfer
  double dma_out_bytes = 0;      ///< aggregate output transfer

  /// Total SPE compute cycles when run unsplit on one SPE.
  double spe_cycles_total() const noexcept {
    return spe_cycles_nonloop + loop.total_cycles();
  }
};

/// One step of an MPI process: compute on the PPE, then off-load a task.
struct Segment {
  double ppe_burst_cycles = 0;  ///< PPE work preceding the off-load
  TaskDesc task;
};

/// The off-load stream of one bootstrap (one MPI process's unit of work).
struct ProcessTrace {
  std::vector<Segment> segments;

  double total_spe_cycles() const noexcept;
};

/// A whole experiment: B independent bootstraps served master-worker style.
struct Workload {
  std::vector<ProcessTrace> bootstraps;

  std::size_t size() const noexcept { return bootstraps.size(); }
};

/// An off-loadable code module's local-store footprint.  Switching variants
/// on an SPE costs a code DMA (Section 5.4).
struct CodeModule {
  std::size_t bytes = 0;           ///< sequential (non-LLP) variant
  std::size_t parallel_bytes = 0;  ///< loop-parallel variant (0 = none)
};

/// The merged RAxML kernel module, the only code module: 117 KB sequential
/// variant per the paper; the loop-parallel variant is slightly larger.
inline constexpr std::uint16_t kRaxmlModule = 0;

/// The code module with id `id`; throws std::out_of_range for an unknown id.
const CodeModule& code_module(std::uint16_t id);

}  // namespace cbe::task
