// Architectural and calibration constants for the Cell BE machine model.
//
// Published values (Section 4 of the paper and the cited Cell literature):
//   - 3.2 GHz clock, 8 SPEs per Cell, dual-thread (SMT) PPE
//   - 256 KB software-managed local store per SPE
//   - DMA transfers of at most 16 KB; DMA lists of up to 2048 entries;
//     transfer sizes restricted to 1, 2, 4, 8 or multiples of 16 bytes,
//     128-bit (16-byte) alignment between LS and main memory
//   - EIB peak 204.8 GB/s; per-SPE sustainable DMA ~25.6 GB/s
//   - PPE user-level context switch 1.5 us (Section 5.2)
//   - Linux scheduler time quantum "a multiple of 10 ms" (Section 5.2)
//
// Calibration values (not published as microarchitectural constants; chosen
// so that the simulated Table 1 / Table 2 anchors land near the paper's, and
// documented as such in DESIGN.md / EXPERIMENTS.md):
//   - smt_slowdown: PPE burst inflation when both SMT contexts are busy
//   - dispatch_us: PPE-side runtime work per off-load/completion pair
//     (user-level scheduler bookkeeping, MPI progress, mailbox handling)
//   - mailbox/signal and SPE-SPE Pass latencies
#pragma once

#include <cstddef>

#include "sim/time.hpp"

namespace cbe::cell {

struct CellParams {
  int num_cells = 1;
  int spes_per_cell = 8;
  int contexts_per_ppe = 2;
  double clock_ghz = 3.2;

  // PPE multiprogramming.
  double smt_slowdown = 1.25;
  sim::Time ctx_switch = sim::Time::us(1.5);
  sim::Time resume_penalty = sim::Time::us(12.0);
  sim::Time linux_quantum = sim::Time::ms(10.0);
  double dispatch_us = 6.0;  ///< PPE runtime cost per off-load round trip

  // Communication.
  sim::Time mailbox_latency = sim::Time::us(0.3);
  sim::Time pass_latency_local = sim::Time::us(0.12);
  double cross_cell_factor = 2.0;

  // DMA / EIB.
  sim::Time dma_setup = sim::Time::us(0.25);
  double spe_dma_gbps = 25.6;
  double eib_gbps = 204.8;
  /// Sustained XDR main-memory bandwidth shared by all concurrent DMA
  /// clients.  RAxML's likelihood kernels stream ~90 KB of conditional
  /// likelihood vectors per off-loaded call, so memory contention grows with
  /// the number of busy SPEs; this is the dominant source of the EDTLP
  /// dilation in Table 1 (the paper attributes it to "SPE parallelization
  /// and synchronization overhead" on the memory-intensive ML code).
  double mem_gbps = 19.0;
  std::size_t max_dma_bytes = 16 * 1024;

  // Local store.
  std::size_t local_store_bytes = 256 * 1024;

  int total_spes() const noexcept { return num_cells * spes_per_cell; }
  int cell_of_spe(int spe) const noexcept { return spe / spes_per_cell; }
};

}  // namespace cbe::cell
