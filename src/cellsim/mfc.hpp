// Memory Flow Controller model: how many DMA requests a transfer takes and
// the transfer-time model used by the machine.
#pragma once

#include <cstddef>

#include "cellsim/params.hpp"
#include "sim/time.hpp"

namespace cbe::cell {

/// Request-count rules from the Cell BE architecture documents (Section 4):
/// one request moves at most 16 KB, so an aggregated transfer is a DMA list
/// of 16 KB entries.
struct MfcRules {
  /// Number of DMA-list entries needed to move `bytes` (16 KB each).
  static int list_entries(std::size_t bytes, const CellParams& p) noexcept;
  /// Request count for un-optimized code, which moves data in small ad-hoc
  /// transfers (~2 KB) instead of building DMA lists (Section 5.1: "the DMA
  /// transfers between the local storage and the main memory are not
  /// optimized").
  static int naive_chunks(std::size_t bytes) noexcept;
};

/// Transfer-time model.  Congestion is sampled at issue time: the effective
/// bandwidth is the per-SPE DMA limit, reduced to a fair share of sustained
/// main-memory bandwidth when several SPEs are streaming concurrently.  This
/// start-time approximation keeps the model O(1) per transfer.
class Mfc {
 public:
  explicit Mfc(const CellParams& p) : p_(p) {}

  /// Time to move `bytes` split into `chunks` requests (chunks = DMA-list
  /// entries when aggregated, or one request per loop iteration when the
  /// code issues naive per-element transfers).  `congestion` is the number
  /// of concurrent DMA clients sharing main-memory bandwidth (busy SPEs),
  /// `cross_cell` whether the transfer crosses the blade's Cell boundary.
  sim::Time transfer_time(double bytes, int chunks, int congestion,
                          bool cross_cell) const noexcept;

 private:
  CellParams p_;
};

}  // namespace cbe::cell
