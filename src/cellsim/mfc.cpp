#include "cellsim/mfc.hpp"

#include <algorithm>
#include <cmath>

namespace cbe::cell {

int MfcRules::list_entries(std::size_t bytes, const CellParams& p) noexcept {
  if (bytes == 0) return 0;
  return static_cast<int>((bytes + p.max_dma_bytes - 1) / p.max_dma_bytes);
}

int MfcRules::naive_chunks(std::size_t bytes) noexcept {
  constexpr std::size_t kNaiveChunk = 2048;
  if (bytes == 0) return 0;
  return static_cast<int>((bytes + kNaiveChunk - 1) / kNaiveChunk);
}

sim::Time Mfc::transfer_time(double bytes, int chunks, int congestion,
                             bool cross_cell) const noexcept {
  if (bytes <= 0.0) return sim::Time();
  chunks = std::max(chunks, 1);
  const double share =
      std::min(p_.eib_gbps, p_.mem_gbps) /
      static_cast<double>(std::max(congestion, 1));
  const double gbps = std::min(p_.spe_dma_gbps, share);
  // GB/s == bytes/ns, so wire time in ns is bytes / gbps.
  double ns = bytes / gbps;
  ns += static_cast<double>(chunks) *
        static_cast<double>(p_.dma_setup.nanoseconds());
  if (cross_cell) ns *= p_.cross_cell_factor;
  return sim::Time::ns(static_cast<std::int64_t>(std::ceil(ns)));
}

}  // namespace cbe::cell
