#include "native/native_runtime.hpp"

#include <algorithm>

namespace cbe::native {

void AdaptiveGovernor::on_offload(int stream_id) {
  std::lock_guard lock(mu_);
  window_streams_.insert(stream_id);
}

void AdaptiveGovernor::on_departure(int stream_id, int live_streams) {
  std::lock_guard lock(mu_);
  window_streams_.insert(stream_id);
  if (++departures_ % kHistoryWindow != 0) return;
  evaluate(live_streams);
  window_streams_.clear();
}

void AdaptiveGovernor::evaluate(int live_streams) {
  const int u = static_cast<int>(window_streams_.size());
  if (u <= pool_size_ / 2) {
    // Unlike the Cell LLP protocol, host work-sharing with dynamic
    // chunking has negligible per-worker overhead, so the degree may use
    // the whole pool.
    const int t = std::max(1, live_streams);
    degree_ = std::clamp(pool_size_ / t + (pool_size_ % t != 0 ? 1 : 0), 1,
                         pool_size_);
  } else {
    degree_ = 1;
  }
}

int AdaptiveGovernor::loop_degree() const {
  std::lock_guard lock(mu_);
  return degree_;
}

}  // namespace cbe::native
