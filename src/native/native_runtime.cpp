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
  if (u < participants_) {
    // Fewer streams than participants leaves some idle: share each loop
    // ceil(participants / live streams) ways.  Unlike the Cell LLP
    // protocol, host work-sharing with dynamic chunking has negligible
    // per-worker overhead, so the degree may use the whole pool, and the
    // chunking absorbs the remainder.
    const int t = std::max(1, live_streams);
    degree_ = (participants_ + t - 1) / t;
  } else {
    degree_ = 1;
  }
}

int AdaptiveGovernor::loop_degree() const {
  std::lock_guard lock(mu_);
  return degree_;
}

}  // namespace cbe::native
