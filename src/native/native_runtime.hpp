// The MGPS idea as a host library: an adaptive governor watches the
// task-level parallelism actually offered to the pool (a sliding window of
// off-loads, exactly the paper's U statistic) and recommends how many
// workers each parallel loop should use — all of them when tasks are scarce,
// one (no work-sharing) when task-level parallelism alone can keep the pool
// busy.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>

#include "native/offload_pool.hpp"

namespace cbe::native {

/// Thread-safe port of the MGPS policy (Section 5.4) for host pools.
class AdaptiveGovernor {
 public:
  /// Departures per U window: the loop degree is re-evaluated every
  /// kHistoryWindow completions (the paper's history window).
  static constexpr int kHistoryWindow = 8;

  explicit AdaptiveGovernor(int pool_size) : pool_size_(pool_size) {}

  /// Record an off-load request from logical stream `stream_id`.
  void on_offload(int stream_id);
  /// Record a completion; every kHistoryWindow departures re-evaluates the
  /// loop degree from the observed TLP degree U.
  void on_departure(int stream_id, int live_streams);

  /// Current recommended work-sharing degree (>= 1).
  int loop_degree() const;

 private:
  void evaluate(int live_streams);

  const int pool_size_;
  mutable std::mutex mu_;
  std::set<int> window_streams_;
  std::uint64_t departures_ = 0;
  int degree_ = 1;
};

/// Convenience facade: off-load tasks from several logical streams and run
/// governor-sized parallel loops.
class NativeRuntime {
 public:
  explicit NativeRuntime(int workers = 0)
      : pool_(workers), governor_(pool_.workers()) {}

  OffloadPool& pool() noexcept { return pool_; }
  const AdaptiveGovernor& governor() const noexcept { return governor_; }

  /// Off-loads `task` on behalf of `stream_id`, driving the governor.  The
  /// departure is recorded whether the task returns or throws, and before
  /// its future resolves.
  template <typename F>
  auto offload(int stream_id, F&& task, int live_streams)
      -> std::future<std::invoke_result_t<F>> {
    governor_.on_offload(stream_id);
    return pool_.offload_result(
        [this, stream_id, live_streams,
         fn = std::forward<F>(task)]() mutable {
          struct Depart {
            AdaptiveGovernor& gov;
            int stream_id, live_streams;
            ~Depart() { gov.on_departure(stream_id, live_streams); }
          } depart{governor_, stream_id, live_streams};
          return fn();
        });
  }

  /// Work-shares a loop with the governor's current degree.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>&
                        body,
                    std::int64_t grain = 256) {
    pool_.parallel_for(begin, end, body, governor_.loop_degree(), grain);
  }

 private:
  OffloadPool pool_;
  AdaptiveGovernor governor_;
};

}  // namespace cbe::native
