// The runtime's adaptive idea on real host threads: a pool of workers
// ("SPEs") serves off-loaded tasks from a varying number of logical streams
// ("MPI processes"); the AdaptiveGovernor watches the off-load traffic and
// widens loop work-sharing exactly when task-level parallelism leaves
// workers idle.
//
//   build/examples/adaptive_offload [--workers=N]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "native/native_runtime.hpp"
#include "util/cli.hpp"

namespace {

/// A compute kernel with an inner parallelizable loop: numerically
/// integrates sum of sin over a range (stand-in for a likelihood loop).
double integrate(cbe::native::NativeRuntime& rt, int slices) {
  std::vector<double> partial(static_cast<std::size_t>(slices), 0.0);
  rt.parallel_for(0, slices, [&partial](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      double acc = 0.0;
      const double x0 = static_cast<double>(i) * 1e-3;
      for (int k = 0; k < 2000; ++k) {
        acc += std::sin(x0 + static_cast<double>(k) * 1e-6);
      }
      partial[static_cast<std::size_t>(i)] = acc;
    }
  }, /*grain=*/4);
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cbe;
  util::Cli cli(argc, argv);
  const int workers = static_cast<int>(cli.get_int("workers", 4));
  cli.enforce_usage_or_exit("adaptive_offload [--workers=N]");
  native::NativeRuntime rt(workers);
  std::printf("pool: %d workers\n\n", rt.pool().workers());

  // Phase 1: many concurrent streams -> plenty of task-level parallelism,
  // the governor should keep loops sequential (degree 1).
  const auto phase = [&](const char* name, int streams, int tasks) {
    const auto t0 = std::chrono::steady_clock::now();
    double sink = 0.0;
    for (int round = 0; round < tasks; ++round) {
      std::vector<std::future<double>> futs;
      futs.reserve(static_cast<std::size_t>(streams));
      for (int s = 0; s < streams; ++s) {
        futs.push_back(rt.offload(s, [&rt] { return integrate(rt, 64); },
                                  streams));
      }
      for (auto& f : futs) sink += f.get();
    }
    const auto dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    std::printf("%-28s streams=%2d  ->  governor degree %d   (%.3fs, "
                "checksum %.3f)\n", name, streams, rt.governor().loop_degree(),
                dt, sink);
  };

  phase("phase 1: task-rich", 2 * workers, 6);
  phase("phase 2: scarce tasks", 1, 12);
  phase("phase 3: task-rich again", 2 * workers, 6);
  phase("phase 4: two streams", 2, 10);

  std::printf("\nWith many streams the governor keeps loops sequential; "
              "when streams dry up it activates work-sharing so idle "
              "workers help the remaining tasks (the MGPS policy of the "
              "paper, Section 5.4).\n");
  return 0;
}
