// Allocation budget of the simulated off-load path (DESIGN.md §10).
//
// A fault-free run must not touch the heap per off-load: every continuation
// of the chain fits its InlineFn buffer, attempt and loop records are
// recycled, and every queue and scan buffer keeps its storage.  What a run
// allocates is set-up (machine, processes, pools warming up to the peak
// concurrency), so it must not grow with the number of tasks.  This binary
// replaces the global operator new to count allocations, which is why it is
// its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>

#include "runtime/mgps.hpp"
#include "runtime/policy.hpp"
#include "runtime/sim_runtime.hpp"
#include "task/synthetic.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cbe::rt {
namespace {

constexpr int kBootstraps = 8;
/// Allowed difference between the 1000- and the 100-task runs: pools and
/// queues may reach a slightly higher high-water mark on the longer run,
/// but 7200 extra off-loads must not show up at all.
constexpr std::uint64_t kSlack = 32;

struct Case {
  std::string name;
  std::function<std::unique_ptr<SchedulerPolicy>()> make;
};

std::uint64_t allocations(const Case& c, int tasks, const RunConfig& cfg) {
  task::SyntheticConfig scfg;
  scfg.tasks_per_bootstrap = tasks;
  const task::Workload wl = task::make_synthetic(kBootstraps, scfg);
  auto policy = c.make();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const RunResult r = run_workload(wl, *policy, cfg);
  const std::uint64_t used = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(r.bootstrap_completion_s.size(),
            static_cast<std::size_t>(kBootstraps));
  for (double done : r.bootstrap_completion_s) EXPECT_GT(done, 0.0);
  EXPECT_GT(r.offloads, static_cast<std::uint64_t>(kBootstraps * tasks / 2));
  return used;
}

std::vector<Case> cases() {
  return {
      {"MGPS", [] { return std::make_unique<MgpsPolicy>(); }},
      {"EDTLP", [] { return std::make_unique<EdtlpPolicy>(); }},
      {"EDTLP-LLP(2)", [] { return std::make_unique<StaticHybridPolicy>(2); }},
      {"EDTLP-LLP(4)", [] { return std::make_unique<StaticHybridPolicy>(4); }},
  };
}

void expect_flat(const RunConfig& cfg) {
  for (const Case& c : cases()) {
    const std::uint64_t small = allocations(c, 100, cfg);
    const std::uint64_t large = allocations(c, 1000, cfg);
    EXPECT_LE(large, small + kSlack)
        << c.name << ": " << small << " allocations at 100 tasks/bootstrap, "
        << large << " at 1000";
  }
}

TEST(AllocBudget, CountingIsLive) {
  const std::uint64_t before = g_allocs.load();
  auto p = std::make_unique<int>(7);
  EXPECT_GT(g_allocs.load(), before);
}

TEST(AllocBudget, FaultFreeRunDoesNotAllocatePerOffload) {
  expect_flat(RunConfig{});
}

TEST(AllocBudget, IntegrityPathDoesNotAllocatePerOffload) {
  RunConfig cfg;
  cfg.integrity.crc_framing = true;
  cfg.integrity.verify_fraction = 0.5;
  expect_flat(cfg);
}

}  // namespace
}  // namespace cbe::rt
