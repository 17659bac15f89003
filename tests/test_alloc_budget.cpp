// Allocation budgets of the simulated off-load path (DESIGN.md §10), of
// the likelihood engine (DESIGN.md §9) and of a job snapshot (DESIGN.md §7).
//
// A fault-free run must not touch the heap per off-load: every continuation
// of the chain fits its InlineFn buffer, attempt and loop records are
// recycled, and every queue and scan buffer keeps its storage.  What a run
// allocates is set-up (machine, processes, pools warming up to the peak
// concurrency), so it must not grow with the number of tasks.  Likewise the
// engine's kernels reuse its cached and scratch CLVs, so a search allocates
// nothing per kernel call, and a job snapshot sizes every buffer before it
// writes the first byte.  This binary replaces the global operator new to
// count allocations, which is why it is its own executable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "jobsvc/job.hpp"
#include "phylo/likelihood.hpp"
#include "runtime/mgps.hpp"
#include "runtime/policy.hpp"
#include "runtime/sim_runtime.hpp"
#include "task/synthetic.hpp"
#include "util/rng.hpp"

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

namespace cbe::phylo {
namespace {

/// One search-shaped round over a fixed tree: a branch-length sweep, then
/// every edge scored as an insertion point and every internal edge's two
/// NNI variants, as stepwise addition and hill climbing score them.
void search_round(LikelihoodEngine& engine, Tree& tree) {
  engine.optimize_all_branches(tree, 1);
  for (int e = 0; e < tree.edge_count(); ++e) {
    engine.insertion_score(0, e);
    const auto [u, v] = tree.edge_nodes(e);
    if (!tree.leaf(u) && !tree.leaf(v)) {
      engine.nni_score(e, 0);
      engine.nni_score(e, 1);
    }
  }
}

PatternAlignment search_alignment() {
  SyntheticAlignmentConfig acfg;
  acfg.taxa = 10;
  acfg.sites = 240;
  return PatternAlignment(make_synthetic_alignment(acfg));
}

/// Search rounds on `engine` allocate nothing per kernel call once its CLV
/// cache has filled.
void expect_search_flat(LikelihoodEngine& engine) {
  util::Rng rng(5);
  Tree tree = Tree::random(engine.alignment().taxa(), rng);
  engine.attach(tree);
  search_round(engine, tree);  // warm-up: the CLV cache fills once

  const auto allocations = [&](int rounds) {
    const std::uint64_t calls = engine.kernel_calls();
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int r = 0; r < rounds; ++r) search_round(engine, tree);
    const std::uint64_t used =
        g_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_GT(engine.kernel_calls() - calls,
              static_cast<std::uint64_t>(rounds * tree.edge_count()));
    return used;
  };
  const std::uint64_t one = allocations(1);
  const std::uint64_t ten = allocations(10);
  // Each round makes more kernel calls than there are edges (checked
  // above); a few allocations of slack leave room only for set-up that is
  // not per kernel.
  EXPECT_LE(ten, one + 8) << one << " allocations in 1 round, " << ten
                          << " in 10";
}

TEST(AllocBudget, SearchDoesNotAllocatePerKernel) {
  const PatternAlignment pa = search_alignment();
  const SubstModel model(GtrParams::hky(2.5, pa.base_frequencies()), 0.8);
  LikelihoodEngine engine(pa, model);
  expect_search_flat(engine);
}

// A bootstrap replicate's engine drops the patterns its resample never drew
// and gathers its own tips: that happens once, at construction.
TEST(AllocBudget, ResampledSearchDoesNotAllocatePerKernel) {
  const PatternAlignment pa = search_alignment();
  const SubstModel model(GtrParams::hky(2.5, pa.base_frequencies()), 0.8);
  const TipClvs tips = make_tip_clvs(pa);
  util::Rng rng(6);
  std::vector<double> weights = pa.bootstrap_weights(rng);
  ASSERT_GT(std::count(weights.begin(), weights.end(), 0.0), 0);
  LikelihoodEngine engine(pa, model, tips, std::move(weights));
  expect_search_flat(engine);
}

}  // namespace
}  // namespace cbe::phylo

namespace cbe::jobsvc {
namespace {

// One allocation per payload, two for the section list and one for the
// image: the job service takes a snapshot every few steps.
TEST(AllocBudget, SnapshotAllocatesEachBufferOnce) {
  JobSpec spec;
  spec.id = 3;
  spec.steps = 16;
  JobState st = make_initial_state(spec, 2026);
  run_step(st);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const std::vector<std::uint8_t> snap = snapshot_job(spec, st);
  const std::uint64_t used = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(snap.size(), 157u);
  EXPECT_LE(used, 5u);
}

}  // namespace
}  // namespace cbe::jobsvc
