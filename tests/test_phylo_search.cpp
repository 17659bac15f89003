#include "phylo/search.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "phylo/bootstrap.hpp"

namespace cbe::phylo {
namespace {

SyntheticAlignmentConfig cfg_with_signal() {
  SyntheticAlignmentConfig c;
  c.taxa = 12;
  c.sites = 400;
  c.mean_branch_length = 0.03;
  return c;
}

struct SearchTest : ::testing::Test {
  SearchTest()
      : alignment(make_synthetic_alignment(cfg_with_signal())),
        pa(alignment),
        model(GtrParams::hky(2.5, pa.base_frequencies()), 0.8),
        engine(pa, model) {}

  Alignment alignment;
  PatternAlignment pa;
  SubstModel model;
  LikelihoodEngine engine;
};

TEST_F(SearchTest, StepwiseAdditionBuildsCompleteTree) {
  util::Rng rng(1);
  Tree t = stepwise_addition_tree(engine, rng);
  EXPECT_EQ(t.edge_count(), 2 * 12 - 3);
  t.check_consistency();
}

TEST_F(SearchTest, StepwiseBeatsRandomTopology) {
  util::Rng rng(2);
  Tree stepwise = stepwise_addition_tree(engine, rng);
  engine.attach(stepwise);
  const double l_stepwise = engine.loglik();
  double l_random_best = -1e300;
  for (int i = 0; i < 3; ++i) {
    Tree random = Tree::random(12, rng);
    engine.attach(random);
    l_random_best = std::max(l_random_best, engine.loglik());
  }
  EXPECT_GT(l_stepwise, l_random_best);
}

TEST_F(SearchTest, HillClimbNeverWorsens) {
  util::Rng rng(3);
  Tree t = Tree::random(12, rng);
  engine.attach(t);
  const double before = engine.loglik();
  const double after = nni_hill_climb(engine, t, SearchConfig{});
  EXPECT_GE(after, before);
  t.check_consistency();
}

TEST_F(SearchTest, SearchIsDeterministicGivenSeed) {
  util::Rng rng1(7), rng2(7);
  const SearchResult a = search(engine, rng1);
  const SearchResult b = search(engine, rng2);
  EXPECT_DOUBLE_EQ(a.loglik, b.loglik);
  EXPECT_EQ(a.tree.newick(), b.tree.newick());
}

TEST_F(SearchTest, DistinctSeedsExploreDifferentStarts) {
  util::Rng rng1(11), rng2(12);
  Tree a = stepwise_addition_tree(engine, rng1);
  Tree b = stepwise_addition_tree(engine, rng2);
  EXPECT_NE(a.newick(), b.newick());
}

TEST_F(SearchTest, SearchRecoversStrongSignal) {
  // On data generated with clear signal, the searched tree's likelihood
  // should beat the best of many random topologies by a wide margin.
  util::Rng rng(13);
  const SearchResult res = search(engine, rng);
  double best_random = -1e300;
  for (int i = 0; i < 10; ++i) {
    Tree r = Tree::random(12, rng);
    engine.attach(r);
    best_random = std::max(best_random, engine.loglik());
  }
  EXPECT_GT(res.loglik, best_random + 10.0);
}

TEST_F(SearchTest, BootstrapRestoresWeights) {
  const std::vector<double> before = pa.weights();
  util::Rng rng(17);
  const BootstrapResult res = run_bootstrap(pa, model, rng);
  EXPECT_EQ(pa.weights(), before);
  EXPECT_TRUE(std::isfinite(res.loglik));
  EXPECT_EQ(res.tree.edge_count(), 2 * res.tree.taxa() - 3);
}

TEST_F(SearchTest, BootstrapsDifferAcrossReplicates) {
  util::Rng rng(19);
  const BootstrapResult a = run_bootstrap(pa, model, rng);
  const BootstrapResult b = run_bootstrap(pa, model, rng);
  EXPECT_NE(a.loglik, b.loglik);
}

TEST_F(SearchTest, TraceGeneratorRecordsRealAnalysis) {
  util::Rng rng(23);
  TraceGenerator gen;
  run_bootstrap(pa, model, rng, {}, &gen);
  const task::ProcessTrace& trace = gen.trace();
  ASSERT_GT(trace.segments.size(), 100u);
  int newview = 0, evaluate = 0, makenewz = 0;
  for (const auto& seg : trace.segments) {
    EXPECT_GT(seg.task.spe_cycles_total(), 0.0);
    EXPECT_GT(seg.task.ppe_cycles, 0.0);
    EXPECT_EQ(seg.task.loop.iterations,
              static_cast<std::uint32_t>(pa.patterns()));
    switch (seg.task.kind) {
      case task::KernelClass::Newview: ++newview; break;
      case task::KernelClass::Evaluate: ++evaluate; break;
      case task::KernelClass::Makenewz: ++makenewz; break;
      default: break;
    }
  }
  EXPECT_GT(newview, evaluate);  // newview dominates, as in the profile
  EXPECT_GT(makenewz, 0);
  EXPECT_GT(evaluate, 0);
}

void expect_same_segment(const task::Segment& a, const task::Segment& b,
                         std::size_t i) {
  SCOPED_TRACE(i);
  EXPECT_EQ(a.ppe_burst_cycles, b.ppe_burst_cycles);
  EXPECT_EQ(a.task.kind, b.task.kind);
  EXPECT_EQ(a.task.module_id, b.task.module_id);
  EXPECT_EQ(a.task.spe_cycles_nonloop, b.task.spe_cycles_nonloop);
  EXPECT_EQ(a.task.loop.iterations, b.task.loop.iterations);
  EXPECT_EQ(a.task.loop.spe_cycles_per_iter, b.task.loop.spe_cycles_per_iter);
  EXPECT_EQ(a.task.loop.bytes_in_per_iter, b.task.loop.bytes_in_per_iter);
  EXPECT_EQ(a.task.loop.bytes_out_per_iter, b.task.loop.bytes_out_per_iter);
  EXPECT_EQ(a.task.loop.reduction_cycles_per_worker,
            b.task.loop.reduction_cycles_per_worker);
  EXPECT_EQ(a.task.ppe_cycles, b.task.ppe_cycles);
  EXPECT_EQ(a.task.dma_in_bytes, b.task.dma_in_bytes);
  EXPECT_EQ(a.task.dma_out_bytes, b.task.dma_out_bytes);
}

// Feeds one replicate's kernel calls to a TraceGenerator and, beside it,
// renders each call eagerly through describe() as it happens.  Half way
// through, the generator's trace is read while more kernels follow.
class EagerBeside final : public KernelObserver {
 public:
  explicit EagerBeside(std::size_t read_at) : read_at_(read_at) {}

  void on_kernel(task::KernelClass kind, int patterns,
                 int newton_iters) override {
    gen.on_kernel(kind, patterns, newton_iters);
    task::Segment seg;
    seg.ppe_burst_cycles = TraceGenConfig{}.ppe_burst_cycles;
    seg.task = gen.describe(kind, patterns, newton_iters);
    eager.push_back(seg);
    if (eager.size() == read_at_) mid_stream = gen.trace().segments;
  }

  TraceGenerator gen;
  std::vector<task::Segment> eager;
  std::vector<task::Segment> mid_stream;

 private:
  std::size_t read_at_;
};

TEST_F(SearchTest, DeferredTraceMatchesEagerRendering) {
  // A first pass only counts the replicate's kernels.
  util::Rng count_rng(31);
  TraceGenerator counter;
  run_bootstrap(pa, model, count_rng, {}, &counter);
  const std::size_t calls = counter.trace().segments.size();
  ASSERT_GT(calls, 100u);

  util::Rng rng(31);
  EagerBeside obs(calls / 2);
  run_bootstrap(pa, model, rng, {}, &obs);
  ASSERT_EQ(obs.eager.size(), calls);
  ASSERT_EQ(obs.mid_stream.size(), calls / 2);
  for (std::size_t i = 0; i < obs.mid_stream.size(); ++i) {
    expect_same_segment(obs.mid_stream[i], obs.eager[i], i);
  }

  const task::ProcessTrace taken = obs.gen.take_trace();
  ASSERT_EQ(taken.segments.size(), calls);
  EXPECT_EQ(taken.segments.capacity(), taken.segments.size());
  for (std::size_t i = 0; i < calls; ++i) {
    expect_same_segment(taken.segments[i], obs.eager[i], i);
  }
  // Taking the trace starts the generator over.
  EXPECT_TRUE(obs.gen.trace().segments.empty());
}

TEST_F(SearchTest, PhyloWorkloadHasOneTracePerBootstrap) {
  auto traced_replicates = [this] {
    task::Workload wl;
    util::Rng master(99);
    for (int i = 0; i < 3; ++i) {
      util::Rng rng = master.split();
      TraceGenerator gen;
      run_bootstrap(pa, model, rng, {}, &gen);
      wl.bootstraps.push_back(gen.take_trace());
    }
    return wl;
  };
  const task::Workload wl = traced_replicates();
  ASSERT_EQ(wl.size(), 3u);
  for (const auto& b : wl.bootstraps) EXPECT_GT(b.segments.size(), 50u);
  // Same seed reproduces the workload exactly.
  const task::Workload wl2 = traced_replicates();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(wl.bootstraps[i].total_spe_cycles(),
                     wl2.bootstraps[i].total_spe_cycles());
  }
}

TEST_F(SearchTest, DescribeScalesPpeOverSpeSensibly) {
  TraceGenerator gen;
  const auto t =
      gen.describe(task::KernelClass::Newview, pa.patterns(), 0);
  // The optimized SPE version must beat the PPE version (Section 5.1), and
  // the granularity test must pass for realistic pattern counts.
  EXPECT_GT(t.ppe_cycles, t.spe_cycles_total());
  EXPECT_LT(t.ppe_cycles, 3.0 * t.spe_cycles_total());
}

}  // namespace
}  // namespace cbe::phylo
