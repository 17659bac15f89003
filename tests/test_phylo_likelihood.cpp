#include "phylo/likelihood.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "phylo/kernels_simd.hpp"
#include "phylo/search.hpp"

namespace cbe::phylo {
namespace {

SyntheticAlignmentConfig small_cfg() {
  SyntheticAlignmentConfig c;
  c.taxa = 10;
  c.sites = 300;
  c.mean_branch_length = 0.03;
  return c;
}

struct EngineTest : ::testing::Test {
  EngineTest()
      : alignment(make_synthetic_alignment(small_cfg())),
        pa(alignment),
        model(GtrParams::hky(2.5, pa.base_frequencies()), 0.8),
        engine(pa, model) {}

  Alignment alignment;
  PatternAlignment pa;
  SubstModel model;
  LikelihoodEngine engine;
};

/// The directed CLV of the subtree on `node`'s side of `edge`, rebuilt from
/// scratch with the scalar reference kernels in the engine's neighbour order.
Clv<double> scalar_dir(const Tree& t, const PatternAlignment& pa,
                       const SubstModel& model, int edge, int node) {
  Clv<double> out;
  if (t.leaf(node)) {
    init_tip_clv(pa, node, out);
    return out;
  }
  std::vector<int> nodes, edges;
  for (const auto& nb : t.neighbors(node)) {
    if (nb.edge == edge) continue;
    nodes.push_back(nb.node);
    edges.push_back(nb.edge);
  }
  const Clv<double> c1 = scalar_dir(t, pa, model, edges[0], nodes[0]);
  const Clv<double> c2 = scalar_dir(t, pa, model, edges[1], nodes[1]);
  newview(c1, BranchP::at(model, t.branch_length(edges[0])), c2,
          BranchP::at(model, t.branch_length(edges[1])), out);
  return out;
}

TEST_F(EngineTest, LoglikInvariantUnderRootEdge) {
  util::Rng rng(1);
  Tree t = Tree::random(10, rng);
  engine.attach(t);
  const double ref = engine.loglik(0);
  for (int e = 1; e < t.edge_count(); ++e) {
    EXPECT_NEAR(engine.loglik(e), ref, 1e-8 * std::fabs(ref)) << "edge " << e;
  }
}

TEST_F(EngineTest, LoglikIsNegativeAndFinite) {
  util::Rng rng(2);
  Tree t = Tree::random(10, rng);
  engine.attach(t);
  const double l = engine.loglik();
  EXPECT_LT(l, 0.0);
  EXPECT_TRUE(std::isfinite(l));
}

TEST_F(EngineTest, CachedRecomputationIsConsistent) {
  util::Rng rng(3);
  Tree t = Tree::random(10, rng);
  engine.attach(t);
  const double a = engine.loglik(4);
  const double b = engine.loglik(4);  // cached path
  EXPECT_DOUBLE_EQ(a, b);
  const std::uint64_t calls = engine.kernel_calls();
  (void)engine.loglik(4);
  // Only the evaluate (no newviews) should be added on a warm cache.
  EXPECT_EQ(engine.kernel_calls(), calls + 1);
}

TEST_F(EngineTest, SyncDetectsTopologyChange) {
  util::Rng rng(4);
  Tree t = Tree::random(10, rng);
  engine.attach(t);
  const double before = engine.loglik();
  t.nni(t.internal_edges().front(), 0);
  const double after = engine.loglik();  // must auto-resync, not reuse CLVs
  EXPECT_NE(before, after);
  // And the recomputed value matches a fresh engine.
  LikelihoodEngine fresh(pa, model);
  fresh.attach(t);
  EXPECT_NEAR(after, fresh.loglik(), 1e-9 * std::fabs(after));
}

// A tree rebuilt from a checkpoint record and assigned into the attached
// object shares that object's address, and used to share its revision too:
// the engine kept scoring the old topology from its cached CLVs.
TEST_F(EngineTest, SyncDetectsATreeAssignedIntoTheAttachedObject) {
  util::Rng rng(5);
  const Tree::Flat a = Tree::random(10, rng).to_flat();
  const Tree::Flat b = Tree::random(10, rng).to_flat();
  Tree t = Tree::from_flat(a);
  engine.attach(t);
  const double before = engine.loglik();
  t = Tree::from_flat(b);
  const double after = engine.loglik();
  const Tree tb = Tree::from_flat(b);
  LikelihoodEngine fresh(pa, model);
  fresh.attach(tb);
  EXPECT_NE(before, fresh.loglik());
  EXPECT_EQ(after, fresh.loglik());
}

TEST_F(EngineTest, OptimizeBranchImprovesLoglik) {
  util::Rng rng(5);
  Tree t = Tree::random(10, rng);
  engine.attach(t);
  const double before = engine.loglik(3);
  const double after = engine.optimize_branch(t, 3);
  EXPECT_GE(after, before - 1e-9);
  // Reported value matches a from-scratch evaluation.
  LikelihoodEngine fresh(pa, model);
  fresh.attach(t);
  EXPECT_NEAR(fresh.loglik(3), after, 1e-7 * std::fabs(after));
}

TEST_F(EngineTest, OptimizeAllBranchesMonotoneOverRounds) {
  util::Rng rng(6);
  Tree t = Tree::random(10, rng);
  engine.attach(t);
  const double l0 = engine.loglik();
  const double l1 = engine.optimize_all_branches(t, 1);
  const double l2 = engine.optimize_all_branches(t, 1);
  EXPECT_GE(l1, l0 - 1e-9);
  EXPECT_GE(l2, l1 - 1e-6 * std::fabs(l1));
}

TEST_F(EngineTest, InsertionScorePredictsActualInsertion) {
  util::Rng rng(7);
  // Build a tree over taxa 0..8, leaving taxon 9 out.
  std::vector<int> order;
  Tree t(10, 0, 1, 2);
  for (int leaf = 3; leaf < 9; ++leaf) {
    t.insert_leaf(leaf, static_cast<int>(rng.below(
        static_cast<std::uint64_t>(t.edge_count()))));
  }
  engine.attach(t);
  for (int e = 0; e < t.edge_count(); e += 3) {
    const double predicted = engine.insertion_score(9, e, 0.1);
    Tree copy = t;
    copy.insert_leaf(9, e, 0.1);
    LikelihoodEngine fresh(pa, model);
    fresh.attach(copy);
    const double actual = fresh.loglik();
    EXPECT_NEAR(predicted, actual, 1e-6 * std::fabs(actual)) << "edge " << e;
  }
}

TEST_F(EngineTest, NniScorePredictsActualSwap) {
  util::Rng rng(8);
  Tree t = Tree::random(10, rng);
  engine.attach(t);
  for (int e : t.internal_edges()) {
    for (int v = 0; v < 2; ++v) {
      const double predicted = engine.nni_score(e, v);
      Tree copy = t;
      copy.nni(e, v);
      LikelihoodEngine fresh(pa, model);
      fresh.attach(copy);
      const double actual = fresh.loglik(e);
      EXPECT_NEAR(predicted, actual, 1e-7 * std::fabs(actual))
          << "edge " << e << " variant " << v;
    }
  }
}

TEST_F(EngineTest, ObserverSeesEveryKernel) {
  struct Counter : KernelObserver {
    int newviews = 0, evaluates = 0, makenewzs = 0;
    void on_kernel(task::KernelClass kind, int, int) override {
      if (kind == task::KernelClass::Newview) ++newviews;
      if (kind == task::KernelClass::Evaluate) ++evaluates;
      if (kind == task::KernelClass::Makenewz) ++makenewzs;
    }
  } counter;
  LikelihoodEngine observed(pa, model, &counter);
  util::Rng rng(9);
  Tree t = Tree::random(10, rng);
  observed.attach(t);
  (void)observed.loglik();
  EXPECT_EQ(counter.evaluates, 1);
  // n-2 = 8 internal nodes, two directed CLVs... at least n-2 newviews to
  // evaluate one edge.
  EXPECT_GE(counter.newviews, 8);
  observed.optimize_branch(t, 0);
  EXPECT_EQ(counter.makenewzs, 1);
  EXPECT_EQ(static_cast<std::uint64_t>(counter.newviews +
                                       counter.evaluates +
                                       counter.makenewzs),
            observed.kernel_calls());
}

TEST_F(EngineTest, GapOnlyTaxonIsHarmless) {
  // A taxon of all gaps contributes no information; likelihood stays finite.
  std::string text = "4 6\na ACGTAC\nb ACGTCC\nc AGGTAC\nd ------\n";
  Alignment al = Alignment::parse_phylip(text);
  PatternAlignment p2(al);
  SubstModel m2(GtrParams::hky(2.0, {0.25, 0.25, 0.25, 0.25}), 1.0);
  LikelihoodEngine eng(p2, m2);
  util::Rng rng(10);
  Tree t = Tree::random(4, rng);
  eng.attach(t);
  EXPECT_TRUE(std::isfinite(eng.loglik()));
}

TEST_F(EngineTest, ThrowsWithoutAttachedTree) {
  LikelihoodEngine eng(pa, model);
  EXPECT_THROW(eng.loglik(), std::logic_error);
}

TEST_F(EngineTest, SharedTipsAndWeightsAreValidated) {
  const TipClvs tips = make_tip_clvs(pa);
  EXPECT_THROW(LikelihoodEngine(pa, model, tips, {1.0}),
               std::invalid_argument);
  const TipClvs too_few(tips.begin(), tips.end() - 1);
  EXPECT_THROW(LikelihoodEngine(pa, model, too_few, pa.weights()),
               std::invalid_argument);

  // A shared tip set with the alignment's own weights scores exactly like an
  // engine that built its own tips.
  LikelihoodEngine shared(pa, model, tips, pa.weights());
  util::Rng rng(3);
  const Tree tree = Tree::random(pa.taxa(), rng);
  engine.attach(tree);
  shared.attach(tree);
  EXPECT_EQ(shared.loglik(), engine.loglik());
}

/// Every edge's lnL from `engine` against a from-scratch scalar pruning of
/// the same tree over every pattern, scored with `weights` (the engine's
/// own, one per pattern), compared bit for bit.
void expect_every_edge_matches_scalar(LikelihoodEngine& engine,
                                      const SubstModel& model, const Tree& t,
                                      const char* when,
                                      const std::vector<double>& weights) {
  const PatternAlignment& pa = engine.alignment();
  for (int e = 0; e < t.edge_count(); ++e) {
    const auto [a, b] = t.edge_nodes(e);
    const double ref = evaluate(scalar_dir(t, pa, model, e, a),
                                scalar_dir(t, pa, model, e, b),
                                BranchP::at(model, t.branch_length(e)), model,
                                weights);
    const double got = engine.loglik(e);
    EXPECT_EQ(std::memcmp(&ref, &got, sizeof ref), 0)
        << when << ", edge " << e << ": " << got << " vs " << ref;
  }
}

TEST_F(EngineTest, EveryEdgeMatchesScalarPruningBitForBit) {
  // The engine runs the vector kernels on cached CLVs; a from-scratch scalar
  // pruning of the same tree must give the same bits on every edge: on a
  // fresh tree, after a branch-length sweep moves every cached CLV, and
  // after an NNI hill climb rearranges the topology.  Both alignments, the
  // 10-taxon fixture and a 24-taxon one, carry gaps.
  SyntheticAlignmentConfig wide = small_cfg();
  wide.taxa = 24;
  wide.sites = 400;
  wide.gap_fraction = 0.02;
  wide.seed = 24;
  const PatternAlignment wide_pa(make_synthetic_alignment(wide));
  const SubstModel wide_model(GtrParams::hky(2.5, wide_pa.base_frequencies()),
                              0.8);
  LikelihoodEngine wide_engine(wide_pa, wide_model);

  for (const auto& [eng, eng_model] :
       {std::pair<LikelihoodEngine*, const SubstModel*>{&engine, &model},
        std::pair<LikelihoodEngine*, const SubstModel*>{&wide_engine,
                                                        &wide_model}}) {
    const int taxa = eng->alignment().taxa();
    SCOPED_TRACE(taxa);
    bool has_gap = false;
    for (const Clv<double>& tip : make_tip_clvs(eng->alignment())) {
      for (const std::uint8_t code : tip.tip) has_gap |= code == kTipGap;
    }
    ASSERT_TRUE(has_gap) << "the alignment must exercise the gap tip code";

    // A wrong split's branch collapses under optimization, and NNI scores at
    // fixed branch lengths then tie, so few random starts accept an NNI:
    // seed 38 does on the fixture, seed 4 on the 24-taxon alignment.
    int accepted_total = 0;
    for (const std::uint64_t seed : {4u, 11u, 12u, 13u, 38u}) {
      SCOPED_TRACE(seed);
      util::Rng rng(seed);
      Tree t = Tree::random(taxa, rng);
      const std::vector<double>& weights = eng->alignment().weights();
      eng->attach(t);
      expect_every_edge_matches_scalar(*eng, *eng_model, t, "attached",
                                       weights);
      eng->optimize_all_branches(t, 1);
      expect_every_edge_matches_scalar(*eng, *eng_model, t, "optimized",
                                       weights);
      int accepted = 0;
      nni_hill_climb(*eng, t, SearchConfig{}, nullptr, &accepted);
      accepted_total += accepted;
      expect_every_edge_matches_scalar(*eng, *eng_model, t, "after NNI",
                                       weights);
    }
    EXPECT_GT(accepted_total, 0) << "no seed accepted an NNI";
  }
}

TEST_F(EngineTest, EdgeMatricesFollowLengthsChangedOutsideOptimize) {
  // The engine keeps each edge's transition matrices across attaches, keyed
  // by the branch length.  Lengths that change outside optimize_branch must
  // never be scored with a matrix built for the old length: not when a tree
  // with the same edge indices and new lengths is attached, not when a
  // length is set on the attached tree, and not when a leaf insertion
  // halves an edge and grows the edge count.
  const std::vector<double>& weights = pa.weights();
  util::Rng rng(21);
  Tree t = Tree::random(pa.taxa(), rng);
  engine.attach(t);
  expect_every_edge_matches_scalar(engine, model, t, "attached", weights);

  Tree stretched = t;
  for (int e = 0; e < stretched.edge_count(); ++e) {
    stretched.set_branch_length(e, stretched.branch_length(e) * 1.75 + 0.01);
  }
  engine.attach(stretched);
  expect_every_edge_matches_scalar(engine, model, stretched, "re-attached",
                                   weights);
  engine.attach(t);
  expect_every_edge_matches_scalar(engine, model, t, "attached again",
                                   weights);
  t.set_branch_length(3, 0.37);
  expect_every_edge_matches_scalar(engine, model, t, "length set", weights);

  // Grow a tree leaf by leaf; each insertion halves the edge it splits.
  Tree grown(pa.taxa(), 0, 1, 2, 0.05);
  engine.attach(grown);
  expect_every_edge_matches_scalar(engine, model, grown, "3 taxa", weights);
  for (int leaf = 3; leaf < pa.taxa(); ++leaf) {
    const int edges = grown.edge_count();
    grown.insert_leaf(leaf, leaf % edges, 0.02 * leaf);
    ASSERT_EQ(grown.edge_count(), edges + 2);
    expect_every_edge_matches_scalar(
        engine, model, grown, ("leaf " + std::to_string(leaf)).c_str(),
        weights);
  }
}

/// Resampled weights with at least one pattern drawn zero times, so an
/// engine built with them drops that pattern.
std::vector<double> resampled_weights(const PatternAlignment& pa,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> weights = pa.bootstrap_weights(rng);
  int dropped = 0;
  for (const double w : weights) dropped += w == 0.0 ? 1 : 0;
  EXPECT_GT(dropped, 0) << "seed " << seed << " drew every pattern";
  EXPECT_LT(dropped, pa.patterns()) << "seed " << seed << " drew none";
  return weights;
}

TEST_F(EngineTest, ResampledEngineMatchesFullPatternScalarBitForBit) {
  // An engine built with resampled weights runs its kernels over only the
  // patterns drawn at least once.  Every edge's lnL must still equal, bit for
  // bit, a scalar pruning over every pattern with the full weight vector: on
  // a fresh tree, after a branch-length sweep and after an NNI climb.
  // Few random starts accept an NNI (see the test above); seed 12 does.
  const TipClvs tips = make_tip_clvs(pa);
  int accepted_total = 0;
  for (const std::uint64_t seed : {4u, 11u, 12u}) {
    SCOPED_TRACE(seed);
    const std::vector<double> weights = resampled_weights(pa, seed);
    LikelihoodEngine eng(pa, model, tips, weights);
    util::Rng rng(seed);
    Tree t = Tree::random(pa.taxa(), rng);
    eng.attach(t);
    expect_every_edge_matches_scalar(eng, model, t, "attached", weights);
    eng.optimize_all_branches(t, 1);
    expect_every_edge_matches_scalar(eng, model, t, "optimized", weights);
    int accepted = 0;
    nni_hill_climb(eng, t, SearchConfig{}, nullptr, &accepted);
    accepted_total += accepted;
    expect_every_edge_matches_scalar(eng, model, t, "after NNI", weights);
  }
  EXPECT_GT(accepted_total, 0) << "no seed accepted an NNI";
}

TEST_F(EngineTest, ResampledEngineNewtonMatchesFullPatternScalar) {
  // Each branch length optimize_branch picks must equal, bit for bit,
  // Newton on a scalar sumtable over every pattern with the full weights,
  // and so must the lnL it reports.  The sweep runs on one tree, so each
  // edge starts from the lengths the earlier edges were given.
  const TipClvs tips = make_tip_clvs(pa);
  const std::vector<double> weights = resampled_weights(pa, 7);
  LikelihoodEngine eng(pa, model, tips, weights);
  util::Rng rng(7);
  Tree t = Tree::random(pa.taxa(), rng);
  eng.attach(t);
  for (int round = 0; round < 2; ++round) {
    for (int e = 0; e < t.edge_count(); ++e) {
      SCOPED_TRACE(e);
      const auto [a, b] = t.edge_nodes(e);
      const Clv<double> ca = scalar_dir(t, pa, model, e, a);
      const Clv<double> cb = scalar_dir(t, pa, model, e, b);
      std::vector<double> sumtable;
      make_sumtable(ca, cb, model, sumtable);
      std::vector<int> scale_sum(ca.scale.size());
      for (std::size_t p = 0; p < scale_sum.size(); ++p) {
        scale_sum[p] = ca.scale[p] + cb.scale[p];
      }
      std::vector<double> scratch;
      const double want = newton_branch_length(sumtable, model, weights,
                                               t.branch_length(e), scratch);
      const double want_lnl =
          sumtable_loglik(sumtable, scale_sum, model, weights, want);

      const double got_lnl = eng.optimize_branch(t, e);
      const double got = t.branch_length(e);
      EXPECT_EQ(std::memcmp(&want, &got, sizeof want), 0)
          << got << " vs " << want;
      EXPECT_EQ(std::memcmp(&want_lnl, &got_lnl, sizeof want_lnl), 0)
          << got_lnl << " vs " << want_lnl;
    }
  }
}

TEST_F(EngineTest, ResampledEngineReportsTheAlignmentsPatternCount) {
  // The kernel trace models the alignment's loop, whatever the weights
  // dropped: the observer is told pa.patterns() on every kernel.
  struct Patterns : KernelObserver {
    std::vector<int> seen;
    void on_kernel(task::KernelClass, int patterns, int) override {
      seen.push_back(patterns);
    }
  } observer;
  const TipClvs tips = make_tip_clvs(pa);
  LikelihoodEngine eng(pa, model, tips, resampled_weights(pa, 3), &observer);
  util::Rng rng(3);
  Tree t = Tree::random(pa.taxa(), rng);
  eng.attach(t);
  (void)eng.loglik();
  eng.optimize_branch(t, 0);
  (void)eng.insertion_score(0, 2);
  (void)eng.nni_score(t.internal_edges().front(), 1);
  ASSERT_EQ(observer.seen.size(), eng.kernel_calls());
  for (const int patterns : observer.seen) EXPECT_EQ(patterns, pa.patterns());
}

TEST_F(EngineTest, AllZeroWeightsScoreZeroAndKeepLengths) {
  // Every pattern dropped: as with the full-pattern kernels, the lnL is
  // +0.0 and Newton sees a zero gradient, so no branch length moves.
  const TipClvs tips = make_tip_clvs(pa);
  LikelihoodEngine eng(pa, model, tips,
                       std::vector<double>(static_cast<std::size_t>(
                                               pa.patterns()),
                                           0.0));
  util::Rng rng(12);
  Tree t = Tree::random(pa.taxa(), rng);
  eng.attach(t);
  const double lnl = eng.loglik();
  EXPECT_EQ(lnl, 0.0);
  EXPECT_FALSE(std::signbit(lnl));
  for (int e = 0; e < t.edge_count(); ++e) {
    const double before = t.branch_length(e);
    EXPECT_EQ(eng.optimize_branch(t, e), 0.0) << "edge " << e;
    EXPECT_EQ(t.branch_length(e), before) << "edge " << e;
  }
}

}  // namespace
}  // namespace cbe::phylo
