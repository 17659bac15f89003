// Newick round-trip.
#include <gtest/gtest.h>

#include <cmath>

#include "phylo/likelihood.hpp"
#include "phylo/support.hpp"

namespace cbe::phylo {
namespace {

TEST(Newick, RoundtripPreservesTopology) {
  util::Rng rng(1);
  for (int n : {4, 7, 12, 20}) {
    Tree t = Tree::random(n, rng);
    Tree back = Tree::from_newick(t.newick());
    back.check_consistency();
    EXPECT_EQ(back.taxa(), n);
    EXPECT_EQ(robinson_foulds(t, back), 0) << "n=" << n;
  }
}

TEST(Newick, RoundtripPreservesBranchLengths) {
  util::Rng rng(2);
  Tree t = Tree::random(8, rng);
  for (int e = 0; e < t.edge_count(); ++e) {
    t.set_branch_length(e, 0.01 * (e + 1));
  }
  Tree back = Tree::from_newick(t.newick());
  // Total tree length survives the round trip (edge ids may differ).
  double len_a = 0.0, len_b = 0.0;
  for (int e = 0; e < t.edge_count(); ++e) len_a += t.branch_length(e);
  for (int e = 0; e < back.edge_count(); ++e) len_b += back.branch_length(e);
  EXPECT_NEAR(len_a, len_b, 1e-9);
}

TEST(Newick, ParsesNamedTaxa) {
  const std::vector<std::string> names = {"human", "chimp", "gorilla",
                                          "orang"};
  Tree t(4, 0, 1, 2);
  int e2 = t.neighbors(2).front().edge;
  t.insert_leaf(3, e2);
  const std::string nw = t.newick(&names);
  Tree back = Tree::from_newick(nw, &names);
  EXPECT_EQ(robinson_foulds(t, back), 0);
}

TEST(Newick, RejectsMalformedInput) {
  EXPECT_THROW(Tree::from_newick(""), std::runtime_error);
  EXPECT_THROW(Tree::from_newick("(t0,t1);"), std::runtime_error);
  EXPECT_THROW(Tree::from_newick("(t0,t1,t2"), std::runtime_error);
  EXPECT_THROW(Tree::from_newick("(t0,t1,bogus);"), std::runtime_error);
  EXPECT_THROW(Tree::from_newick("(t0,t1,t0);"), std::runtime_error);
  // Non-binary internal node.
  EXPECT_THROW(Tree::from_newick("((t0,t1,t2):0.1,t3,t4);"),
               std::runtime_error);
}

TEST(Newick, LikelihoodSurvivesRoundtrip) {
  const Alignment a = make_synthetic_alignment([] {
    SyntheticAlignmentConfig c;
    c.taxa = 8;
    c.sites = 200;
    c.mean_branch_length = 0.03;
    return c;
  }());
  PatternAlignment pa(a);
  SubstModel model(GtrParams::hky(2.0, pa.base_frequencies()), 0.8);
  LikelihoodEngine engine(pa, model);
  util::Rng rng(3);
  Tree t = Tree::random(8, rng);
  engine.attach(t);
  const double before = engine.loglik();
  Tree back = Tree::from_newick(t.newick());
  engine.attach(back);
  EXPECT_NEAR(engine.loglik(), before, 1e-6 * std::fabs(before));
}

}  // namespace
}  // namespace cbe::phylo
