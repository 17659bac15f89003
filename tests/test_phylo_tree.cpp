#include "phylo/tree.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace cbe::phylo {
namespace {

TEST(Tree, TripletConstruction) {
  Tree t(5, 0, 1, 2);
  EXPECT_EQ(t.taxa(), 5);
  EXPECT_EQ(t.edge_count(), 3);
  EXPECT_TRUE(t.taxon_in_tree(0));
  EXPECT_FALSE(t.taxon_in_tree(3));
  t.check_consistency();
}

TEST(Tree, RejectsTooFewTaxa) {
  EXPECT_THROW(Tree(2, 0, 1, 2), std::invalid_argument);
}

TEST(Tree, InsertLeafGrowsCorrectly) {
  Tree t(4, 0, 1, 2);
  const int e = t.insert_leaf(3, 0, 0.2);
  EXPECT_EQ(t.edge_count(), 5);  // 2n-3 for n=4: every taxon inserted
  EXPECT_DOUBLE_EQ(t.branch_length(e), 0.2);
  t.check_consistency();
  // Leaf degrees 1, internal degrees 3.
  for (int n = 0; n < t.node_count(); ++n) {
    EXPECT_EQ(t.neighbors(n).size(), t.leaf(n) ? 1u : 3u);
  }
}

TEST(Tree, InsertSplitsBranchLength) {
  Tree t(4, 0, 1, 2, 0.3);
  const auto [a, b] = t.edge_nodes(0);
  (void)a;
  (void)b;
  t.insert_leaf(3, 0);
  // Edge 0 was halved; its other half is a new edge.
  EXPECT_DOUBLE_EQ(t.branch_length(0), 0.15);
}

TEST(Tree, DoubleInsertThrows) {
  Tree t(4, 0, 1, 2);
  t.insert_leaf(3, 0);
  EXPECT_THROW(t.insert_leaf(3, 0), std::logic_error);
}

TEST(Tree, RandomTreesAreConsistent) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Rng rng(seed);
    Tree t = Tree::random(12, rng);
    EXPECT_EQ(t.edge_count(), 2 * 12 - 3);
    t.check_consistency();
  }
}

TEST(Tree, InternalEdgesExcludeLeafEdges) {
  util::Rng rng(3);
  Tree t = Tree::random(10, rng);
  for (int e : t.internal_edges()) {
    const auto [a, b] = t.edge_nodes(e);
    EXPECT_FALSE(t.leaf(a));
    EXPECT_FALSE(t.leaf(b));
  }
  // n-3 internal edges in an unrooted binary tree.
  EXPECT_EQ(t.internal_edges().size(), 7u);
}

TEST(Tree, NniPreservesInvariants) {
  util::Rng rng(4);
  Tree t = Tree::random(10, rng);
  for (int e : t.internal_edges()) {
    t.nni(e, 0);
    t.check_consistency();
    t.nni(e, 1);
    t.check_consistency();
  }
}

TEST(Tree, NniTwiceSameVariantRestoresTopology) {
  util::Rng rng(5);
  Tree t = Tree::random(8, rng);
  const std::string before = t.newick();
  const int e = t.internal_edges().front();
  t.nni(e, 0);
  EXPECT_NE(t.newick(), before);
  t.nni(e, 0);
  EXPECT_EQ(t.newick(), before);
}

TEST(Tree, NniOnLeafEdgeThrows) {
  util::Rng rng(6);
  Tree t = Tree::random(6, rng);
  for (int e = 0; e < t.edge_count(); ++e) {
    const auto [a, b] = t.edge_nodes(e);
    if (t.leaf(a) || t.leaf(b)) {
      EXPECT_THROW(t.nni(e, 0), std::invalid_argument);
      break;
    }
  }
}

TEST(Tree, NniStormStaysConsistent) {
  util::Rng rng(7);
  Tree t = Tree::random(20, rng);
  for (int i = 0; i < 500; ++i) {
    const auto edges = t.internal_edges();
    const int e = edges[static_cast<std::size_t>(
        rng.below(edges.size()))];
    t.nni(e, static_cast<int>(rng.below(2)));
  }
  t.check_consistency();
  EXPECT_EQ(t.edge_count(), 2 * 20 - 3);
}

TEST(Tree, NewickIsWellFormed) {
  util::Rng rng(9);
  Tree t = Tree::random(7, rng);
  const std::string nw = t.newick();
  EXPECT_EQ(nw.back(), ';');
  int depth = 0;
  for (char c : nw) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  // All taxa appear.
  for (int i = 0; i < 7; ++i) {
    EXPECT_NE(nw.find("t" + std::to_string(i)), std::string::npos);
  }
}

TEST(Tree, NewickUsesProvidedNames) {
  Tree t(3, 0, 1, 2);
  const std::vector<std::string> names = {"human", "chimp", "gorilla"};
  const std::string nw = t.newick(&names);
  EXPECT_NE(nw.find("human"), std::string::npos);
  EXPECT_NE(nw.find("gorilla"), std::string::npos);
}

TEST(Tree, RevisionBumpsOnMutations) {
  util::Rng rng(10);
  Tree t = Tree::random(6, rng);
  const auto r0 = t.revision();
  t.set_branch_length(0, 0.5);
  EXPECT_GT(t.revision(), r0);
  const auto r1 = t.revision();
  t.nni(t.internal_edges().front(), 0);
  EXPECT_GT(t.revision(), r1);
}

TEST(Tree, RevisionNamesOneStateAcrossTrees) {
  util::Rng rng(11);
  const Tree t = Tree::random(6, rng);
  Tree copy = t;
  EXPECT_EQ(copy.revision(), t.revision());
  copy.set_branch_length(0, 0.5);
  EXPECT_NE(copy.revision(), t.revision());
  // Every rebuilt tree is a new state, even from the same record.
  const Tree::Flat flat = t.to_flat();
  const Tree a = Tree::from_flat(flat);
  const Tree b = Tree::from_flat(flat);
  EXPECT_NE(a.revision(), b.revision());
  EXPECT_NE(a.revision(), t.revision());
}

TEST(Tree, BranchLengthsRoundtrip) {
  Tree t(3, 0, 1, 2, 0.1);
  t.set_branch_length(1, 0.777);
  EXPECT_DOUBLE_EQ(t.branch_length(1), 0.777);
  EXPECT_DOUBLE_EQ(t.branch_length(0), 0.1);
}

class TreeSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(TreeSizeSweep, RandomTreeHasCanonicalShape) {
  util::Rng rng(42);
  const int n = GetParam();
  Tree t = Tree::random(n, rng);
  EXPECT_EQ(t.edge_count(), 2 * n - 3);
  EXPECT_EQ(t.node_count(), 2 * n - 2);
  t.check_consistency();
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeSizeSweep,
                         ::testing::Values(3, 4, 5, 8, 16, 42, 100));

}  // namespace
}  // namespace cbe::phylo
