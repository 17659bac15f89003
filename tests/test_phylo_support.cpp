#include "phylo/support.hpp"

#include <gtest/gtest.h>

namespace cbe::phylo {
namespace {

TEST(Bipartition, CanonicalOrientation) {
  // The same split described from both sides must be one set element:
  // neither orders before the other.
  const Bipartition a(4, {false, false, true, true});
  const Bipartition b(4, {true, true, false, false});
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
}

TEST(Bipartition, TrivialDetection) {
  EXPECT_TRUE(Bipartition(5, {true, false, false, false, false}).trivial());
  EXPECT_TRUE(Bipartition(5, {false, true, true, true, true}).trivial());
  EXPECT_FALSE(Bipartition(5, {false, false, true, true, true}).trivial());
}

TEST(Bipartition, SizeValidation) {
  EXPECT_THROW(Bipartition(4, {true, false}), std::invalid_argument);
}

TEST(Support, TreeHasNMinus3NontrivialSplits) {
  util::Rng rng(1);
  for (int n : {4, 8, 16}) {
    Tree t = Tree::random(n, rng);
    EXPECT_EQ(bipartitions(t).size(), static_cast<std::size_t>(n - 3));
  }
}

TEST(Support, LeafEdgeBipartitionsAreTrivial) {
  util::Rng rng(2);
  Tree t = Tree::random(6, rng);
  for (int e = 0; e < t.edge_count(); ++e) {
    const auto [a, b] = t.edge_nodes(e);
    const Bipartition split = edge_bipartition(t, e);
    EXPECT_EQ(split.trivial(), t.leaf(a) || t.leaf(b)) << "edge " << e;
  }
}

TEST(Support, IdenticalTreesHaveFullSupportAndZeroRf) {
  util::Rng rng(3);
  Tree t = Tree::random(10, rng);
  EXPECT_EQ(robinson_foulds(t, t), 0);
  const auto support = branch_support(t, {t, t, t});
  ASSERT_EQ(support.size(), 7u);  // n-3 internal edges
  for (double s : support) EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(Support, OneNniChangesRfByTwo) {
  util::Rng rng(4);
  Tree a = Tree::random(10, rng);
  Tree b = a;
  b.nni(b.internal_edges().front(), 0);
  EXPECT_EQ(robinson_foulds(a, b), 2);
}

TEST(Support, RfIsSymmetricAndBounded) {
  util::Rng rng(5);
  Tree a = Tree::random(12, rng);
  Tree b = Tree::random(12, rng);
  const int d = robinson_foulds(a, b);
  EXPECT_EQ(d, robinson_foulds(b, a));
  EXPECT_GE(d, 0);
  EXPECT_LE(d, 2 * (12 - 3));
}

TEST(Support, MixedReplicatesGiveFractionalSupport) {
  util::Rng rng(6);
  Tree ref = Tree::random(8, rng);
  Tree other = ref;
  other.nni(other.internal_edges().front(), 0);
  // Two replicates match the reference, two carry the swapped topology.
  const auto support = branch_support(ref, {ref, ref, other, other});
  bool saw_half = false;
  for (double s : support) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    if (s < 0.75) saw_half = true;  // the swapped branch loses support
  }
  EXPECT_TRUE(saw_half);
}

TEST(Support, DifferentTaxonCountsRejected) {
  util::Rng rng(7);
  Tree a = Tree::random(6, rng);
  Tree b = Tree::random(7, rng);
  EXPECT_THROW(robinson_foulds(a, b), std::invalid_argument);
}

TEST(Support, InsertionOrderIrrelevantForSameTopology) {
  // Build the same quartet topology ((0,1),(2,3)) twice with different
  // construction orders; splits must match.
  Tree a(4, 0, 1, 2);
  // Attach taxon 3 to taxon 2's edge: yields ((0,1),(2,3)).
  int edge_to_2 = -1;
  for (const auto& nb : a.neighbors(2)) edge_to_2 = nb.edge;
  a.insert_leaf(3, edge_to_2);

  Tree b(4, 2, 3, 0);
  int edge_to_0 = -1;
  for (const auto& nb : b.neighbors(0)) edge_to_0 = nb.edge;
  b.insert_leaf(1, edge_to_0);

  EXPECT_EQ(robinson_foulds(a, b), 0);
}

}  // namespace
}  // namespace cbe::phylo
