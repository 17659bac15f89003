// Bipartition analysis: the consumer of the bootstrap replicates the paper's
// workload produces.  Every internal branch of an unrooted tree induces a
// split (bipartition) of the taxa; the bootstrap support of a branch is the
// fraction of replicate trees containing the same split (Section 3.1:
// "Bootstrap analyses are required to assign confidence values ... to the
// internal branches of the best-known ML tree").
#pragma once

#include <cstdint>
#include <vector>

#include "phylo/tree.hpp"

namespace cbe::phylo {

/// A split of the taxon set, canonicalized so taxon 0's side is always the
/// zero side (the two orientations denote the same bipartition).
class Bipartition {
 public:
  Bipartition(int n_taxa, const std::vector<bool>& side);

  /// True for trivial splits (single taxon vs the rest), which every
  /// topology contains.
  bool trivial() const noexcept;

  friend bool operator<(const Bipartition& a, const Bipartition& b) {
    return a.bits_ < b.bits_;
  }

 private:
  int n_taxa_;
  std::vector<std::uint64_t> bits_;
};

/// The split induced by `edge` (taxa on the edge_nodes(edge).first side).
Bipartition edge_bipartition(const Tree& tree, int edge);

/// All non-trivial splits of the tree, sorted (one per internal edge).
std::vector<Bipartition> bipartitions(const Tree& tree);

/// For each internal edge of `reference` (in internal_edges() order), the
/// fraction of `replicates` whose topology contains the same split.
std::vector<double> branch_support(const Tree& reference,
                                   const std::vector<Tree>& replicates);

/// Robinson-Foulds distance: the number of splits present in exactly one of
/// the two trees (0 for identical topologies; one NNI changes it by 2).
int robinson_foulds(const Tree& a, const Tree& b);

}  // namespace cbe::phylo
