// Unrooted binary phylogenetic trees: leaves are taxa, internal nodes have
// degree 3, and every edge carries a branch length.  Supports the operations
// the search needs (stepwise leaf insertion, NNI rearrangement) plus Newick
// serialization and rooted post-order traversals for the likelihood engine.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace cbe::phylo {

class Tree {
 public:
  struct Neighbor {
    int node;
    int edge;
  };

  /// Starts as the unique 3-taxon topology over taxa {t0, t1, t2} of an
  /// n-taxon problem; grow with insert_leaf.
  Tree(int n_taxa, int t0, int t1, int t2, double initial_length = 0.1);

  /// Uniform-ish random topology (random insertion order, random edges).
  static Tree random(int n_taxa, util::Rng& rng,
                     double initial_length = 0.1);

  int taxa() const noexcept { return n_taxa_; }
  int node_count() const noexcept { return static_cast<int>(adj_.size()); }
  int edge_count() const noexcept { return static_cast<int>(edges_.size()); }
  bool leaf(int node) const noexcept { return node < n_taxa_; }

  const std::vector<Neighbor>& neighbors(int node) const {
    return adj_[static_cast<std::size_t>(node)];
  }
  std::pair<int, int> edge_nodes(int edge) const {
    const auto& e = edges_[static_cast<std::size_t>(edge)];
    return {e.a, e.b};
  }
  double branch_length(int edge) const {
    return edges_[static_cast<std::size_t>(edge)].length;
  }
  void set_branch_length(int edge, double len) {
    edges_[static_cast<std::size_t>(edge)].length = len;
    revision_ = next_revision();
  }
  /// Names this tree's state across every Tree in the process: drawn from
  /// one process-wide counter at construction and at every mutation, and
  /// kept by a copy.  Two trees with equal revisions are equal; the
  /// likelihood engine compares it to detect stale CLV caches.
  std::uint64_t revision() const noexcept { return revision_; }
  bool taxon_in_tree(int taxon) const {
    return !adj_[static_cast<std::size_t>(taxon)].empty();
  }

  /// Splits `edge` with a fresh internal node and hangs `leaf` off it.
  /// Returns the edge attaching the leaf.
  int insert_leaf(int leaf, int edge, double leaf_length = 0.1);

  /// Edges whose both endpoints are internal (NNI candidates).
  std::vector<int> internal_edges() const;
  /// All live edge ids.
  std::vector<int> all_edges() const;

  /// Nearest-neighbor interchange around an internal edge: swaps one
  /// subtree from each side (`variant` 0 or 1 picks which pair).
  void nni(int edge, int variant);

  /// Newick with branch lengths, rooted arbitrarily at taxon 0's neighbor.
  std::string newick(const std::vector<std::string>* names = nullptr) const;

  /// Parses a Newick string produced by newick() (or any unrooted binary
  /// tree written with a trifurcating root and "t<k>" labels, or labels
  /// resolved through `names`).  Throws std::runtime_error on malformed
  /// input or non-binary topology.
  static Tree from_newick(const std::string& text,
                          const std::vector<std::string>* names = nullptr);

  /// Validates internal-degree-3/leaf-degree-1 invariants; throws on
  /// corruption (used by property tests after random NNI storms).
  void check_consistency() const;

  /// Flat, exact representation for checkpointing: edge table and adjacency
  /// lists verbatim, so a restored tree reproduces not just the topology and
  /// branch lengths but the edge/node numbering and neighbor order (which
  /// downstream traversals depend on).
  struct Flat {
    int n_taxa = 0;
    struct FlatEdge {
      int a = 0, b = 0;
      double length = 0.0;
    };
    std::vector<FlatEdge> edges;
    std::vector<std::vector<Neighbor>> adj;
  };
  Flat to_flat() const;
  /// Rebuilds a complete tree from a flat record; throws std::runtime_error
  /// when the record is internally inconsistent (corrupted checkpoint).
  static Tree from_flat(const Flat& flat);

 private:
  struct Edge {
    int a, b;
    double length;
  };
  int add_edge(int a, int b, double length);
  void replace_neighbor(int node, int old_node, int new_node, int new_edge);
  Neighbor& find_neighbor(int node, int other);
  static std::uint64_t next_revision() noexcept;

  int n_taxa_;
  std::uint64_t revision_ = next_revision();
  std::vector<Edge> edges_;
  std::vector<std::vector<Neighbor>> adj_;
};

}  // namespace cbe::phylo
