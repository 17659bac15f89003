// The likelihood engine: binds an alignment + model to a tree and provides
// log-likelihood evaluation and Newton branch-length optimization on top of
// a directed-edge CLV cache (each directed edge u->v caches the conditional
// likelihood of the subtree on u's side).  Every kernel invocation can be
// observed — the trace generator uses this to convert a real phylogenetic
// analysis into the off-load task stream the Cell schedulers consume.
#pragma once

#include <functional>
#include <vector>

#include "phylo/kernels.hpp"
#include "phylo/tree.hpp"
#include "task/task.hpp"

namespace cbe::phylo {

/// Observer of kernel-level work.  `newton_iters` is nonzero only for
/// makenewz.  Implemented by the trace generator (src/phylo/tracegen).
class KernelObserver {
 public:
  virtual ~KernelObserver() = default;
  virtual void on_kernel(task::KernelClass kind, int patterns,
                         int newton_iters) = 0;
};

/// Tip CLVs of an alignment, one per taxon: state codes and zero scale
/// counts, no `data` (the vector kernels read a tip by its codes).  They
/// depend only on the alignment's states, not on its weights, so every
/// engine of one job (the reference search and each bootstrap replicate) can
/// read one shared set.
using TipClvs = std::vector<Clv<double>>;
TipClvs make_tip_clvs(const PatternAlignment& alignment);

class LikelihoodEngine {
 public:
  /// Builds its own tip CLVs and scores with the alignment's weights.
  LikelihoodEngine(const PatternAlignment& alignment, const SubstModel& model,
                   KernelObserver* observer = nullptr);
  /// Scores with `weights`, one per pattern, in place of the alignment's
  /// own, over the shared `tips` (make_tip_clvs(alignment); must outlive the
  /// engine).  A bootstrap replicate passes its resampled weights here, so
  /// the alignment itself is never modified.  Patterns of weight 0 are
  /// dropped at construction: the engine gathers its own tips over the live
  /// patterns and runs every kernel over those alone, which changes no bit
  /// of any result.  The observer is still told the alignment's pattern
  /// count, so the kernel trace does not depend on the weights.
  LikelihoodEngine(const PatternAlignment& alignment, const SubstModel& model,
                   const TipClvs& tips, std::vector<double> weights,
                   KernelObserver* observer = nullptr);

  // tips_ may point into the engine itself.
  LikelihoodEngine(const LikelihoodEngine&) = delete;
  LikelihoodEngine& operator=(const LikelihoodEngine&) = delete;

  const PatternAlignment& alignment() const noexcept { return *alignment_; }

  /// Binds a (possibly re-arranged) tree: invalidates all cached CLVs.
  void attach(const Tree& tree);

  /// Log-likelihood evaluated across `edge` (any edge gives the same value
  /// up to roundoff); -1 picks edge 0.  Lazily computes needed CLVs.
  double loglik(int edge = -1);

  /// Newton-optimizes the branch length of `edge` (makenewz); updates the
  /// tree and invalidates dependent CLVs.  Returns the new log-likelihood.
  double optimize_branch(Tree& tree, int edge);

  /// Sweeps all branches `rounds` times; returns the final log-likelihood.
  double optimize_all_branches(Tree& tree, int rounds = 2);

  /// Score of inserting `leaf` into `edge` without mutating the tree:
  /// builds the would-be root CLV locally (one newview + one evaluate).
  double insertion_score(int leaf, int edge, double leaf_length = 0.1);

  /// Score of the NNI variant around `edge` without mutating the tree.
  double nni_score(int edge, int variant);

  std::uint64_t kernel_calls() const noexcept { return kernel_calls_; }

 private:
  struct DirClv {
    Clv<double> clv;
    bool valid = false;
  };
  /// One edge's transition matrices, valid for the branch length whose bit
  /// pattern they were built from.  Keyed by the length itself, not by the
  /// tree's revision, so a re-attached tree or a re-used edge index never
  /// reads matrices built for another length.
  struct EdgeP {
    BranchP p;
    std::uint64_t length_bits = 0;
    bool filled = false;
  };

  void sync(const Tree& tree);
  /// Grows the per-edge caches to the attached tree's edge count.  Only
  /// called before a kernel's operands are fetched, so growing never
  /// invalidates a reference into them that an expression still holds.
  void fit_edges();
  std::size_t dir_index(int edge, int node) const;
  const Clv<double>& compute_dir(int edge, int node);
  void notify(task::KernelClass kind, int iters = 0);
  /// The edge's matrices, rebuilt only when its branch length changed.
  const BranchP& branch_p(int edge);

  const PatternAlignment* alignment_;
  const SubstModel* model_;
  KernelObserver* observer_;
  const Tree* tree_ = nullptr;
  /// Built from the alignment, or gathered from the shared set over the
  /// live patterns; empty when the engine reads the shared set as it is.
  TipClvs own_tips_;
  const TipClvs* tips_;
  std::vector<double> weights_;  ///< one per live pattern
  std::vector<DirClv> dir_;     ///< two per edge; never shrinks
  std::vector<EdgeP> edge_p_;  ///< one per edge; never shrinks
  // Scratch outputs of the scoring and branch-length kernels.  Owning them
  // here keeps every kernel call allocation-free once they are sized.
  Clv<double> scratch_[2];
  std::vector<double> sumtable_;
  std::vector<double> newton_scratch_;  ///< the sumtable, pattern-transposed
  std::vector<int> scale_sum_;
  std::uint64_t last_revision_ = 0;
  std::uint64_t kernel_calls_ = 0;
};

}  // namespace cbe::phylo
