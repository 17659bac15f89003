// The three likelihood kernels that RAxML off-loads to the SPEs
// (Section 5.1 of the paper): newview (conditional likelihood update),
// evaluate (log-likelihood at the virtual root) and makenewz (Newton
// branch-length optimization via a sumtable).  Together they account for
// ~99% of RAxML's runtime.
//
// Kernels are templated on the arithmetic type: `double` for production and
// spu::Counting<double> for the property tests that pin the operation-count
// formulas (newview_ops etc.) to the real code.  The formulas feed the SPU
// pipeline model, which turns them into the simulated task costs.
//
// Numerical scaling follows RAxML: when every entry of a pattern's
// conditional likelihood vector drops below `kMinLikelihood`, the vector is
// multiplied by 2^256 and a per-pattern scale count is incremented; the
// final log-likelihood subtracts scale * log(2^256).  These per-pattern
// checks are the data-dependent conditionals that made naive SPE code slow
// (Section 5.1: 45% of time in condition checking).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "phylo/alignment.hpp"
#include "phylo/model.hpp"
#include "spu/counters.hpp"

namespace cbe::phylo {

inline constexpr double kTwoTo256 = 1.157920892373162e77;  // 2^256
inline const double kMinLikelihood = 1.0 / kTwoTo256;
inline const double kLogTwoTo256 = 256.0 * 0.6931471805599453;

/// Tip state code of a gap (missing data); codes 0-3 are the bases.
inline constexpr std::uint8_t kTipGap = kStates;
/// Number of distinct tip state codes.
inline constexpr int kTipCodes = kStates + 1;
/// The tip code of an alignment state: the base itself, or kTipGap.
constexpr std::uint8_t tip_code(std::uint8_t state) noexcept {
  return state < kStates ? state : kTipGap;
}
/// The CLV block a tip holds for each code: one-hot for a base, all ones
/// for a gap (missing data).
inline constexpr double kTipVectors[kTipCodes][kStates] = {
    {1.0, 0.0, 0.0, 0.0},
    {0.0, 1.0, 0.0, 0.0},
    {0.0, 0.0, 1.0, 0.0},
    {0.0, 0.0, 0.0, 1.0},
    {1.0, 1.0, 1.0, 1.0},
};

/// Conditional likelihood vector for one tree node/direction:
/// layout [pattern][rate][state], plus per-pattern scale counts.
template <typename Real>
struct Clv {
  std::vector<Real> data;
  std::vector<int> scale;
  /// Per-pattern tip state codes (0-3 a base, kTipGap a gap); empty for
  /// every inner CLV.  The vector kernels read a tip operand by its codes
  /// only, so a tip's `data` is either empty (the likelihood engine's tips)
  /// or, as init_tip_clv fills it for the scalar reference, exactly
  /// kTipVectors[code] in every rate block of each pattern.
  std::vector<std::uint8_t> tip;

  /// Sizes the vectors and drops the tip codes.  Kept elements are not
  /// cleared: every writer (init_tip_clv and the kernels) overwrites all of
  /// `data` and `scale`, so zero-filling them first would be wasted work.
  void resize(int patterns, int rates) {
    data.resize(static_cast<std::size_t>(patterns) *
                static_cast<std::size_t>(rates) * kStates);
    scale.resize(static_cast<std::size_t>(patterns));
    tip.clear();
  }
  int patterns() const noexcept { return static_cast<int>(scale.size()); }
};

/// Per-rate transition matrices for one branch.
struct BranchP {
  std::array<Pmatrix, kRateCategories> p;

  static BranchP at(const SubstModel& m, double t) {
    BranchP bp;
    for (int c = 0; c < kRateCategories; ++c) {
      bp.p[static_cast<std::size_t>(c)] = m.transition_matrix(t, c);
    }
    return bp;
  }
};

/// Fills a tip CLV from observed states (gap = all-ones, missing data),
/// with zero scale counts and the per-pattern state codes in `out.tip`.
template <typename Real>
void init_tip_clv(const PatternAlignment& a, int taxon, Clv<Real>& out);

/// newview: out[p][r][s] = (sum_j Pl[r][s][j] left[p][r][j]) *
///                         (sum_j Pr[r][s][j] right[p][r][j]),
/// with RAxML scaling.  out.scale = left.scale + right.scale (+1 on
/// underflow rescue).
template <typename Real>
void newview(const Clv<Real>& left, const BranchP& pl, const Clv<Real>& right,
             const BranchP& pr, Clv<Real>& out);

/// evaluate: log-likelihood across the root branch with matrices `pb`,
/// summed over patterns with `weights`, including scale corrections.
template <typename Real>
double evaluate(const Clv<Real>& a, const Clv<Real>& b, const BranchP& pb,
                const SubstModel& model, const std::vector<double>& weights);

/// makenewz phase 1: the sumtable S[p][r][k] such that the per-pattern site
/// likelihood at branch length t is sum_r w_r sum_k S[p][r][k] *
/// exp(lambda_k * rate_r * t).
template <typename Real>
void make_sumtable(const Clv<Real>& a, const Clv<Real>& b,
                   const SubstModel& model, std::vector<Real>& sumtable);

// makenewz phase 2 (Newton) is newton_branch_length in phylo/kernels_simd.hpp.

/// Log-likelihood from a sumtable at branch length t (shared by the engine's
/// makenewz and by tests).
double sumtable_loglik(const std::vector<double>& sumtable,
                       const std::vector<int>& scale_sum,
                       const SubstModel& model,
                       const std::vector<double>& weights, double t);

// ---- Operation-count formulas (verified against the kernels by the
// Counting<double> property tests; see tests/test_phylo_counts.cpp) ----

spu::OpCounts newview_ops(int patterns, int rates);
spu::OpCounts evaluate_ops(int patterns, int rates);
spu::OpCounts sumtable_ops(int patterns, int rates);
spu::OpCounts newton_ops(int patterns, int rates, int iterations);
/// Total for one makenewz call.
spu::OpCounts makenewz_ops(int patterns, int rates, int iterations);

}  // namespace cbe::phylo
