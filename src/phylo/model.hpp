// Nucleotide substitution models for the likelihood kernels.
//
// GTR (general time-reversible) rate matrix with empirical base frequencies,
// diagonalized once via a Jacobi eigensolver on the symmetrized generator;
// transition matrices P(t) = left * exp(Lambda t) * right are then cheap per
// branch.  Among-site rate heterogeneity uses Yang's discrete Gamma with
// mean-of-quantile category rates (RAxML's GAMMA model), built on our own
// regularized incomplete-gamma implementation.
#pragma once

#include <array>
#include <cstddef>

namespace cbe::phylo {

inline constexpr int kStates = 4;
inline constexpr int kRateCategories = 4;

/// Regularized lower incomplete gamma P(a, x); series for x < a+1,
/// continued fraction otherwise.  Accurate to ~1e-12 for a in (0, 100].
double reg_gamma_p(double a, double x);
/// Inverse of P(a, .): smallest x with P(a, x) = p (Newton on the CDF).
double gamma_quantile(double a, double p);

/// Mean-of-quantile discrete Gamma rates (Yang 1994) with shape alpha and
/// unit mean; `ncat` categories of equal probability.
std::array<double, kRateCategories> discrete_gamma_rates(double alpha);

struct GtrParams {
  /// Exchangeabilities in RAxML order: AC, AG, AT, CG, CT, GT (GT fixed to
  /// 1.0 by convention).
  std::array<double, 6> rates = {1.0, 2.0, 1.0, 1.0, 2.0, 1.0};
  std::array<double, 4> freqs = {0.25, 0.25, 0.25, 0.25};

  /// HKY85 as the kappa-parameterized special case of GTR.
  static GtrParams hky(double kappa, const std::array<double, 4>& freqs) {
    GtrParams p;
    p.rates = {1.0, kappa, 1.0, 1.0, kappa, 1.0};
    p.freqs = freqs;
    return p;
  }
};

/// 4x4 transition matrix for one (branch length x rate) combination,
/// row-major: P[from][to].
using Pmatrix = std::array<double, kStates * kStates>;

class SubstModel {
 public:
  SubstModel(const GtrParams& params, double gamma_alpha);

  const std::array<double, 4>& freqs() const noexcept {
    return params_.freqs;
  }
  const std::array<double, kRateCategories>& rates() const noexcept {
    return gamma_rates_;
  }
  const std::array<double, kStates>& eigenvalues() const noexcept {
    return lambda_;
  }
  /// left[s][k]: inverse-sqrt-pi-weighted eigenvectors; right[k][j] the
  /// transposed, pi-weighted ones; P(t) = left diag(e^{lambda t}) right.
  const std::array<double, 16>& left() const noexcept { return left_; }
  const std::array<double, 16>& right() const noexcept { return right_; }

  /// P(t) for rate category `cat` (branch length scaled by the category
  /// rate).  Rows sum to 1 and P(0) = I.
  Pmatrix transition_matrix(double t, int cat) const;
  /// dP/dt and d2P/dt2 for the Newton branch-length optimizer.
  Pmatrix transition_derivative(double t, int cat, int order) const;

 private:
  GtrParams params_;
  std::array<double, kRateCategories> gamma_rates_;
  std::array<double, kStates> lambda_{};
  std::array<double, 16> left_{}, right_{};
};

/// Jacobi eigensolver for small symmetric matrices (row-major n x n).
/// Eigenvalues land in `values`, eigenvectors in the columns of `vectors`.
void jacobi_eigen(double* matrix, int n, double* values, double* vectors,
                  int max_sweeps = 64);

}  // namespace cbe::phylo
