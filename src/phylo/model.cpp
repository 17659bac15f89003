#include "phylo/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cbe::phylo {

double reg_gamma_p(double a, double x) {
  if (a <= 0.0) throw std::invalid_argument("reg_gamma_p: a <= 0");
  if (x < 0.0) throw std::invalid_argument("reg_gamma_p: x < 0");
  if (x == 0.0) return 0.0;
  const double lg = std::lgamma(a);
  if (x < a + 1.0) {
    // Series representation: P(a,x) = x^a e^-x / Gamma(a) * sum x^n/(a)_n.
    double term = 1.0 / a;
    double sum = term;
    double ap = a;
    for (int i = 0; i < 500; ++i) {
      ap += 1.0;
      term *= x / ap;
      sum += term;
      if (std::fabs(term) < std::fabs(sum) * 1e-16) break;
    }
    return sum * std::exp(-x + a * std::log(x) - lg);
  }
  // Lentz continued fraction for Q(a,x), then P = 1 - Q.
  const double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::fabs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-16) break;
  }
  const double q = std::exp(-x + a * std::log(x) - lg) * h;
  return 1.0 - q;
}

double gamma_quantile(double a, double p) {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) throw std::invalid_argument("gamma_quantile: p >= 1");
  // Initial guess (Wilson-Hilferty), then safeguarded Newton.
  double x;
  {
    const double g = std::lgamma(a);
    // normal quantile of p via Acklam-style rational approximation is
    // overkill; a crude logistic start converges fine under Newton.
    const double t = std::sqrt(-2.0 * std::log(p < 0.5 ? p : 1.0 - p));
    double z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 +
               0.04481 * t));
    if (p < 0.5) z = -z;
    const double wh = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * std::sqrt(a));
    x = a * wh * wh * wh;
    if (x <= 0.0) x = std::exp((std::log(p) + g + std::log(a)) / a);
  }
  for (int i = 0; i < 100; ++i) {
    const double f = reg_gamma_p(a, x) - p;
    // pdf = x^{a-1} e^{-x} / Gamma(a)
    const double pdf =
        std::exp((a - 1.0) * std::log(x) - x - std::lgamma(a));
    if (pdf <= 0.0) break;
    double step = f / pdf;
    // Safeguard: keep x positive and steps sane.
    if (std::fabs(step) > 0.5 * x) step = std::copysign(0.5 * x, step);
    x -= step;
    if (std::fabs(step) < 1e-14 * x) break;
  }
  return x;
}

std::array<double, kRateCategories> discrete_gamma_rates(double alpha) {
  if (alpha <= 0.0) {
    throw std::invalid_argument("discrete_gamma_rates: alpha <= 0");
  }
  // Category boundaries at quantiles k/ncat of Gamma(alpha, beta=alpha)
  // (unit mean); the category rate is the conditional mean inside the
  // interval: ncat * [P(alpha+1, b_hi*alpha') - P(alpha+1, b_lo*alpha')].
  constexpr int n = kRateCategories;
  std::array<double, n> rates{};
  std::array<double, n + 1> bounds{};
  bounds[0] = 0.0;
  for (int k = 1; k < n; ++k) {
    bounds[static_cast<std::size_t>(k)] =
        gamma_quantile(alpha, static_cast<double>(k) / n) / alpha;
  }
  bounds[n] = 0.0;  // infinity handled below
  double acc = 0.0;
  for (int k = 0; k < n; ++k) {
    const double lo = bounds[static_cast<std::size_t>(k)] * alpha;
    const double p_lo = k == 0 ? 0.0 : reg_gamma_p(alpha + 1.0, lo);
    const double p_hi =
        k == n - 1 ? 1.0
                   : reg_gamma_p(alpha + 1.0,
                                 bounds[static_cast<std::size_t>(k + 1)] *
                                     alpha);
    rates[static_cast<std::size_t>(k)] = (p_hi - p_lo) * n;
    acc += rates[static_cast<std::size_t>(k)];
  }
  // Renormalize to exact unit mean (guards tiny numerical drift).
  for (auto& r : rates) r *= n / acc;
  return rates;
}

void jacobi_eigen(double* m, int n, double* values, double* vectors,
                  int max_sweeps) {
  auto at = [n](double* a, int r, int c) -> double& { return a[r * n + c]; };
  // vectors = identity
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) at(vectors, r, c) = r == c ? 1.0 : 0.0;
  }
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (int r = 0; r < n; ++r) {
      for (int c = r + 1; c < n; ++c) off += m[r * n + c] * m[r * n + c];
    }
    if (off < 1e-30) break;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = at(m, p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double theta = (at(m, q, q) - at(m, p, p)) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::fabs(theta) + std::sqrt(theta * theta + 1.0)),
            theta);
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Rotate rows/cols p and q of m.
        for (int k = 0; k < n; ++k) {
          const double mkp = at(m, k, p), mkq = at(m, k, q);
          at(m, k, p) = c * mkp - s * mkq;
          at(m, k, q) = s * mkp + c * mkq;
        }
        for (int k = 0; k < n; ++k) {
          const double mpk = at(m, p, k), mqk = at(m, q, k);
          at(m, p, k) = c * mpk - s * mqk;
          at(m, q, k) = s * mpk + c * mqk;
        }
        for (int k = 0; k < n; ++k) {
          const double vkp = at(vectors, k, p), vkq = at(vectors, k, q);
          at(vectors, k, p) = c * vkp - s * vkq;
          at(vectors, k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  for (int i = 0; i < n; ++i) values[i] = m[i * n + i];
}

SubstModel::SubstModel(const GtrParams& params, double gamma_alpha)
    : params_(params),
      gamma_rates_(discrete_gamma_rates(gamma_alpha)) {
  const auto& f = params_.freqs;
  const auto& r = params_.rates;
  // Build the GTR generator Q: q_ij = r_ij * pi_j (i != j), rows sum to 0,
  // scaled so the expected substitution rate is 1.
  double q[16] = {};
  auto rate_between = [&r](int i, int j) {
    // index into {AC, AG, AT, CG, CT, GT}
    if (i > j) std::swap(i, j);
    if (i == 0 && j == 1) return r[0];
    if (i == 0 && j == 2) return r[1];
    if (i == 0 && j == 3) return r[2];
    if (i == 1 && j == 2) return r[3];
    if (i == 1 && j == 3) return r[4];
    return r[5];
  };
  for (int i = 0; i < 4; ++i) {
    double row = 0.0;
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      q[i * 4 + j] = rate_between(i, j) * f[static_cast<std::size_t>(j)];
      row += q[i * 4 + j];
    }
    q[i * 4 + i] = -row;
  }
  double scale = 0.0;
  for (int i = 0; i < 4; ++i) {
    scale -= f[static_cast<std::size_t>(i)] * q[i * 4 + i];
  }
  for (auto& x : q) x /= scale;

  // Symmetrize: B = D^{1/2} Q D^{-1/2} with D = diag(pi); B is symmetric
  // for reversible Q.  Eigendecompose B = U Lambda U^T, then
  // P(t) = D^{-1/2} U e^{Lambda t} U^T D^{1/2} = left e^{Lambda t} right.
  double b[16];
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      b[i * 4 + j] = std::sqrt(f[static_cast<std::size_t>(i)] /
                               f[static_cast<std::size_t>(j)]) *
                     q[i * 4 + j];
    }
  }
  double u[16];
  jacobi_eigen(b, 4, lambda_.data(), u);
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 4; ++k) {
      left_[static_cast<std::size_t>(i * 4 + k)] =
          u[i * 4 + k] / std::sqrt(f[static_cast<std::size_t>(i)]);
      right_[static_cast<std::size_t>(k * 4 + i)] =
          u[i * 4 + k] * std::sqrt(f[static_cast<std::size_t>(i)]);
    }
  }
}

Pmatrix SubstModel::transition_matrix(double t, int cat) const {
  return transition_derivative(t, cat, 0);
}

Pmatrix SubstModel::transition_derivative(double t, int cat,
                                          int order) const {
  const double rt = gamma_rates_[static_cast<std::size_t>(cat)];
  std::array<double, 4> e;
  for (int k = 0; k < 4; ++k) {
    const double lam = lambda_[static_cast<std::size_t>(k)] * rt;
    double v = std::exp(lam * t);
    for (int o = 0; o < order; ++o) v *= lam;
    e[static_cast<std::size_t>(k)] = v;
  }
  Pmatrix p{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      double s = 0.0;
      for (int k = 0; k < 4; ++k) {
        s += left_[static_cast<std::size_t>(i * 4 + k)] *
             e[static_cast<std::size_t>(k)] *
             right_[static_cast<std::size_t>(k * 4 + j)];
      }
      p[static_cast<std::size_t>(i * 4 + j)] = s;
    }
  }
  return p;
}

}  // namespace cbe::phylo
