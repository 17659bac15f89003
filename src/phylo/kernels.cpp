#include "phylo/kernels.hpp"

#include <algorithm>
#include <stdexcept>

namespace cbe::phylo {

namespace {

inline double to_double(double x) { return x; }
inline double to_double(const spu::Counting<double>& c) { return c.v; }

}  // namespace

template <typename Real>
void init_tip_clv(const PatternAlignment& a, int taxon, Clv<Real>& out) {
  const int patterns = a.patterns();
  out.resize(patterns, kRateCategories);
  std::fill(out.scale.begin(), out.scale.end(), 0);
  out.tip.resize(static_cast<std::size_t>(patterns));
  for (int p = 0; p < patterns; ++p) {
    const std::uint8_t code = tip_code(a.state(taxon, p));
    out.tip[static_cast<std::size_t>(p)] = code;
    for (int r = 0; r < kRateCategories; ++r) {
      Real* v = &out.data[(static_cast<std::size_t>(p) * kRateCategories +
                           static_cast<std::size_t>(r)) *
                          kStates];
      for (int j = 0; j < kStates; ++j) v[j] = Real(kTipVectors[code][j]);
    }
  }
}

template <typename Real>
void newview(const Clv<Real>& left, const BranchP& pl, const Clv<Real>& right,
             const BranchP& pr, Clv<Real>& out) {
  const int patterns = left.patterns();
  if (right.patterns() != patterns) {
    throw std::invalid_argument("newview: pattern count mismatch");
  }
  out.resize(patterns, kRateCategories);
  const Real min_l(kMinLikelihood);
  const Real two256(kTwoTo256);

  for (int p = 0; p < patterns; ++p) {
    bool all_small = true;
    for (int r = 0; r < kRateCategories; ++r) {
      const std::size_t base =
          (static_cast<std::size_t>(p) * kRateCategories +
           static_cast<std::size_t>(r)) *
          kStates;
      const Real* lv = &left.data[base];
      const Real* rv = &right.data[base];
      Real* ov = &out.data[base];
      const double* mpl = pl.p[static_cast<std::size_t>(r)].data();
      const double* mpr = pr.p[static_cast<std::size_t>(r)].data();
      for (int s = 0; s < kStates; ++s) {
        Real dl = Real(mpl[s * 4 + 0]) * lv[0] +
                  Real(mpl[s * 4 + 1]) * lv[1] +
                  Real(mpl[s * 4 + 2]) * lv[2] +
                  Real(mpl[s * 4 + 3]) * lv[3];
        Real dr = Real(mpr[s * 4 + 0]) * rv[0] +
                  Real(mpr[s * 4 + 1]) * rv[1] +
                  Real(mpr[s * 4 + 2]) * rv[2] +
                  Real(mpr[s * 4 + 3]) * rv[3];
        ov[s] = dl * dr;
        // Non-short-circuit accumulation keeps the comparison count (and
        // hence the modeled branch count) data-independent, mirroring the
        // branchless rewrite the SPE port needed.
        all_small = (ov[s] < min_l) && all_small;
      }
    }
    out.scale[static_cast<std::size_t>(p)] =
        left.scale[static_cast<std::size_t>(p)] +
        right.scale[static_cast<std::size_t>(p)];
    if (all_small) {
      const std::size_t base =
          static_cast<std::size_t>(p) * kRateCategories * kStates;
      for (int k = 0; k < kRateCategories * kStates; ++k) {
        out.data[base + static_cast<std::size_t>(k)] =
            out.data[base + static_cast<std::size_t>(k)] * two256;
      }
      out.scale[static_cast<std::size_t>(p)] += 1;
    }
  }
}

template <typename Real>
double evaluate(const Clv<Real>& a, const Clv<Real>& b, const BranchP& pb,
                const SubstModel& model, const std::vector<double>& weights) {
  const int patterns = a.patterns();
  if (b.patterns() != patterns ||
      static_cast<int>(weights.size()) != patterns) {
    throw std::invalid_argument("evaluate: size mismatch");
  }
  const auto& pi = model.freqs();
  const Real rate_w(1.0 / kRateCategories);
  double lnl = 0.0;

  for (int p = 0; p < patterns; ++p) {
    Real site(0.0);
    for (int r = 0; r < kRateCategories; ++r) {
      const std::size_t base =
          (static_cast<std::size_t>(p) * kRateCategories +
           static_cast<std::size_t>(r)) *
          kStates;
      const Real* av = &a.data[base];
      const Real* bv = &b.data[base];
      const double* m = pb.p[static_cast<std::size_t>(r)].data();
      Real term(0.0);
      for (int i = 0; i < kStates; ++i) {
        Real inner = Real(m[i * 4 + 0]) * bv[0] +
                     Real(m[i * 4 + 1]) * bv[1] +
                     Real(m[i * 4 + 2]) * bv[2] +
                     Real(m[i * 4 + 3]) * bv[3];
        term = term + Real(pi[static_cast<std::size_t>(i)]) * av[i] * inner;
      }
      site = site + rate_w * term;
    }
    using std::log;
    const Real logsite = log(site);
    const int sc = a.scale[static_cast<std::size_t>(p)] +
                   b.scale[static_cast<std::size_t>(p)];
    lnl += weights[static_cast<std::size_t>(p)] *
           (to_double(logsite) - static_cast<double>(sc) * kLogTwoTo256);
  }
  return lnl;
}

template <typename Real>
void make_sumtable(const Clv<Real>& a, const Clv<Real>& b,
                   const SubstModel& model, std::vector<Real>& sumtable) {
  const int patterns = a.patterns();
  if (b.patterns() != patterns) {
    throw std::invalid_argument("make_sumtable: size mismatch");
  }
  sumtable.resize(static_cast<std::size_t>(patterns) * kRateCategories *
                  kStates);
  // pi-weighted left eigenvectors, precomputed in plain double (model
  // setup cost, not per-pattern kernel work).
  const auto& pi = model.freqs();
  const auto& left = model.left();
  const auto& right = model.right();
  std::array<double, 16> pileft{};
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 4; ++k) {
      pileft[static_cast<std::size_t>(i * 4 + k)] =
          pi[static_cast<std::size_t>(i)] *
          left[static_cast<std::size_t>(i * 4 + k)];
    }
  }

  for (int p = 0; p < patterns; ++p) {
    for (int r = 0; r < kRateCategories; ++r) {
      const std::size_t base =
          (static_cast<std::size_t>(p) * kRateCategories +
           static_cast<std::size_t>(r)) *
          kStates;
      const Real* av = &a.data[base];
      const Real* bv = &b.data[base];
      for (int k = 0; k < kStates; ++k) {
        Real lhs = Real(pileft[0 * 4 + k]) * av[0] +
                   Real(pileft[1 * 4 + k]) * av[1] +
                   Real(pileft[2 * 4 + k]) * av[2] +
                   Real(pileft[3 * 4 + k]) * av[3];
        Real rhs = Real(right[static_cast<std::size_t>(k * 4 + 0)]) * bv[0] +
                   Real(right[static_cast<std::size_t>(k * 4 + 1)]) * bv[1] +
                   Real(right[static_cast<std::size_t>(k * 4 + 2)]) * bv[2] +
                   Real(right[static_cast<std::size_t>(k * 4 + 3)]) * bv[3];
        sumtable[base + static_cast<std::size_t>(k)] = lhs * rhs;
      }
    }
  }
}

double sumtable_loglik(const std::vector<double>& sumtable,
                       const std::vector<int>& scale_sum,
                       const SubstModel& model,
                       const std::vector<double>& weights, double t) {
  const auto patterns = static_cast<int>(weights.size());
  const auto& lambda = model.eigenvalues();
  const auto& rates = model.rates();
  std::array<double, kRateCategories * kStates> e{};
  for (int r = 0; r < kRateCategories; ++r) {
    for (int k = 0; k < kStates; ++k) {
      e[static_cast<std::size_t>(r * kStates + k)] =
          std::exp(lambda[static_cast<std::size_t>(k)] *
                   rates[static_cast<std::size_t>(r)] * t);
    }
  }
  double lnl = 0.0;
  for (int p = 0; p < patterns; ++p) {
    double site = 0.0;
    for (int r = 0; r < kRateCategories; ++r) {
      const std::size_t base =
          (static_cast<std::size_t>(p) * kRateCategories +
           static_cast<std::size_t>(r)) *
          kStates;
      double term = 0.0;
      for (int k = 0; k < kStates; ++k) {
        term += sumtable[base + static_cast<std::size_t>(k)] *
                e[static_cast<std::size_t>(r * kStates + k)];
      }
      site += term;
    }
    site /= kRateCategories;
    const double sc =
        scale_sum.empty() ? 0.0
                          : static_cast<double>(
                                scale_sum[static_cast<std::size_t>(p)]);
    lnl += weights[static_cast<std::size_t>(p)] *
           (std::log(std::max(site, 1e-300)) - sc * kLogTwoTo256);
  }
  return lnl;
}

// ---- Operation-count formulas ----
// Verified by tests/test_phylo_counts.cpp against Counting<double> runs.
// Loads/stores/int_ops are structural estimates (8-byte element accesses);
// they feed the pipeline model's memory term.

spu::OpCounts newview_ops(int patterns, int rates) {
  spu::OpCounts c;
  const double pr = static_cast<double>(patterns) * rates;
  c.fp_mul = pr * 36.0;                       // 2 dot products + combine, x4
  c.fp_add = pr * 24.0;
  c.branches = static_cast<double>(patterns) * (rates * kStates + 1.0);
  c.loads = pr * (2 * kStates);               // left + right vectors
  c.stores = pr * kStates;
  c.int_ops = pr * 8.0;
  return c;
}

spu::OpCounts evaluate_ops(int patterns, int rates) {
  spu::OpCounts c;
  const double pr = static_cast<double>(patterns) * rates;
  c.fp_mul = pr * 24.0 + static_cast<double>(patterns) * rates;
  c.fp_add = pr * 16.0 + static_cast<double>(patterns) * rates;
  c.log_calls = static_cast<double>(patterns);
  c.branches = static_cast<double>(patterns);  // scale-count conditional
  c.loads = pr * (2 * kStates);
  c.stores = 0;
  c.int_ops = pr * 6.0;
  return c;
}

spu::OpCounts sumtable_ops(int patterns, int rates) {
  spu::OpCounts c;
  const double pr = static_cast<double>(patterns) * rates;
  c.fp_mul = pr * 36.0;
  c.fp_add = pr * 24.0;
  c.loads = pr * (2 * kStates);
  c.stores = pr * kStates;
  c.int_ops = pr * 8.0;
  return c;
}

spu::OpCounts newton_ops(int patterns, int rates, int iterations) {
  spu::OpCounts c;
  const double it = std::max(iterations, 1);
  const double pr = static_cast<double>(patterns) * rates;
  c.exp_calls = it * rates * kStates;
  // 3 fused accumulations per (p,r,k) plus per-pattern combination.
  c.fp_mul = it * (pr * kStates * 3.0 + static_cast<double>(patterns) * 3.0);
  c.fp_add = it * (pr * kStates * 3.0 + static_cast<double>(patterns) * 3.0);
  c.fp_div = it * static_cast<double>(patterns) * 2.0;
  c.branches = it * static_cast<double>(patterns);
  c.loads = it * pr * kStates;
  c.int_ops = it * pr * 4.0;
  return c;
}

spu::OpCounts makenewz_ops(int patterns, int rates, int iterations) {
  return sumtable_ops(patterns, rates) +
         newton_ops(patterns, rates, iterations);
}

// ---- Explicit instantiations ----

template void init_tip_clv<double>(const PatternAlignment&, int,
                                   Clv<double>&);
template void newview<double>(const Clv<double>&, const BranchP&,
                              const Clv<double>&, const BranchP&,
                              Clv<double>&);
template double evaluate<double>(const Clv<double>&, const Clv<double>&,
                                 const BranchP&, const SubstModel&,
                                 const std::vector<double>&);
template void make_sumtable<double>(const Clv<double>&, const Clv<double>&,
                                    const SubstModel&, std::vector<double>&);

using CountingReal = spu::Counting<double>;
template void init_tip_clv<CountingReal>(const PatternAlignment&, int,
                                         Clv<CountingReal>&);
template void newview<CountingReal>(const Clv<CountingReal>&, const BranchP&,
                                    const Clv<CountingReal>&, const BranchP&,
                                    Clv<CountingReal>&);
template double evaluate<CountingReal>(const Clv<CountingReal>&,
                                       const Clv<CountingReal>&,
                                       const BranchP&, const SubstModel&,
                                       const std::vector<double>&);
template void make_sumtable<CountingReal>(const Clv<CountingReal>&,
                                          const Clv<CountingReal>&,
                                          const SubstModel&,
                                          std::vector<CountingReal>&);

}  // namespace cbe::phylo
