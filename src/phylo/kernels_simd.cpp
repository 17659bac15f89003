#include "phylo/kernels_simd.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "spu/vec.hpp"

// Bit-identity discipline: every arithmetic statement below mirrors one
// statement of the scalar reference in kernels.cpp, with the state loop
// mapped onto vector lanes (Newton: of the per-pattern oracle in
// tests/test_kernels_differential.cpp, with the pattern loop mapped onto
// lanes).  Lane-wise vector ops are IEEE-754 per lane and
// left-associative expressions keep the reference's rounding order; the
// translation unit is compiled with -ffp-contract=off (see
// src/phylo/CMakeLists.txt) so no mul+add fuses into an FMA on either side.
// Change the reference and you must change this file the same way — the
// differential tests compare the two with memcmp.

namespace cbe::phylo {

namespace {

using spu::vdouble4;
using spu::vload4;
using spu::vsplat4;
using spu::vstore4;

// Every helper below is always-inline: the CBE_SIMD_CLONES entry points are
// compiled once per target, and a vdouble4 must not cross a call between
// code built for different targets (see spu/vec.hpp).

/// P matrix transposed into column vectors: col[j] lane s = P[s][j].  With
/// this layout the four per-state dot products of newview/evaluate become
/// column-scaled accumulation, one lane per target state.
struct PmatT {
  vdouble4 col[4];

  [[gnu::always_inline]] static PmatT from(const Pmatrix& m) noexcept {
    PmatT t;
    for (int j = 0; j < 4; ++j) {
      t.col[j] = vdouble4{m[static_cast<std::size_t>(0 * 4 + j)],
                          m[static_cast<std::size_t>(1 * 4 + j)],
                          m[static_cast<std::size_t>(2 * 4 + j)],
                          m[static_cast<std::size_t>(3 * 4 + j)]};
    }
    return t;
  }
};

struct BranchPT {
  PmatT p[kRateCategories];

  [[gnu::always_inline]] static BranchPT from(const BranchP& bp) noexcept {
    BranchPT t;
    for (int r = 0; r < kRateCategories; ++r) {
      t.p[r] = PmatT::from(bp.p[static_cast<std::size_t>(r)]);
    }
    return t;
  }
};

/// Lane s = m[s][0]*v[0] + m[s][1]*v[1] + m[s][2]*v[2] + m[s][3]*v[3],
/// evaluated strictly left-to-right — the exact rounding order of the
/// scalar reference's per-state dot product.
[[gnu::always_inline]] inline vdouble4 dot_rows(const PmatT& m,
                                                const double* v) noexcept {
  vdouble4 acc = m.col[0] * vsplat4(v[0]);
  acc = acc + m.col[1] * vsplat4(v[1]);
  acc = acc + m.col[2] * vsplat4(v[2]);
  acc = acc + m.col[3] * vsplat4(v[3]);
  return acc;
}

/// dot_rows(P_r, kTipVectors[c]) for every tip code c and every rate r.  A
/// tip CLV holds exactly these vectors, and dot_rows is deterministic, so a
/// lookup returns the bits the arithmetic would have produced.
struct TipTable {
  vdouble4 dot[kTipCodes][kRateCategories];
};

[[gnu::always_inline]] inline void build_tip_table(const BranchPT& bp,
                                                   TipTable& out) noexcept {
  for (int c = 0; c < kTipCodes; ++c) {
    for (int r = 0; r < kRateCategories; ++r) {
      out.dot[c][r] = dot_rows(bp.p[r], kTipVectors[c]);
    }
  }
}

/// One operand's per-(pattern, rate) dot products: a table lookup for a
/// tip, the arithmetic otherwise.
template <bool Tip>
[[gnu::always_inline]] inline vdouble4 operand_dot(
    const Clv<double>& c, const BranchPT& bp, const TipTable& table, int p,
    int r, std::size_t base) noexcept {
  if constexpr (Tip) {
    return table.dot[c.tip[static_cast<std::size_t>(p)]][r];
  } else {
    return dot_rows(bp.p[r], &c.data[base]);
  }
}

/// One operand's (pattern, rate) block: kTipVectors[code] for a tip, whose
/// `data` may be empty, the CLV's own block otherwise.
template <bool Tip>
[[gnu::always_inline]] inline const double* operand_block(
    const Clv<double>& c, int p, std::size_t base) noexcept {
  if constexpr (Tip) {
    return kTipVectors[c.tip[static_cast<std::size_t>(p)]];
  } else {
    return &c.data[base];
  }
}

template <bool LeftTip, bool RightTip>
[[gnu::always_inline]] inline void newview_body(
    const Clv<double>& left, const BranchPT& plt, const TipTable& ltab,
    const Clv<double>& right, const BranchPT& prt, const TipTable& rtab,
    Clv<double>& out) noexcept {
  const int patterns = out.patterns();
  const vdouble4 two256 = vsplat4(kTwoTo256);
  for (int p = 0; p < patterns; ++p) {
    bool all_small = true;
    for (int r = 0; r < kRateCategories; ++r) {
      const std::size_t base =
          (static_cast<std::size_t>(p) * kRateCategories +
           static_cast<std::size_t>(r)) *
          kStates;
      const vdouble4 dl = operand_dot<LeftTip>(left, plt, ltab, p, r, base);
      const vdouble4 dr = operand_dot<RightTip>(right, prt, rtab, p, r, base);
      const vdouble4 o = dl * dr;
      vstore4(&out.data[base], o);
      all_small = all_small && o[0] < kMinLikelihood &&
                  o[1] < kMinLikelihood && o[2] < kMinLikelihood &&
                  o[3] < kMinLikelihood;
    }
    out.scale[static_cast<std::size_t>(p)] =
        left.scale[static_cast<std::size_t>(p)] +
        right.scale[static_cast<std::size_t>(p)];
    if (all_small) {
      const std::size_t base =
          static_cast<std::size_t>(p) * kRateCategories * kStates;
      for (int k = 0; k < kRateCategories * kStates; k += 4) {
        double* q = &out.data[base + static_cast<std::size_t>(k)];
        vstore4(q, vload4(q) * two256);
      }
      out.scale[static_cast<std::size_t>(p)] += 1;
    }
  }
}

template <bool ATip, bool BTip>
[[gnu::always_inline]] inline double evaluate_body(
    const Clv<double>& a, const Clv<double>& b, const BranchPT& pbt,
    const TipTable& btab, const SubstModel& model,
    const std::vector<double>& weights) noexcept {
  const int patterns = a.patterns();
  const auto& pi = model.freqs();
  const vdouble4 piv = vdouble4{pi[0], pi[1], pi[2], pi[3]};
  const double rate_w = 1.0 / kRateCategories;
  double lnl = 0.0;

  for (int p = 0; p < patterns; ++p) {
    double site = 0.0;
    for (int r = 0; r < kRateCategories; ++r) {
      const std::size_t base =
          (static_cast<std::size_t>(p) * kRateCategories +
           static_cast<std::size_t>(r)) *
          kStates;
      const vdouble4 inner = operand_dot<BTip>(b, pbt, btab, p, r, base);
      // Lane i = (pi[i] * a[i]) * inner_i — the reference's
      // `pi[i] * av[i] * inner` with its left-associative grouping.
      const vdouble4 t =
          (piv * vload4(operand_block<ATip>(a, p, base))) * inner;
      // The reference accumulates `term = term + t_i` for i = 0..3; repeat
      // that scalar chain so the additions round identically.
      double term = 0.0;
      term = term + t[0];
      term = term + t[1];
      term = term + t[2];
      term = term + t[3];
      site = site + rate_w * term;
    }
    // std::log, not an approximation: bit-identity with the reference is
    // the contract here, and log is a per-pattern (not per-state) cost.
    const double logsite = std::log(site);
    const int sc = a.scale[static_cast<std::size_t>(p)] +
                   b.scale[static_cast<std::size_t>(p)];
    lnl += weights[static_cast<std::size_t>(p)] *
           (logsite - static_cast<double>(sc) * kLogTwoTo256);
  }
  return lnl;
}

template <bool ATip, bool BTip>
[[gnu::always_inline]] inline void sumtable_body(
    const Clv<double>& a, const Clv<double>& b, const vdouble4 (&plrow)[4],
    const vdouble4 (&rcol)[4], std::vector<double>& sumtable) noexcept {
  const int patterns = a.patterns();
  for (int p = 0; p < patterns; ++p) {
    for (int r = 0; r < kRateCategories; ++r) {
      const std::size_t base =
          (static_cast<std::size_t>(p) * kRateCategories +
           static_cast<std::size_t>(r)) *
          kStates;
      const double* av = operand_block<ATip>(a, p, base);
      const double* bv = operand_block<BTip>(b, p, base);
      // Lane k = pileft[0][k]*av[0] + pileft[1][k]*av[1] + ... — the
      // reference's lhs chain, left-to-right.
      vdouble4 lhs = plrow[0] * vsplat4(av[0]);
      lhs = lhs + plrow[1] * vsplat4(av[1]);
      lhs = lhs + plrow[2] * vsplat4(av[2]);
      lhs = lhs + plrow[3] * vsplat4(av[3]);
      // Lane k = right[k][0]*bv[0] + right[k][1]*bv[1] + ... — the rhs
      // chain.
      vdouble4 rhs = rcol[0] * vsplat4(bv[0]);
      rhs = rhs + rcol[1] * vsplat4(bv[1]);
      rhs = rhs + rcol[2] * vsplat4(bv[2]);
      rhs = rhs + rcol[3] * vsplat4(bv[3]);
      vstore4(&sumtable[base], lhs * rhs);
    }
  }
}

/// Newton's derivative sums over N consecutive blocks of four patterns of
/// the transposed sumtable, starting at block q: lane l of block q+j runs
/// the reference's three chains over the terms, in term order, for pattern
/// 4(q+j)+l, and its `w * ratio` and `w * (d2site / site - ratio * ratio)`
/// are added to d1 and d2 pattern by pattern, as the reference adds them.
/// The N blocks' chains are independent, so running them side by side hides
/// the add latency.
template <int N>
[[gnu::always_inline]] inline void newton_blocks(
    const std::vector<double>& scratch, int q,
    const double (&e)[kRateCategories * kStates],
    const double (&lam)[kRateCategories * kStates],
    const double (&lam2)[kRateCategories * kStates],
    const std::vector<double>& weights, double& d1, double& d2) noexcept {
  constexpr int kTerms = kRateCategories * kStates;
  const double* blocks = &scratch[static_cast<std::size_t>(q) * kTerms * 4];
  vdouble4 site[N], dsite[N], d2site[N];
  for (int j = 0; j < N; ++j) {
    site[j] = vsplat4(0.0);
    dsite[j] = vsplat4(0.0);
    d2site[j] = vsplat4(0.0);
  }
  for (int i = 0; i < kTerms; ++i) {
    const vdouble4 ei = vsplat4(e[i]);
    const vdouble4 li = vsplat4(lam[i]);
    const vdouble4 l2i = vsplat4(lam2[i]);
    for (int j = 0; j < N; ++j) {
      const vdouble4 v = vload4(blocks + (j * kTerms + i) * 4) * ei;
      site[j] = site[j] + v;
      dsite[j] = dsite[j] + v * li;
      d2site[j] = d2site[j] + v * l2i;
    }
  }
  const vdouble4 site_floor = vsplat4(1e-300);
  const auto patterns = static_cast<int>(weights.size());
  for (int j = 0; j < N; ++j) {
    // std::max(site, 1e-300), lane by lane.
    const vdouble4 s = site[j] < site_floor ? site_floor : site[j];
    const vdouble4 ratio = dsite[j] / s;
    const vdouble4 curv = d2site[j] / s - ratio * ratio;
    const int first = (q + j) * 4;
    const int lanes = std::min(4, patterns - first);
    for (int l = 0; l < lanes; ++l) {
      const double w = weights[static_cast<std::size_t>(first + l)];
      d1 += w * ratio[l];
      d2 += w * curv[l];
    }
  }
}

}  // namespace

CBE_SIMD_CLONES
void newview_simd(const Clv<double>& left, const BranchP& pl,
                  const Clv<double>& right, const BranchP& pr,
                  Clv<double>& out) {
  const int patterns = left.patterns();
  if (right.patterns() != patterns) {
    throw std::invalid_argument("newview_simd: pattern count mismatch");
  }
  const bool left_tip = !left.tip.empty();
  const bool right_tip = !right.tip.empty();
  out.resize(patterns, kRateCategories);
  const BranchPT plt = BranchPT::from(pl);
  const BranchPT prt = BranchPT::from(pr);
  TipTable ltab, rtab;
  if (left_tip) build_tip_table(plt, ltab);
  if (right_tip) build_tip_table(prt, rtab);

  if (left_tip && right_tip) {
    newview_body<true, true>(left, plt, ltab, right, prt, rtab, out);
  } else if (left_tip) {
    newview_body<true, false>(left, plt, ltab, right, prt, rtab, out);
  } else if (right_tip) {
    newview_body<false, true>(left, plt, ltab, right, prt, rtab, out);
  } else {
    newview_body<false, false>(left, plt, ltab, right, prt, rtab, out);
  }
}

CBE_SIMD_CLONES
double evaluate_simd(const Clv<double>& a, const Clv<double>& b,
                     const BranchP& pb, const SubstModel& model,
                     const std::vector<double>& weights) {
  const int patterns = a.patterns();
  if (b.patterns() != patterns ||
      static_cast<int>(weights.size()) != patterns) {
    throw std::invalid_argument("evaluate_simd: size mismatch");
  }
  const bool a_tip = !a.tip.empty();
  const BranchPT pbt = BranchPT::from(pb);
  TipTable btab;
  if (b.tip.empty()) {
    return a_tip ? evaluate_body<true, false>(a, b, pbt, btab, model, weights)
                 : evaluate_body<false, false>(a, b, pbt, btab, model, weights);
  }
  build_tip_table(pbt, btab);
  return a_tip ? evaluate_body<true, true>(a, b, pbt, btab, model, weights)
               : evaluate_body<false, true>(a, b, pbt, btab, model, weights);
}

CBE_SIMD_CLONES
void make_sumtable_simd(const Clv<double>& a, const Clv<double>& b,
                        const SubstModel& model,
                        std::vector<double>& sumtable) {
  const int patterns = a.patterns();
  if (b.patterns() != patterns) {
    throw std::invalid_argument("make_sumtable_simd: size mismatch");
  }
  sumtable.resize(static_cast<std::size_t>(patterns) * kRateCategories *
                  kStates);
  const auto& pi = model.freqs();
  const auto& left = model.left();
  const auto& right = model.right();
  // pileft rows are contiguous (row i = pileft[i*4 .. i*4+3], lane index
  // k), so the lhs sweep loads them directly; right needs the transpose.
  std::array<double, 16> pileft{};
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 4; ++k) {
      pileft[static_cast<std::size_t>(i * 4 + k)] =
          pi[static_cast<std::size_t>(i)] *
          left[static_cast<std::size_t>(i * 4 + k)];
    }
  }
  vdouble4 plrow[4];
  for (int i = 0; i < 4; ++i) plrow[i] = vload4(&pileft[static_cast<std::size_t>(i * 4)]);
  vdouble4 rcol[4];
  for (int j = 0; j < 4; ++j) {
    rcol[j] = vdouble4{right[static_cast<std::size_t>(0 * 4 + j)],
                       right[static_cast<std::size_t>(1 * 4 + j)],
                       right[static_cast<std::size_t>(2 * 4 + j)],
                       right[static_cast<std::size_t>(3 * 4 + j)]};
  }

  const bool a_tip = !a.tip.empty();
  const bool b_tip = !b.tip.empty();
  if (a_tip && b_tip) {
    sumtable_body<true, true>(a, b, plrow, rcol, sumtable);
  } else if (a_tip) {
    sumtable_body<true, false>(a, b, plrow, rcol, sumtable);
  } else if (b_tip) {
    sumtable_body<false, true>(a, b, plrow, rcol, sumtable);
  } else {
    sumtable_body<false, false>(a, b, plrow, rcol, sumtable);
  }
}

CBE_SIMD_CLONES
double newton_branch_length(const std::vector<double>& sumtable,
                            const SubstModel& model,
                            const std::vector<double>& weights, double t0,
                            std::vector<double>& scratch, int max_iter,
                            int* iterations_out) {
  constexpr int kTerms = kRateCategories * kStates;
  const auto patterns = static_cast<int>(weights.size());
  if (sumtable.size() != static_cast<std::size_t>(patterns) * kTerms) {
    throw std::invalid_argument("newton_branch_length: size mismatch");
  }
  const auto& lambda = model.eigenvalues();
  const auto& rates = model.rates();
  constexpr double kMinBranch = 1e-8;
  constexpr double kMaxBranch = 50.0;

  // The sumtable is fixed across iterations, so it is transposed once:
  // lane l of term i in block q holds pattern 4q+l's term i.  Lanes past
  // the last pattern hold 0 and are never summed.
  const int blocks = (patterns + 3) / 4;
  scratch.resize(static_cast<std::size_t>(blocks) * kTerms * 4);
  for (int q = 0; q < blocks; ++q) {
    double* block = &scratch[static_cast<std::size_t>(q) * kTerms * 4];
    for (int l = 0; l < 4; ++l) {
      const int p = q * 4 + l;
      for (int i = 0; i < kTerms; ++i) {
        block[i * 4 + l] =
            p < patterns ? sumtable[static_cast<std::size_t>(p) * kTerms +
                                    static_cast<std::size_t>(i)]
                         : 0.0;
      }
    }
  }

  double t = std::clamp(t0, kMinBranch, kMaxBranch);
  int iters = 0;
  for (; iters < max_iter; ++iters) {
    double e[kTerms], lam[kTerms], lam2[kTerms];
    for (int r = 0; r < kRateCategories; ++r) {
      for (int k = 0; k < kStates; ++k) {
        const double l = lambda[static_cast<std::size_t>(k)] *
                         rates[static_cast<std::size_t>(r)];
        const int i = r * kStates + k;
        e[i] = std::exp(l * t);
        lam[i] = l;
        lam2[i] = l * l;
      }
    }
    double d1 = 0.0, d2 = 0.0;
    int q = 0;
    for (; q + 2 <= blocks; q += 2) {
      newton_blocks<2>(scratch, q, e, lam, lam2, weights, d1, d2);
    }
    if (q < blocks) newton_blocks<1>(scratch, q, e, lam, lam2, weights, d1, d2);
    if (std::fabs(d1) < 1e-10) break;
    double step;
    if (d2 < 0.0) {
      step = d1 / d2;  // Newton toward the maximum
    } else {
      // Non-concave region: fall back to a gradient step.
      step = d1 > 0.0 ? -0.5 * t : 0.5 * t;
    }
    double tn = t - step;
    if (tn <= kMinBranch) tn = 0.5 * (t + kMinBranch);
    if (tn >= kMaxBranch) tn = 0.5 * (t + kMaxBranch);
    if (std::fabs(tn - t) < 1e-12) {
      t = tn;
      ++iters;
      break;
    }
    t = tn;
  }
  if (iterations_out != nullptr) *iterations_out = iters;
  return t;
}

}  // namespace cbe::phylo
