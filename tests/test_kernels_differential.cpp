// Differential harness for the vectorized likelihood kernels: every SIMD
// kernel must be BIT-identical (memcmp, not tolerance) to the scalar
// reference in phylo/kernels.cpp, across randomized models, branch lengths,
// pattern counts (including the 0 / 1 / odd tails a lane-width bug would
// hit first), random CLV contents, tip operands (which the vector kernels
// read by their codes alone, through a per-call lookup table or the code's
// block), and inputs tiny enough to force the 2^256 rescaling path.
// Newton has no scalar twin in the library: its oracle is the per-pattern
// loop below, which the vector kernel replaced.
#include "phylo/kernels_simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace cbe::phylo {
namespace {

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A random CLV whose entries span many magnitudes; `tiny_fraction` of the
/// patterns get values near kMinLikelihood so newview's underflow rescue
/// actually fires.  Random pre-existing scale counts exercise the
/// scale-propagation arithmetic too.
Clv<double> random_clv(int patterns, std::mt19937_64& rng,
                       double tiny_fraction = 0.0) {
  Clv<double> clv;
  clv.resize(patterns, kRateCategories);
  std::uniform_real_distribution<double> unit(1e-3, 1.0);
  std::uniform_int_distribution<int> scale_dist(0, 3);
  std::bernoulli_distribution tiny(tiny_fraction);
  for (int p = 0; p < patterns; ++p) {
    const double mag = tiny(rng) ? 1e-70 : 1.0;
    for (int r = 0; r < kRateCategories; ++r) {
      for (int s = 0; s < kStates; ++s) {
        clv.data[(static_cast<std::size_t>(p) * kRateCategories + r) *
                     kStates +
                 s] = unit(rng) * mag;
      }
    }
    clv.scale[static_cast<std::size_t>(p)] = scale_dist(rng);
  }
  return clv;
}

/// Tip CLVs of two taxa, built by init_tip_clv over an alignment of exactly
/// `patterns` distinct random columns; about `gap_fraction` of the states
/// are gaps.
struct TipPair {
  Clv<double> a, b;
};

TipPair random_tips(int patterns, std::mt19937_64& rng,
                    double gap_fraction) {
  constexpr int kTaxa = 6;  // 5^6 possible columns: room for every tail
  std::bernoulli_distribution gap(gap_fraction);
  std::uniform_int_distribution<int> base(0, kStates - 1);
  std::set<std::vector<std::uint8_t>> columns;
  while (static_cast<int>(columns.size()) < patterns) {
    std::vector<std::uint8_t> col(kTaxa);
    for (auto& x : col) {
      x = static_cast<std::uint8_t>(gap(rng) ? int{kGap} : base(rng));
    }
    columns.insert(col);
  }
  const std::vector<std::string> names = {"a", "b", "c", "d", "e", "f"};
  std::vector<std::vector<std::uint8_t>> seqs(kTaxa);
  for (const auto& col : columns) {
    for (int t = 0; t < kTaxa; ++t) seqs[t].push_back(col[t]);
  }
  const PatternAlignment pa(Alignment(names, seqs));
  TipPair tips;
  init_tip_clv(pa, 0, tips.a);
  init_tip_clv(pa, 1, tips.b);
  return tips;
}

int gap_count(const Clv<double>& tip) {
  int n = 0;
  for (std::uint8_t code : tip.tip) n += code == kTipGap ? 1 : 0;
  return n;
}

SubstModel random_model(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> kappa(1.2, 6.0);
  std::uniform_real_distribution<double> alpha(0.3, 2.5);
  std::uniform_real_distribution<double> f(0.1, 1.0);
  std::array<double, 4> freqs{f(rng), f(rng), f(rng), f(rng)};
  double sum = freqs[0] + freqs[1] + freqs[2] + freqs[3];
  for (double& x : freqs) x /= sum;
  return SubstModel(GtrParams::hky(kappa(rng), freqs), alpha(rng));
}

std::vector<double> random_weights(int patterns, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> w(1.0, 9.0);
  std::vector<double> weights(static_cast<std::size_t>(patterns));
  for (double& x : weights) x = w(rng);
  return weights;
}

// Pattern counts chosen to straddle every lane-width boundary: empty, one,
// below/at/above a vector width, odd primes, and a larger bulk size.
const int kPatternTails[] = {0, 1, 2, 3, 4, 5, 7, 13, 64, 257};

TEST(KernelsDifferential, NewviewBitIdenticalAcrossTails) {
  std::mt19937_64 rng(0xC0FFEEu);
  for (int patterns : kPatternTails) {
    for (int rep = 0; rep < 4; ++rep) {
      const SubstModel model = random_model(rng);
      std::uniform_real_distribution<double> blen(0.001, 1.5);
      const BranchP pl = BranchP::at(model, blen(rng));
      const BranchP pr = BranchP::at(model, blen(rng));
      const Clv<double> left = random_clv(patterns, rng, 0.3);
      const Clv<double> right = random_clv(patterns, rng, 0.3);
      Clv<double> ref, simd;
      newview(left, pl, right, pr, ref);
      newview_simd(left, pl, right, pr, simd);
      ASSERT_TRUE(bits_equal(ref.data, simd.data))
          << "patterns=" << patterns << " rep=" << rep;
      ASSERT_EQ(ref.scale, simd.scale)
          << "patterns=" << patterns << " rep=" << rep;
    }
  }
}

TEST(KernelsDifferential, NewviewRescuePathBitIdentical) {
  // All-tiny inputs: every pattern goes through the 2^256 rescue.
  std::mt19937_64 rng(7);
  const SubstModel model = random_model(rng);
  const BranchP p = BranchP::at(model, 0.02);
  const Clv<double> left = random_clv(33, rng, 1.0);
  const Clv<double> right = random_clv(33, rng, 1.0);
  Clv<double> ref, simd;
  newview(left, p, right, p, ref);
  newview_simd(left, p, right, p, simd);
  ASSERT_TRUE(bits_equal(ref.data, simd.data));
  ASSERT_EQ(ref.scale, simd.scale);
  int rescued = 0;
  for (std::size_t i = 0; i < ref.scale.size(); ++i) {
    rescued += ref.scale[i] - left.scale[i] - right.scale[i];
  }
  EXPECT_GT(rescued, 0) << "rescue path not exercised — test is vacuous";
}

TEST(KernelsDifferential, EvaluateBitIdenticalAcrossTails) {
  std::mt19937_64 rng(0xBEEFu);
  for (int patterns : kPatternTails) {
    for (int rep = 0; rep < 4; ++rep) {
      const SubstModel model = random_model(rng);
      std::uniform_real_distribution<double> blen(0.001, 1.5);
      const BranchP pb = BranchP::at(model, blen(rng));
      const Clv<double> a = random_clv(patterns, rng, 0.2);
      const Clv<double> b = random_clv(patterns, rng, 0.2);
      const std::vector<double> weights = random_weights(patterns, rng);
      const double ref = evaluate(a, b, pb, model, weights);
      const double simd = evaluate_simd(a, b, pb, model, weights);
      ASSERT_TRUE(bits_equal(ref, simd))
          << "patterns=" << patterns << " rep=" << rep << " ref=" << ref
          << " simd=" << simd;
    }
  }
}

TEST(KernelsDifferential, MakeSumtableBitIdenticalAcrossTails) {
  std::mt19937_64 rng(0xFACEu);
  for (int patterns : kPatternTails) {
    for (int rep = 0; rep < 4; ++rep) {
      const SubstModel model = random_model(rng);
      const Clv<double> a = random_clv(patterns, rng, 0.2);
      const Clv<double> b = random_clv(patterns, rng, 0.2);
      std::vector<double> ref, simd;
      make_sumtable(a, b, model, ref);
      make_sumtable_simd(a, b, model, simd);
      ASSERT_TRUE(bits_equal(ref, simd))
          << "patterns=" << patterns << " rep=" << rep;
    }
  }
}

/// What the oracle saw: sites it raised to the 1e-300 floor and steps it
/// took by the d2 >= 0 fallback, so a test can show it reached those paths.
struct OracleStats {
  int clamped = 0;
  int fallbacks = 0;
};

/// The per-pattern scalar Newton that the vector newton_branch_length
/// replaced, kept as its oracle: each pattern's three sums run over the 16
/// (rate, state) terms, and the derivative sums add the patterns in order.
double oracle_newton(const std::vector<double>& sumtable,
                     const SubstModel& model,
                     const std::vector<double>& weights, double t0,
                     int max_iter, int* iterations_out,
                     OracleStats* stats = nullptr) {
  const auto patterns = static_cast<int>(weights.size());
  const auto& lambda = model.eigenvalues();
  const auto& rates = model.rates();
  constexpr double kMinBranch = 1e-8;
  constexpr double kMaxBranch = 50.0;

  double t = std::clamp(t0, kMinBranch, kMaxBranch);
  int iters = 0;
  for (; iters < max_iter; ++iters) {
    std::array<double, kRateCategories * kStates> e{}, lam{}, lam2{};
    for (int r = 0; r < kRateCategories; ++r) {
      for (int k = 0; k < kStates; ++k) {
        const double l = lambda[static_cast<std::size_t>(k)] *
                         rates[static_cast<std::size_t>(r)];
        const auto idx = static_cast<std::size_t>(r * kStates + k);
        e[idx] = std::exp(l * t);
        lam[idx] = l;
        lam2[idx] = l * l;
      }
    }
    double d1 = 0.0, d2 = 0.0;
    for (int p = 0; p < patterns; ++p) {
      double site = 0.0, dsite = 0.0, d2site = 0.0;
      for (int r = 0; r < kRateCategories; ++r) {
        const std::size_t base =
            (static_cast<std::size_t>(p) * kRateCategories +
             static_cast<std::size_t>(r)) *
            kStates;
        for (int k = 0; k < kStates; ++k) {
          const auto idx = static_cast<std::size_t>(r * kStates + k);
          const double v = sumtable[base + static_cast<std::size_t>(k)] *
                           e[idx];
          site += v;
          dsite += v * lam[idx];
          d2site += v * lam2[idx];
        }
      }
      if (stats != nullptr && site < 1e-300) ++stats->clamped;
      site = std::max(site, 1e-300);
      const double w = weights[static_cast<std::size_t>(p)];
      const double ratio = dsite / site;
      d1 += w * ratio;
      d2 += w * (d2site / site - ratio * ratio);
    }
    if (std::fabs(d1) < 1e-10) break;
    double step;
    if (d2 < 0.0) {
      step = d1 / d2;
    } else {
      if (stats != nullptr) ++stats->fallbacks;
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

/// newton_branch_length against the oracle: the same length bits and the
/// same iteration count.
void expect_newton_identical(const std::vector<double>& sumtable,
                             const SubstModel& model,
                             const std::vector<double>& weights, double t0,
                             int max_iter, const std::string& what,
                             OracleStats* stats = nullptr) {
  int it_ref = -1, it_simd = -2;
  const double t_ref =
      oracle_newton(sumtable, model, weights, t0, max_iter, &it_ref, stats);
  std::vector<double> scratch;
  const double t_simd = newton_branch_length(sumtable, model, weights, t0,
                                             scratch, max_iter, &it_simd);
  ASSERT_TRUE(bits_equal(t_ref, t_simd))
      << what << ": " << t_ref << " vs " << t_simd;
  ASSERT_EQ(it_ref, it_simd) << what;
}

/// A sumtable of random CLVs over `patterns`, as makenewz builds it.
std::vector<double> random_sumtable(int patterns, const SubstModel& model,
                                    std::mt19937_64& rng) {
  const Clv<double> a = random_clv(patterns, rng, 0.1);
  const Clv<double> b = random_clv(patterns, rng, 0.1);
  std::vector<double> sumtable;
  make_sumtable(a, b, model, sumtable);
  return sumtable;
}

TEST(KernelsDifferential, NewtonAgreesOnEitherSumtable) {
  // End-to-end makenewz: the scalar and vector sumtables are identical, and
  // must drive Newton to the bit-identical branch length in the same number
  // of iterations as the per-pattern oracle.
  std::mt19937_64 rng(99);
  for (int rep = 0; rep < 8; ++rep) {
    const SubstModel model = random_model(rng);
    const int patterns = 31;
    const Clv<double> a = random_clv(patterns, rng, 0.1);
    const Clv<double> b = random_clv(patterns, rng, 0.1);
    const std::vector<double> weights = random_weights(patterns, rng);
    std::vector<double> st_ref, st_simd;
    make_sumtable(a, b, model, st_ref);
    make_sumtable_simd(a, b, model, st_simd);
    ASSERT_TRUE(bits_equal(st_ref, st_simd)) << "rep=" << rep;
    expect_newton_identical(st_simd, model, weights, 0.1, 32,
                            "rep=" + std::to_string(rep));
  }
}

TEST(KernelsDifferential, NewtonMatchesPerPatternOracleAcrossTails) {
  // Every lane-tail length up to two blocks, and the live pattern counts of
  // a resampled and a full 42-taxon alignment.
  std::mt19937_64 rng(0x4E77u);
  for (int patterns : {1, 2, 3, 4, 5, 6, 7, 8, 9, 225, 335}) {
    for (int rep = 0; rep < 4; ++rep) {
      const SubstModel model = random_model(rng);
      const std::vector<double> sumtable =
          random_sumtable(patterns, model, rng);
      const std::vector<double> weights = random_weights(patterns, rng);
      std::uniform_real_distribution<double> start(0.001, 1.5);
      expect_newton_identical(sumtable, model, weights, start(rng), 32,
                              "patterns=" + std::to_string(patterns) +
                                  " rep=" + std::to_string(rep));
    }
  }
}

TEST(KernelsDifferential, NewtonClampedSitesMatchOracle) {
  // Patterns whose site likelihood sits below the 1e-300 floor (tiny or
  // zero terms) are raised to it lane by lane, as std::max does.
  std::mt19937_64 rng(0xC1A3u);
  OracleStats stats;
  for (int patterns : {1, 3, 5, 13, 64}) {
    for (int rep = 0; rep < 3; ++rep) {
      const SubstModel model = random_model(rng);
      std::vector<double> sumtable = random_sumtable(patterns, model, rng);
      std::bernoulli_distribution tiny(0.4);
      constexpr std::size_t kTerms = kRateCategories * kStates;
      for (int p = 0; p < patterns; ++p) {
        if (!tiny(rng)) continue;
        const double scale = rep == 0 ? 0.0 : 1e-310;
        for (std::size_t i = 0; i < kTerms; ++i) {
          sumtable[static_cast<std::size_t>(p) * kTerms + i] *= scale;
        }
      }
      const std::vector<double> weights = random_weights(patterns, rng);
      expect_newton_identical(sumtable, model, weights, 0.1, 32,
                              "patterns=" + std::to_string(patterns) +
                                  " rep=" + std::to_string(rep),
                              &stats);
    }
  }
  EXPECT_GT(stats.clamped, 0) << "no site hit the floor — test is vacuous";
}

TEST(KernelsDifferential, NewtonNonConcaveStartMatchesOracle) {
  // Starts far out on the flat tail of lnL(t), where d2 >= 0 and Newton
  // falls back to a halving step.
  std::mt19937_64 rng(0xF1A7u);
  OracleStats stats;
  for (int rep = 0; rep < 6; ++rep) {
    const SubstModel model = random_model(rng);
    const int patterns = 21 + rep;
    const std::vector<double> sumtable = random_sumtable(patterns, model, rng);
    const std::vector<double> weights = random_weights(patterns, rng);
    for (double t0 : {5.0, 20.0, 49.0}) {
      expect_newton_identical(sumtable, model, weights, t0, 32,
                              "rep=" + std::to_string(rep) +
                                  " t0=" + std::to_string(t0),
                              &stats);
    }
  }
  EXPECT_GT(stats.fallbacks, 0) << "no d2 >= 0 step taken — test is vacuous";
}

TEST(KernelsDifferential, NewtonCappedIterationsMatchOracle) {
  // A cap that stops Newton before it converges returns the length reached
  // so far and the cap as the count.
  std::mt19937_64 rng(0xCA9Du);
  for (int rep = 0; rep < 4; ++rep) {
    const SubstModel model = random_model(rng);
    const int patterns = 37;
    const std::vector<double> sumtable = random_sumtable(patterns, model, rng);
    const std::vector<double> weights = random_weights(patterns, rng);
    for (int max_iter : {0, 1, 2, 3}) {
      int it = -1;
      oracle_newton(sumtable, model, weights, 1.0, max_iter, &it);
      EXPECT_EQ(it, max_iter) << "the cap did not bind";
      expect_newton_identical(sumtable, model, weights, 1.0, max_iter,
                              "rep=" + std::to_string(rep) +
                                  " max_iter=" + std::to_string(max_iter));
    }
  }
}

TEST(KernelsDifferential, DeepNewviewChainStaysBitIdentical) {
  // Iterated application: any per-call rounding difference would compound
  // and surface here even if a single call happened to agree.
  std::mt19937_64 rng(1234);
  const SubstModel model = random_model(rng);
  const BranchP p = BranchP::at(model, 0.15);
  const Clv<double> tip = random_clv(21, rng, 0.0);
  Clv<double> ref = tip, simd = tip;
  for (int depth = 0; depth < 40; ++depth) {
    Clv<double> nref, nsimd;
    newview(ref, p, tip, p, nref);
    newview_simd(simd, p, tip, p, nsimd);
    ref = std::move(nref);
    simd = std::move(nsimd);
    ASSERT_TRUE(bits_equal(ref.data, simd.data)) << "depth=" << depth;
    ASSERT_EQ(ref.scale, simd.scale) << "depth=" << depth;
  }
  int total = 0;
  for (int s : ref.scale) total += s;
  EXPECT_GT(total, 0) << "deep chain never rescaled — too shallow";
}

TEST(KernelsDifferential, RealAlignmentPipelineBitIdentical) {
  // Tips from a synthetic alignment (gap columns included) rather than
  // random CLVs: the tip encoding path feeds both kernels identically.
  Alignment al = make_synthetic_alignment([] {
    SyntheticAlignmentConfig c;
    c.taxa = 8;
    c.sites = 501;  // odd on purpose
    c.mean_branch_length = 0.07;
    c.seed = 11;
    return c;
  }());
  PatternAlignment pa(al);
  const SubstModel model(GtrParams::hky(2.0, pa.base_frequencies()), 0.8);
  Clv<double> t0, t1, t2;
  init_tip_clv(pa, 0, t0);
  init_tip_clv(pa, 1, t1);
  init_tip_clv(pa, 2, t2);
  const BranchP p1 = BranchP::at(model, 0.12);
  const BranchP p2 = BranchP::at(model, 0.31);
  Clv<double> ref, simd;
  newview(t0, p1, t1, p2, ref);
  newview_simd(t0, p1, t1, p2, simd);
  ASSERT_TRUE(bits_equal(ref.data, simd.data));
  const BranchP proot = BranchP::at(model, 0.18);
  ASSERT_TRUE(bits_equal(evaluate(ref, t2, proot, model, pa.weights()),
                         evaluate_simd(simd, t2, proot, model, pa.weights())));
  std::vector<double> st_ref, st_simd;
  make_sumtable(ref, t2, model, st_ref);
  make_sumtable_simd(simd, t2, model, st_simd);
  ASSERT_TRUE(bits_equal(st_ref, st_simd));
}

/// newview_simd against the reference, bit for bit, for one operand pair.
void expect_newview_identical(const Clv<double>& left, const BranchP& pl,
                              const Clv<double>& right, const BranchP& pr,
                              const std::string& what) {
  Clv<double> ref, simd;
  newview(left, pl, right, pr, ref);
  newview_simd(left, pl, right, pr, simd);
  ASSERT_EQ(left.patterns(), simd.patterns()) << what;
  ASSERT_TRUE(bits_equal(ref.data, simd.data)) << what;
  ASSERT_EQ(ref.scale, simd.scale) << what;
  EXPECT_TRUE(simd.tip.empty()) << what << ": an inner CLV has no codes";
}

TEST(KernelsDifferential, TipInnerBitIdenticalInBothOrders) {
  std::mt19937_64 rng(0x71F5u);
  for (int patterns : kPatternTails) {
    for (int rep = 0; rep < 3; ++rep) {
      const SubstModel model = random_model(rng);
      std::uniform_real_distribution<double> blen(0.001, 1.5);
      const BranchP pl = BranchP::at(model, blen(rng));
      const BranchP pr = BranchP::at(model, blen(rng));
      const TipPair tips = random_tips(patterns, rng, 0.15);
      ASSERT_EQ(static_cast<int>(tips.a.tip.size()), patterns);
      const Clv<double> inner = random_clv(patterns, rng, 0.3);
      const std::string where = "patterns=" + std::to_string(patterns) +
                                " rep=" + std::to_string(rep);
      expect_newview_identical(tips.a, pl, inner, pr, "tip x inner " + where);
      expect_newview_identical(inner, pl, tips.a, pr, "inner x tip " + where);
    }
  }
}

TEST(KernelsDifferential, TipTipWithGapsBitIdentical) {
  std::mt19937_64 rng(0x6A95u);
  int gaps = 0;
  for (int patterns : kPatternTails) {
    for (int rep = 0; rep < 3; ++rep) {
      const SubstModel model = random_model(rng);
      std::uniform_real_distribution<double> blen(0.001, 1.5);
      const BranchP pl = BranchP::at(model, blen(rng));
      const BranchP pr = BranchP::at(model, blen(rng));
      const TipPair tips = random_tips(patterns, rng, 0.3);
      gaps += gap_count(tips.a) + gap_count(tips.b);
      expect_newview_identical(
          tips.a, pl, tips.b, pr,
          "tip x tip patterns=" + std::to_string(patterns) +
              " rep=" + std::to_string(rep));
    }
  }
  EXPECT_GT(gaps, 0) << "no gap codes generated — test is vacuous";
}

TEST(KernelsDifferential, TipChildUnderTinyInnerRescalesBitIdentically) {
  // A tip's products are at most ~1, so the 2^256 rescue fires only when
  // the inner sibling is below kMinLikelihood on its own.
  std::mt19937_64 rng(0x5CA1u);
  const SubstModel model = random_model(rng);
  const BranchP pl = BranchP::at(model, 0.05);
  const BranchP pr = BranchP::at(model, 0.4);
  const int patterns = 41;
  const TipPair tips = random_tips(patterns, rng, 0.2);
  Clv<double> tiny = random_clv(patterns, rng, 0.0);
  for (double& v : tiny.data) v *= 1e-80;
  expect_newview_identical(tips.a, pl, tiny, pr, "tip x tiny");
  expect_newview_identical(tiny, pl, tips.a, pr, "tiny x tip");
  Clv<double> ref;
  newview(tips.a, pl, tiny, pr, ref);
  int rescued = 0;
  for (std::size_t i = 0; i < ref.scale.size(); ++i) {
    rescued += ref.scale[i] - tiny.scale[i];
  }
  EXPECT_GT(rescued, 0) << "rescue path not exercised — test is vacuous";
}

TEST(KernelsDifferential, EvaluateTipOperandBitIdentical) {
  std::mt19937_64 rng(0xE7A1u);
  for (int patterns : kPatternTails) {
    for (int rep = 0; rep < 3; ++rep) {
      const SubstModel model = random_model(rng);
      std::uniform_real_distribution<double> blen(0.001, 1.5);
      const BranchP pb = BranchP::at(model, blen(rng));
      const TipPair tips = random_tips(patterns, rng, 0.2);
      const Clv<double> inner = random_clv(patterns, rng, 0.2);
      const std::vector<double> weights = random_weights(patterns, rng);
      ASSERT_TRUE(bits_equal(evaluate(inner, tips.b, pb, model, weights),
                             evaluate_simd(inner, tips.b, pb, model, weights)))
          << "inner x tip patterns=" << patterns << " rep=" << rep;
      ASSERT_TRUE(bits_equal(evaluate(tips.a, tips.b, pb, model, weights),
                             evaluate_simd(tips.a, tips.b, pb, model, weights)))
          << "tip x tip patterns=" << patterns << " rep=" << rep;
    }
  }
}

/// `tip` with its codes and scale counts but no `data`, as the likelihood
/// engine holds its tips: a kernel that read the blocks would fault or read
/// past the end.
Clv<double> code_only(const Clv<double>& tip) {
  Clv<double> c;
  c.scale = tip.scale;
  c.tip = tip.tip;
  return c;
}

TEST(KernelsDifferential, CodeOnlyTipsBitIdenticalAsEveryOperand) {
  // Every vector kernel reads a tip by its codes alone: with the blocks
  // gone, each operand position must still give the scalar reference's bits
  // on init_tip_clv tips.
  std::mt19937_64 rng(0xC0DEu);
  for (int patterns : kPatternTails) {
    for (int rep = 0; rep < 3; ++rep) {
      const SubstModel model = random_model(rng);
      std::uniform_real_distribution<double> blen(0.001, 1.5);
      const BranchP pl = BranchP::at(model, blen(rng));
      const BranchP pb = BranchP::at(model, blen(rng));
      const TipPair tips = random_tips(patterns, rng, 0.2);
      const Clv<double> ca = code_only(tips.a);
      const Clv<double> cb = code_only(tips.b);
      ASSERT_TRUE(ca.data.empty());
      ASSERT_EQ(ca.patterns(), patterns);
      const Clv<double> inner = random_clv(patterns, rng, 0.2);
      const std::vector<double> weights = random_weights(patterns, rng);
      const std::string where = " patterns=" + std::to_string(patterns) +
                                " rep=" + std::to_string(rep);

      struct Operands {
        const char* name;
        const Clv<double>& ref_a;
        const Clv<double>& ref_b;
        const Clv<double>& a;
        const Clv<double>& b;
      };
      for (const Operands& o : {Operands{"tip x inner", tips.a, inner, ca,
                                         inner},
                                Operands{"inner x tip", inner, tips.b, inner,
                                         cb},
                                Operands{"tip x tip", tips.a, tips.b, ca,
                                         cb}}) {
        const std::string what = o.name + where;
        ASSERT_TRUE(
            bits_equal(evaluate(o.ref_a, o.ref_b, pb, model, weights),
                       evaluate_simd(o.a, o.b, pb, model, weights)))
            << "evaluate " << what;
        std::vector<double> st_ref, st_simd;
        make_sumtable(o.ref_a, o.ref_b, model, st_ref);
        make_sumtable_simd(o.a, o.b, model, st_simd);
        ASSERT_TRUE(bits_equal(st_ref, st_simd)) << "sumtable " << what;
        Clv<double> nv_ref, nv_simd;
        newview(o.ref_a, pl, o.ref_b, pb, nv_ref);
        newview_simd(o.a, pl, o.b, pb, nv_simd);
        ASSERT_TRUE(bits_equal(nv_ref.data, nv_simd.data))
            << "newview " << what;
        ASSERT_EQ(nv_ref.scale, nv_simd.scale) << "newview " << what;
      }
    }
  }
}

TEST(KernelsDifferential, NewviewIntoFormerTipDropsItsCodes) {
  // A stale code would make a later kernel read this CLV as a tip.
  std::mt19937_64 rng(0x0C0Du);
  const SubstModel model = random_model(rng);
  const BranchP p = BranchP::at(model, 0.2);
  const TipPair tips = random_tips(19, rng, 0.2);
  const Clv<double> inner = random_clv(19, rng, 0.0);
  Clv<double> ref = tips.b;
  Clv<double> simd = tips.b;
  ASSERT_FALSE(simd.tip.empty());
  newview(tips.a, p, inner, p, ref);
  newview_simd(tips.a, p, inner, p, simd);
  EXPECT_TRUE(ref.tip.empty());
  EXPECT_TRUE(simd.tip.empty());
  ASSERT_TRUE(bits_equal(ref.data, simd.data));
  ASSERT_EQ(ref.scale, simd.scale);
  const std::vector<double> weights = random_weights(19, rng);
  ASSERT_TRUE(bits_equal(evaluate(inner, ref, p, model, weights),
                         evaluate_simd(inner, simd, p, model, weights)));
}

}  // namespace
}  // namespace cbe::phylo
