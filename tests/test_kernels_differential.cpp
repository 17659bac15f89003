// Differential harness for the vectorized likelihood kernels: every SIMD
// kernel must be BIT-identical (memcmp, not tolerance) to the scalar
// reference in phylo/kernels.cpp, across randomized models, branch lengths,
// pattern counts (including the 0 / 1 / odd tails a lane-width bug would
// hit first), random CLV contents, tip operands (which the vector kernels
// read by their codes alone, through a per-call lookup table or the code's
// block), and inputs tiny enough to force the 2^256 rescaling path.
#include "phylo/kernels_simd.hpp"

#include <gtest/gtest.h>

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

TEST(KernelsDifferential, NewtonAgreesOnEitherSumtable) {
  // End-to-end makenewz: identical sumtables must drive Newton to the
  // bit-identical branch length in the same number of iterations.
  std::mt19937_64 rng(99);
  for (int rep = 0; rep < 8; ++rep) {
    const SubstModel model = random_model(rng);
    const int patterns = 31;
    const Clv<double> a = random_clv(patterns, rng, 0.1);
    const Clv<double> b = random_clv(patterns, rng, 0.1);
    const std::vector<double> weights = random_weights(patterns, rng);
    std::vector<int> scale_sum(static_cast<std::size_t>(patterns));
    for (int p = 0; p < patterns; ++p) {
      scale_sum[static_cast<std::size_t>(p)] =
          a.scale[static_cast<std::size_t>(p)] +
          b.scale[static_cast<std::size_t>(p)];
    }
    std::vector<double> st_ref, st_simd;
    make_sumtable(a, b, model, st_ref);
    make_sumtable_simd(a, b, model, st_simd);
    int it_ref = 0, it_simd = 0;
    const double t_ref = newton_branch_length(st_ref, scale_sum, model,
                                              weights, 0.1, 32, &it_ref);
    const double t_simd = newton_branch_length(st_simd, scale_sum, model,
                                               weights, 0.1, 32, &it_simd);
    ASSERT_TRUE(bits_equal(t_ref, t_simd)) << "rep=" << rep;
    ASSERT_EQ(it_ref, it_simd) << "rep=" << rep;
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
