#include "phylo/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "phylo/kernels_simd.hpp"

namespace cbe::phylo {
namespace {

// Brute-force site likelihood for the 3-taxon star tree (one internal node
// x, branches t0, t1, t2 to the tips): L = sum_r w_r sum_s pi_s
// prod_k P_{t_k}(s -> state_k), with gaps summing over tip states.
double brute_force_star(const PatternAlignment& pa, const SubstModel& m,
                        int pattern, double t0, double t1, double t2) {
  const double ts[3] = {t0, t1, t2};
  double site = 0.0;
  for (int r = 0; r < kRateCategories; ++r) {
    const Pmatrix p0 = m.transition_matrix(ts[0], r);
    const Pmatrix p1 = m.transition_matrix(ts[1], r);
    const Pmatrix p2 = m.transition_matrix(ts[2], r);
    const Pmatrix* ps[3] = {&p0, &p1, &p2};
    double term = 0.0;
    for (int s = 0; s < 4; ++s) {
      double prod = m.freqs()[static_cast<std::size_t>(s)];
      for (int k = 0; k < 3; ++k) {
        const std::uint8_t obs = pa.state(k, pattern);
        double tipsum = 0.0;
        for (int j = 0; j < 4; ++j) {
          const double indicator = obs >= 4 ? 1.0 : (j == obs ? 1.0 : 0.0);
          tipsum += (*ps[k])[static_cast<std::size_t>(s * 4 + j)] * indicator;
        }
        prod *= tipsum;
      }
      term += prod;
    }
    site += term / kRateCategories;
  }
  return site;
}

struct KernelTest : ::testing::Test {
  KernelTest()
      : alignment(Alignment::parse_phylip(
            "3 8\nx ACGTAC-A\ny ACGTCCTA\nz ACGAACTG\n")),
        pa(alignment),
        model(GtrParams::hky(2.0, {0.3, 0.2, 0.2, 0.3}), 0.7) {}

  Alignment alignment;
  PatternAlignment pa;
  SubstModel model;
};

TEST_F(KernelTest, TipClvEncodesObservations) {
  Clv<double> clv;
  init_tip_clv(pa, 0, clv);
  EXPECT_EQ(clv.patterns(), pa.patterns());
  for (int p = 0; p < pa.patterns(); ++p) {
    EXPECT_EQ(clv.scale[static_cast<std::size_t>(p)], 0);
    const std::uint8_t s = pa.state(0, p);
    for (int r = 0; r < kRateCategories; ++r) {
      const double* v = &clv.data[(static_cast<std::size_t>(p) *
                                   kRateCategories + static_cast<std::size_t>(
                                       r)) * kStates];
      for (int j = 0; j < 4; ++j) {
        const double want = s >= 4 ? 1.0 : (j == s ? 1.0 : 0.0);
        EXPECT_DOUBLE_EQ(v[j], want);
      }
    }
  }
}

TEST_F(KernelTest, EvaluateMatchesBruteForceStar) {
  const double t0 = 0.12, t1 = 0.3, t2 = 0.08;
  Clv<double> tip1, tip2, internal;
  init_tip_clv(pa, 1, tip1);
  init_tip_clv(pa, 2, tip2);
  newview(tip1, BranchP::at(model, t1), tip2, BranchP::at(model, t2),
          internal);
  const double lnl = evaluate(internal, [&] {
    Clv<double> t;
    init_tip_clv(pa, 0, t);
    return t;
  }(), BranchP::at(model, t0), model, pa.weights());

  double want = 0.0;
  for (int p = 0; p < pa.patterns(); ++p) {
    want += pa.weights()[static_cast<std::size_t>(p)] *
            std::log(brute_force_star(pa, model, p, t0, t1, t2));
  }
  EXPECT_NEAR(lnl, want, 1e-9 * std::fabs(want));
}

TEST_F(KernelTest, NewviewIsSymmetricInChildren) {
  Clv<double> tip1, tip2, a, b;
  init_tip_clv(pa, 1, tip1);
  init_tip_clv(pa, 2, tip2);
  const BranchP p1 = BranchP::at(model, 0.2);
  const BranchP p2 = BranchP::at(model, 0.4);
  newview(tip1, p1, tip2, p2, a);
  newview(tip2, p2, tip1, p1, b);
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.data[i], b.data[i]);
  }
}

TEST_F(KernelTest, ScalingTriggersOnDeepChains) {
  // Chain enough newviews with long branches and the per-pattern values
  // drop below 2^-256; scaling must keep them finite and counted.
  Clv<double> left, right;
  init_tip_clv(pa, 0, left);
  init_tip_clv(pa, 1, right);
  const BranchP p = BranchP::at(model, 0.5);
  Clv<double> acc;
  newview(left, p, right, p, acc);
  // Joining a subtree with itself squares the CLV magnitude each step, the
  // balanced-tree growth that makes scaling necessary in practice.
  for (int i = 0; i < 12; ++i) {
    Clv<double> next;
    newview(acc, p, acc, p, next);
    acc = std::move(next);
  }
  int total_scale = 0;
  for (int pat = 0; pat < acc.patterns(); ++pat) {
    total_scale += acc.scale[static_cast<std::size_t>(pat)];
    for (int r = 0; r < kRateCategories; ++r) {
      for (int s = 0; s < 4; ++s) {
        const double v = acc.data[(static_cast<std::size_t>(pat) *
                                   kRateCategories +
                                   static_cast<std::size_t>(r)) * kStates +
                                  static_cast<std::size_t>(s)];
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_GE(v, 0.0);
      }
    }
  }
  EXPECT_GT(total_scale, 0);
}

TEST_F(KernelTest, ScaledAndUnscaledLikelihoodsAgree) {
  // Two ways to compute the same tree: directly, and with an extra chain
  // that triggers scaling.  The log-likelihood corrections must cancel.
  Clv<double> tip0, tip1, tip2;
  init_tip_clv(pa, 0, tip0);
  init_tip_clv(pa, 1, tip1);
  init_tip_clv(pa, 2, tip2);
  const BranchP pshort = BranchP::at(model, 1e-9);
  Clv<double> chained = tip1;
  // "Identity" newviews with the *same* data: P(~0) = I, so values square
  // each step against an all-ones sibling... instead chain against an
  // all-gap tip (all ones) which leaves values unchanged except scaling.
  Clv<double> ones;
  ones.resize(pa.patterns(), kRateCategories);
  for (auto& v : ones.data) v = 1.0;
  for (int i = 0; i < 5; ++i) {
    Clv<double> next;
    newview(chained, pshort, ones, pshort, next);
    chained = std::move(next);
  }
  const BranchP proot = BranchP::at(model, 0.25);
  Clv<double> joined_a, joined_b;
  newview(tip0, BranchP::at(model, 0.1), chained, BranchP::at(model, 0.2),
          joined_a);
  newview(tip0, BranchP::at(model, 0.1), tip1, BranchP::at(model, 0.2),
          joined_b);
  const double la = evaluate(joined_a, tip2, proot, model, pa.weights());
  const double lb = evaluate(joined_b, tip2, proot, model, pa.weights());
  EXPECT_NEAR(la, lb, 1e-6 * std::fabs(lb));
}

TEST_F(KernelTest, SumtableLoglikMatchesEvaluate) {
  Clv<double> tip1, tip2, internal, tip0;
  init_tip_clv(pa, 0, tip0);
  init_tip_clv(pa, 1, tip1);
  init_tip_clv(pa, 2, tip2);
  newview(tip1, BranchP::at(model, 0.3), tip2, BranchP::at(model, 0.08),
          internal);
  std::vector<double> sumtable;
  make_sumtable(internal, tip0, model, sumtable);
  std::vector<int> scale_sum(static_cast<std::size_t>(pa.patterns()), 0);
  for (double t : {0.01, 0.12, 0.5, 2.0}) {
    const double via_sumtable =
        sumtable_loglik(sumtable, scale_sum, model, pa.weights(), t);
    const double via_evaluate =
        evaluate(internal, tip0, BranchP::at(model, t), model, pa.weights());
    EXPECT_NEAR(via_sumtable, via_evaluate, 1e-8 * std::fabs(via_evaluate))
        << "t=" << t;
  }
}

TEST_F(KernelTest, NewtonFindsTheMaximum) {
  Clv<double> tip1, tip2, internal, tip0;
  init_tip_clv(pa, 0, tip0);
  init_tip_clv(pa, 1, tip1);
  init_tip_clv(pa, 2, tip2);
  newview(tip1, BranchP::at(model, 0.3), tip2, BranchP::at(model, 0.08),
          internal);
  std::vector<double> sumtable;
  make_sumtable(internal, tip0, model, sumtable);
  std::vector<int> scale_sum(static_cast<std::size_t>(pa.patterns()), 0);

  int iters = 0;
  std::vector<double> scratch;
  const double topt = newton_branch_length(sumtable, model, pa.weights(), 0.1,
                                           scratch, 32, &iters);
  EXPECT_GT(iters, 0);
  const double lopt =
      sumtable_loglik(sumtable, scale_sum, model, pa.weights(), topt);
  // Optimum beats a grid of alternatives.
  for (double t = 0.005; t < 2.0; t *= 1.5) {
    EXPECT_GE(lopt + 1e-7,
              sumtable_loglik(sumtable, scale_sum, model, pa.weights(), t))
        << "t=" << t;
  }
}

TEST_F(KernelTest, NewtonConvergesFromFarStarts) {
  Clv<double> tip1, tip2, internal, tip0;
  init_tip_clv(pa, 0, tip0);
  init_tip_clv(pa, 1, tip1);
  init_tip_clv(pa, 2, tip2);
  newview(tip1, BranchP::at(model, 0.3), tip2, BranchP::at(model, 0.08),
          internal);
  std::vector<double> sumtable;
  make_sumtable(internal, tip0, model, sumtable);
  std::vector<double> scratch;

  const double t_ref =
      newton_branch_length(sumtable, model, pa.weights(), 0.1, scratch);
  for (double t0 : {1e-6, 0.001, 1.0, 10.0}) {
    const double t =
        newton_branch_length(sumtable, model, pa.weights(), t0, scratch);
    EXPECT_NEAR(t, t_ref, 1e-4) << "start=" << t0;
  }
}

TEST_F(KernelTest, MismatchedPatternsThrow) {
  Clv<double> small, big;
  small.resize(2, kRateCategories);
  big.resize(3, kRateCategories);
  Clv<double> out;
  const BranchP p = BranchP::at(model, 0.1);
  EXPECT_THROW(newview(small, p, big, p, out), std::invalid_argument);
  EXPECT_THROW(evaluate(small, big, p, model, {1.0, 1.0}),
               std::invalid_argument);
  std::vector<double> st;
  EXPECT_THROW(make_sumtable(small, big, model, st), std::invalid_argument);
}

}  // namespace
}  // namespace cbe::phylo
