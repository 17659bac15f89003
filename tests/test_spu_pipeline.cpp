#include "spu/pipeline.hpp"

#include <gtest/gtest.h>

namespace cbe::spu {
namespace {

OpCounts sample_ops() {
  OpCounts c;
  c.fp_mul = 1000;
  c.fp_add = 800;
  c.fp_div = 10;
  c.exp_calls = 5;
  c.log_calls = 3;
  c.loads = 500;
  c.stores = 200;
  c.int_ops = 100;
  c.branches = 50;
  return c;
}

TEST(OpCounts, AdditionIsElementwise) {
  OpCounts a = sample_ops();
  OpCounts b = sample_ops();
  const OpCounts s = a + b;
  EXPECT_DOUBLE_EQ(s.fp_mul, 2000.0);
  EXPECT_DOUBLE_EQ(s.fp_add, 1600.0);
  EXPECT_DOUBLE_EQ(s.branches, 100.0);
}

TEST(Pipeline, EachOptimizationHelps) {
  const OpCounts ops = sample_ops();
  OptFlags naive = OptFlags::naive();
  OptFlags vec = naive;
  vec.vectorized = true;
  OptFlags vec_br = vec;
  vec_br.branch_free = true;
  OptFlags all = OptFlags::optimized();
  const double t_naive = spu_cycles(ops, naive);
  const double t_vec = spu_cycles(ops, vec);
  const double t_vec_br = spu_cycles(ops, vec_br);
  const double t_all = spu_cycles(ops, all);
  EXPECT_GT(t_naive, t_vec);
  EXPECT_GT(t_vec, t_vec_br);
  EXPECT_GT(t_vec_br, t_all);
}

TEST(Pipeline, FastMathOnlyAffectsTranscendentals) {
  OpCounts ops;
  ops.fp_mul = 100;
  OptFlags with_math = OptFlags::naive();
  with_math.fast_math = true;
  EXPECT_DOUBLE_EQ(spu_cycles(ops, OptFlags::naive()),
                   spu_cycles(ops, with_math));
  ops.exp_calls = 10;
  EXPECT_GT(spu_cycles(ops, OptFlags::naive()), spu_cycles(ops, with_math));
}

TEST(Pipeline, BranchFlagOnlyAffectsBranches) {
  OpCounts ops;
  ops.fp_mul = 100;
  OptFlags br = OptFlags::naive();
  br.branch_free = true;
  EXPECT_DOUBLE_EQ(spu_cycles(ops, OptFlags::naive()), spu_cycles(ops, br));
  ops.branches = 10;
  EXPECT_GT(spu_cycles(ops, OptFlags::naive()), spu_cycles(ops, br));
}

TEST(Pipeline, CyclesLinearInCounts) {
  const OpCounts ops = sample_ops();
  const double one = spu_cycles(ops, OptFlags::optimized());
  const double two = spu_cycles(ops + ops, OptFlags::optimized());
  EXPECT_NEAR(two, 2.0 * one, 1e-9);
  EXPECT_NEAR(ppe_cycles(ops + ops), 2.0 * ppe_cycles(ops), 1e-9);
}

TEST(Pipeline, EmptyCountsCostNothing) {
  EXPECT_DOUBLE_EQ(spu_cycles(OpCounts{}, OptFlags::naive()), 0.0);
  EXPECT_DOUBLE_EQ(ppe_cycles(OpCounts{}), 0.0);
}

TEST(Pipeline, CalibrationAnchorsHold) {
  // The Section 5.1 anchors: fp-heavy kernels must be faster than the PPE
  // when fully optimized, slower when naive (see DESIGN.md).
  OpCounts ops;
  ops.fp_mul = 36.0 * 4;  // one newview pattern
  ops.fp_add = 24.0 * 4;
  ops.branches = 17.0;
  ops.loads = 32.0;
  ops.stores = 16.0;
  ops.int_ops = 32.0;
  const double ppe = ppe_cycles(ops);
  EXPECT_GT(spu_cycles(ops, OptFlags::naive()), ppe);
  EXPECT_LT(spu_cycles(ops, OptFlags::optimized()), ppe);
}

TEST(Tally, CountingWrapperRecordsOps) {
  tally().reset();
  Counting<double> a(2.0), b(3.0);
  Counting<double> c = a * b + a - b;
  c /= a;
  (void)(a < b);
  (void)exp(a);
  (void)log(b);
  EXPECT_EQ(tally().mul, 1);
  EXPECT_EQ(tally().add, 2);  // + and -
  EXPECT_EQ(tally().div, 1);
  EXPECT_EQ(tally().cmp, 1);
  EXPECT_EQ(tally().exp_c, 1);
  EXPECT_EQ(tally().log_c, 1);
  EXPECT_DOUBLE_EQ(c.v, (2.0 * 3.0 + 2.0 - 3.0) / 2.0);
}

TEST(Tally, ResetClears) {
  tally().reset();
  Counting<double> a(1.0);
  (void)(a + a);
  tally().reset();
  EXPECT_EQ(tally().add, 0);
}

}  // namespace
}  // namespace cbe::spu
