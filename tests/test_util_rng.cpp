#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace cbe::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double s = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) s += rng.uniform();
  EXPECT_NEAR(s / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelow) {
  Rng rng(5);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000000007ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    hit_lo |= v == -2;
    hit_hi |= v == 2;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 200000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    s += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s / n, 0.0, 0.02);
  EXPECT_NEAR(s2 / n, 1.0, 0.03);
}

TEST(Rng, LognormalMeanMatches) {
  Rng rng(17);
  const int n = 200000;
  double s = 0.0;
  for (int i = 0; i < n; ++i) s += rng.lognormal_mean_cv(96.0, 0.3);
  EXPECT_NEAR(s / n, 96.0, 1.0);
}

TEST(Rng, LognormalCvMatches) {
  Rng rng(19);
  const int n = 200000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.lognormal_mean_cv(50.0, 0.4);
    s += x;
    s2 += x * x;
  }
  const double mean = s / n;
  const double var = s2 / n - mean * mean;
  EXPECT_NEAR(std::sqrt(var) / mean, 0.4, 0.02);
}

TEST(Rng, LognormalZeroCvIsDeterministic) {
  Rng rng(23);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(42.0, 0.0), 42.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(29);
  const int n = 200000;
  double s = 0.0;
  for (int i = 0; i < n; ++i) s += rng.exponential(3.0);
  EXPECT_NEAR(s / n, 3.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(41);
  Rng a = parent.split();
  Rng b = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ResumesFromState) {
  Rng a(43);
  (void)a.normal();  // leaves the Box-Muller partner cached
  Rng b(a.state());
  EXPECT_EQ(b.state(), a.state());
  EXPECT_EQ(b.normal(), a.normal());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b(), a());
}

TEST(Splitmix, KnownFirstValueNonzeroAndDeterministic) {
  std::uint64_t s1 = 0, s2 = 0;
  const auto v1 = splitmix64(s1);
  const auto v2 = splitmix64(s2);
  EXPECT_EQ(v1, v2);
  EXPECT_NE(v1, 0u);
  EXPECT_NE(splitmix64(s1), v1);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, BitsLookBalanced) {
  Rng rng(GetParam());
  int ones = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) ones += __builtin_popcountll(rng());
  // 64000 bits, expect ~32000 ones.
  EXPECT_NEAR(ones, 32000, 1000);
}

TEST_P(RngSeedSweep, UniformNeverEscapesUnitInterval) {
  Rng rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull, 0xdeadbeefull,
                                           ~0ull));

}  // namespace
}  // namespace cbe::util
