#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "util/rng.hpp"

namespace cbe::util {
namespace {

TEST(BatchStats, EmptyVectors) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(BatchStats, PercentileEndpoints) {
  std::vector<double> v = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.0);
}

TEST(BatchStats, PercentileInterpolates) {
  std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 75.0), 7.5);
}

TEST(BatchStats, PercentileClampsOutOfRange) {
  std::vector<double> v = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, -10.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 200.0), 2.0);
}

TEST(BatchStats, PercentileSortedMatchesPercentileBitForBit) {
  Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    std::vector<double> v(rng.below(64));
    for (double& x : v) x = rng.lognormal_mean_cv(1.0, 2.0);
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 1.0, 37.5, 50.0, 90.0, 99.0, 100.0,
                     rng.uniform(-10.0, 110.0)}) {
      const double a = percentile(v, p);
      const double b = percentile_sorted(sorted, p);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
          << "n=" << v.size() << " p=" << p << ": " << a << " vs " << b;
    }
  }
}

TEST(BatchStats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

}  // namespace
}  // namespace cbe::util
