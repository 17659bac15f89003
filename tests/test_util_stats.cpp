#include "util/stats.hpp"

#include <gtest/gtest.h>

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

TEST(BatchStats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

}  // namespace
}  // namespace cbe::util
