// Batch statistics used by the job service and the benchmark harnesses.
#pragma once

#include <vector>

namespace cbe::util {

/// Batch helpers (copy the input; fine for bench-sized data).
double mean(const std::vector<double>& v) noexcept;
/// Linear-interpolated percentile, p in [0,100].  Empty input returns 0.
double percentile(std::vector<double> v, double p) noexcept;
/// percentile() of an already ascending-sorted `sorted`, without the copy
/// and sort: several percentiles of one sample set share one sort.
double percentile_sorted(const std::vector<double>& sorted, double p) noexcept;
double median(std::vector<double> v) noexcept;

}  // namespace cbe::util
