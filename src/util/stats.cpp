#include "util/stats.hpp"

#include <algorithm>

namespace cbe::util {

double mean(const std::vector<double>& v) noexcept {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double p) noexcept {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, p);
}

double percentile_sorted(const std::vector<double>& v, double p) noexcept {
  if (v.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) noexcept {
  return percentile(std::move(v), 50.0);
}

}  // namespace cbe::util
