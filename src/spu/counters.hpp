// Operation accounting.
//
// The reproduction cannot time kernels on a real SPU, so per-task costs are
// *modeled*: each likelihood kernel has a closed-form operation-count formula
// (next to its implementation), and `PipelineModel` converts counts into
// cycles under a given optimization level.  `Counting<double>` is a numeric
// wrapper that tallies the operations a kernel actually performs, used by
// property tests to pin the formulas to the real code.
#pragma once

#include <cmath>

namespace cbe::spu {

/// Element-wise (per scalar result) operation counts for one kernel call.
struct OpCounts {
  double fp_mul = 0;    ///< double-precision multiplies
  double fp_add = 0;    ///< adds/subs
  double fp_div = 0;    ///< divides (expensive on SPU)
  double exp_calls = 0; ///< calls to exp()
  double log_calls = 0; ///< calls to log()
  double loads = 0;     ///< 8-byte loads
  double stores = 0;    ///< 8-byte stores
  double int_ops = 0;   ///< index arithmetic
  double branches = 0;  ///< data-dependent conditional branches

  OpCounts& operator+=(const OpCounts& o) noexcept {
    fp_mul += o.fp_mul;
    fp_add += o.fp_add;
    fp_div += o.fp_div;
    exp_calls += o.exp_calls;
    log_calls += o.log_calls;
    loads += o.loads;
    stores += o.stores;
    int_ops += o.int_ops;
    branches += o.branches;
    return *this;
  }
  friend OpCounts operator+(OpCounts a, const OpCounts& b) noexcept {
    a += b;
    return a;
  }
};

/// Thread-local tally written by Counting<T> arithmetic.
struct OpTally {
  long long mul = 0, add = 0, div = 0, exp_c = 0, log_c = 0, cmp = 0;
  void reset() noexcept { *this = OpTally{}; }
};

OpTally& tally() noexcept;

/// Numeric wrapper that counts arithmetic.  Only the operations the
/// likelihood kernels use are provided; tests instantiate the kernels with
/// Counting<double> and compare the tally against the OpCounts formulas.
template <typename T>
struct Counting {
  T v{};

  Counting() = default;
  Counting(T x) : v(x) {}  // NOLINT(google-explicit-constructor)

  friend Counting operator+(Counting a, Counting b) {
    ++tally().add;
    return Counting(a.v + b.v);
  }
  friend Counting operator-(Counting a, Counting b) {
    ++tally().add;
    return Counting(a.v - b.v);
  }
  friend Counting operator*(Counting a, Counting b) {
    ++tally().mul;
    return Counting(a.v * b.v);
  }
  friend Counting operator/(Counting a, Counting b) {
    ++tally().div;
    return Counting(a.v / b.v);
  }
  Counting& operator+=(Counting b) { return *this = *this + b; }
  Counting& operator-=(Counting b) { return *this = *this - b; }
  Counting& operator*=(Counting b) { return *this = *this * b; }
  Counting& operator/=(Counting b) { return *this = *this / b; }
  friend bool operator<(Counting a, Counting b) {
    ++tally().cmp;
    return a.v < b.v;
  }
  friend bool operator>(Counting a, Counting b) {
    ++tally().cmp;
    return a.v > b.v;
  }
  friend Counting exp(Counting a) {
    ++tally().exp_c;
    return Counting(std::exp(a.v));
  }
  friend Counting log(Counting a) {
    ++tally().log_c;
    return Counting(std::log(a.v));
  }
};

}  // namespace cbe::spu
