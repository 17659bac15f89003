// Simulated time as a strong int64 nanosecond type.  Nanosecond resolution
// covers the Cell's 3.2 GHz clock (0.3125 ns/cycle) well enough once costs
// are expressed as fractional-cycle aggregates, and int64 ns spans ~292
// simulated years without overflow.
#pragma once

#include <cstdint>
#include <ostream>

namespace cbe::sim {

class Time {
 public:
  constexpr Time() noexcept : ns_(0) {}

  static constexpr Time ns(std::int64_t v) noexcept { return Time(v); }
  static constexpr Time us(double v) noexcept {
    return Time(static_cast<std::int64_t>(v * 1e3));
  }
  static constexpr Time ms(double v) noexcept {
    return Time(static_cast<std::int64_t>(v * 1e6));
  }
  static constexpr Time sec(double v) noexcept {
    return Time(static_cast<std::int64_t>(v * 1e9));
  }
  static constexpr Time max() noexcept { return Time(INT64_MAX); }

  constexpr std::int64_t nanoseconds() const noexcept { return ns_; }
  constexpr double to_us() const noexcept {
    return static_cast<double>(ns_) * 1e-3;
  }
  constexpr double to_seconds() const noexcept {
    return static_cast<double>(ns_) * 1e-9;
  }

  friend constexpr Time operator+(Time a, Time b) noexcept {
    return Time(a.ns_ + b.ns_);
  }
  friend constexpr Time operator-(Time a, Time b) noexcept {
    return Time(a.ns_ - b.ns_);
  }
  friend constexpr Time operator*(Time a, double k) noexcept {
    return Time(static_cast<std::int64_t>(static_cast<double>(a.ns_) * k));
  }
  friend constexpr Time operator*(double k, Time a) noexcept { return a * k; }
  friend constexpr double operator/(Time a, Time b) noexcept {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }
  Time& operator+=(Time b) noexcept {
    ns_ += b.ns_;
    return *this;
  }

  friend constexpr bool operator==(Time a, Time b) noexcept {
    return a.ns_ == b.ns_;
  }
  friend constexpr auto operator<=>(Time a, Time b) noexcept {
    return a.ns_ <=> b.ns_;
  }

  friend std::ostream& operator<<(std::ostream& os, Time t) {
    return os << t.to_seconds() << "s";
  }

 private:
  constexpr explicit Time(std::int64_t ns) noexcept : ns_(ns) {}
  std::int64_t ns_;
};

/// Converts a cycle count at `ghz` into simulated time (rounded up so any
/// nonzero work consumes at least 1 ns).
inline Time cycles_to_time(double cycles, double ghz) noexcept {
  if (cycles <= 0.0) return Time();
  const double ns = cycles / ghz;
  auto v = static_cast<std::int64_t>(ns);
  if (static_cast<double>(v) < ns) ++v;
  return Time::ns(v < 1 ? 1 : v);
}

}  // namespace cbe::sim
