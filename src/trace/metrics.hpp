// Metrics: named counters, gauges and histograms collected during a run and
// exportable as JSON (see DESIGN.md "Observability").
//
// Thread-safety: counters and gauges are single atomics, histograms take a
// per-histogram mutex on observe, and the registry locks only on name
// lookup/creation — callers cache the returned references, so the native
// pool's workers never contend on the registry map itself.  All handles stay
// valid for the registry's lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cbe::trace {

/// Monotonic counter.  Increments wrap modulo 2^64 (unsigned overflow is
/// well-defined); reset() rearms it at zero.
class Counter {
 public:
  void add(std::uint64_t d = 1) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Sample-storing histogram with nearest-rank percentiles: percentile(p)
/// returns the ceil(p/100 * n)-th smallest sample (the minimum for p <= 0,
/// the maximum for p >= 100).  Exact rather than bucketed — run-scale sample
/// counts here are small enough that storing them beats approximating.
class Histogram {
 public:
  void observe(double v);
  std::uint64_t count() const;
  double sum() const;
  double min() const;  ///< 0 when empty
  double max() const;  ///< 0 when empty
  double percentile(double p) const;  ///< 0 when empty; p in [0, 100]
  void reset();

 private:
  mutable std::mutex mu_;
  mutable std::vector<double> samples_;  ///< sorted lazily by percentile()
  mutable bool sorted_ = true;
  double sum_ = 0.0;
};

/// Name -> metric map.  Get-or-create by name; names are reported in sorted
/// order by to_json() so exports are deterministic.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// One JSON object: counters as integers, gauges as numbers, histograms
  /// as {count, sum, min, max, p50, p90, p99}.
  std::string to_json() const;

  /// Resets every registered metric (the metrics stay registered).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace cbe::trace
