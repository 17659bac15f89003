#include "trace/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cbe::trace {

void Histogram::observe(double v) {
  std::lock_guard lock(mu_);
  samples_.push_back(v);
  sum_ += v;
  sorted_ = false;
}

std::uint64_t Histogram::count() const {
  std::lock_guard lock(mu_);
  return samples_.size();
}

double Histogram::sum() const {
  std::lock_guard lock(mu_);
  return sum_;
}

double Histogram::min() const { return percentile(0.0); }

double Histogram::max() const { return percentile(100.0); }

double Histogram::percentile(double p) const {
  std::lock_guard lock(mu_);
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (p <= 0.0) return samples_.front();
  if (p >= 100.0) return samples_.back();
  // Nearest rank: the ceil(p/100 * n)-th smallest sample, 1-based.
  const auto n = static_cast<double>(samples_.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank < 1) rank = 1;
  return samples_[rank - 1];
}

void Histogram::reset() {
  std::lock_guard lock(mu_);
  samples_.clear();
  sum_ = 0.0;
  sorted_ = true;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

namespace {

void append_number(std::string& out, double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
  }
  out += buf;
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::lock_guard lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(c->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": ";
    append_number(out, g->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"count\": " + std::to_string(h->count());
    out += ", \"sum\": ";
    append_number(out, h->sum());
    out += ", \"min\": ";
    append_number(out, h->min());
    out += ", \"max\": ";
    append_number(out, h->max());
    out += ", \"p50\": ";
    append_number(out, h->percentile(50.0));
    out += ", \"p90\": ";
    append_number(out, h->percentile(90.0));
    out += ", \"p99\": ";
    append_number(out, h->percentile(99.0));
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace cbe::trace
