// Standardized machine-readable bench results (schema "cbe-bench-v1"),
// consumed by tools/bench_diff for regression gating.  Kept free of runtime
// dependencies so every bench binary — including the google-benchmark micro
// suite and the checkpoint bench — can emit a report.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/stats.hpp"

namespace cbe::bench {

/// `--json` writes BENCH_<name>.json in the working directory;
/// `--json=<file>` overrides the path.  Without the flag everything is a
/// no-op.
///
/// The emitted object records the exact workload knobs (`config` plus a
/// CRC-32 `config_hash` so bench_diff refuses apples-to-oranges compares),
/// the repetition count, per-series median/p10/p90 wall times in integer
/// nanoseconds, and — when the bench captured a trace — the makespan
/// attribution summary from the analysis library.
class BenchReport {
 public:
  BenchReport(const util::Cli& cli, const std::string& bench_name)
      : bench_(bench_name) {
    const std::string v = cli.get("json", "");
    // A bare `--json` parses as "true": use the standardized default name.
    path_ = v == "true" ? "BENCH_" + bench_name + ".json" : v;
  }

  bool enabled() const noexcept { return !path_.empty(); }

  void config(const std::string& key, const std::string& value) {
    config_[key] = "\"" + value + "\"";
  }
  void config(const std::string& key, long long value) {
    config_[key] = std::to_string(value);
  }
  void config(const std::string& key, int value) {
    config_[key] = std::to_string(value);
  }
  void config(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    config_[key] = buf;
  }

  void set_repetitions(int reps) noexcept { repetitions_ = reps; }

  /// Appends one wall-time sample (seconds) to the named series.
  void add_sample(const std::string& series, double seconds) {
    for (auto& s : series_) {
      if (s.name == series) {
        s.seconds.push_back(seconds);
        return;
      }
    }
    series_.push_back(Series{series, {seconds}});
  }

  /// Attaches the attribution summary of a representative traced run.
  void attribution(const analysis::Attribution& at) {
    has_attribution_ = true;
    attribution_ = at;
  }

  /// Records a named integer counter (fault/integrity totals from a
  /// representative run).  Emitted as a top-level "counters" object;
  /// bench_diff ignores unknown top-level keys, so counters inform humans
  /// and dashboards without participating in the regression gate.
  void counter(const std::string& name, std::uint64_t value) {
    counters_[name] = value;
  }

  /// CRC-32 over the sorted "key=value\n" config lines: two reports compare
  /// only when they measured the same workload.
  std::uint32_t config_hash() const noexcept {
    std::uint32_t h = 0;
    for (const auto& [k, v] : config_) {
      const std::string line = k + "=" + v + "\n";
      h = util::crc32(line.data(), line.size(), h);
    }
    return h;
  }

  std::string to_json() const {
    auto ns = [](double seconds) {
      return static_cast<long long>(std::llround(seconds * 1e9));
    };
    std::string o = "{\n";
    o += "\"schema\":\"cbe-bench-v1\",\n";
    o += "\"bench\":\"" + bench_ + "\",\n";
    o += "\"config\":{";
    bool first = true;
    for (const auto& [k, v] : config_) {
      if (!first) o += ",";
      first = false;
      o += "\"" + k + "\":" + v;
    }
    o += "},\n";
    o += "\"config_hash\":" + std::to_string(config_hash()) + ",\n";
    o += "\"repetitions\":" + std::to_string(repetitions_) + ",\n";
    o += "\"results\":[\n";
    for (std::size_t i = 0; i < series_.size(); ++i) {
      const Series& s = series_[i];
      o += "{\"name\":\"" + s.name + "\"";
      o += ",\"n\":" + std::to_string(s.seconds.size());
      o += ",\"median_ns\":" + std::to_string(ns(util::median(s.seconds)));
      o += ",\"p10_ns\":" +
           std::to_string(ns(util::percentile(s.seconds, 10)));
      o += ",\"p90_ns\":" +
           std::to_string(ns(util::percentile(s.seconds, 90)));
      o += "}";
      if (i + 1 < series_.size()) o += ",";
      o += "\n";
    }
    o += "]";
    if (!counters_.empty()) {
      o += ",\n\"counters\":{";
      bool first_c = true;
      for (const auto& [k, v] : counters_) {
        if (!first_c) o += ",";
        first_c = false;
        o += "\"" + k + "\":" + std::to_string(v);
      }
      o += "}";
    }
    if (has_attribution_) {
      const analysis::Attribution& at = attribution_;
      auto field = [](const char* k, std::int64_t v) {
        return std::string("\"") + k + "\":" + std::to_string(v);
      };
      o += ",\n\"attribution\":{" + field("makespan_ns", at.makespan_ns) +
           "," + field("spe_compute_ns", at.spe_compute_ns) + "," +
           field("dma_ns", at.dma_ns) + "," +
           field("ctx_switch_ns", at.ctx_switch_ns) + "," +
           field("signal_ns", at.signal_ns) + "," +
           field("recovery_ns", at.recovery_ns) + "," +
           field("queue_ns", at.queue_ns) + "," +
           field("ppe_ns", at.ppe_ns) + "," + field("sum_ns", at.sum()) + "}";
    }
    o += "\n}\n";
    return o;
  }

  /// Writes the report (once); returns false on I/O failure so the bench can
  /// exit non-zero.  No-op (true) when `--json` was not given.
  bool write() {
    if (path_.empty() || written_) return ok_;
    written_ = true;
    ok_ = trace::write_file(path_, to_json());
    if (ok_) {
      std::fprintf(stderr, "bench: wrote %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "bench: failed to write %s\n", path_.c_str());
    }
    return ok_;
  }

 private:
  struct Series {
    std::string name;
    std::vector<double> seconds;
  };
  std::string bench_;
  std::string path_;
  std::map<std::string, std::string> config_;  // key -> rendered JSON value
  int repetitions_ = 1;
  std::vector<Series> series_;
  std::map<std::string, std::uint64_t> counters_;
  bool has_attribution_ = false;
  analysis::Attribution attribution_;
  bool written_ = false;
  bool ok_ = true;
};

/// Folds a representative traced run into the report's attribution summary.
inline void report_attribution(BenchReport& r, const trace::TraceSink& sink) {
  if (!sink.empty()) {
    r.attribution(analysis::attribute_makespan(sink.events(), -1));
  }
}

}  // namespace cbe::bench
