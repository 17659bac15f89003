// Shared plumbing for the table/figure reproduction benches: default
// workload settings, paper reference values, and run helpers.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "bench_report.hpp"
#include "runtime/mgps.hpp"
#include "runtime/policy.hpp"
#include "runtime/sim_runtime.hpp"
#include "task/synthetic.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace cbe::bench {

/// Opt-in per-run metrics export: `--metrics=<file>` attaches one shared
/// registry to every RunConfig passed through attach() and writes the
/// aggregated metrics JSON at scope exit (counters and histograms accumulate
/// across runs; gauges keep the last run's value).  Without the flag,
/// attach() is a no-op and nothing is written.
class MetricsExport {
 public:
  explicit MetricsExport(const util::Cli& cli)
      : path_(cli.get("metrics", "")) {}
  ~MetricsExport() { finish(); }
  MetricsExport(const MetricsExport&) = delete;
  MetricsExport& operator=(const MetricsExport&) = delete;

  void attach(rt::RunConfig& cfg) {
    if (!path_.empty()) cfg.metrics = &registry_;
  }
  bool enabled() const noexcept { return !path_.empty(); }

  /// Writes the export (once) and reports success, so mains can turn an I/O
  /// failure into a non-zero exit instead of a buried stderr line.  The
  /// destructor calls this as a fallback; no-op without `--metrics`.
  bool finish() {
    if (path_.empty() || finished_) return ok_;
    finished_ = true;
    ok_ = trace::write_file(path_, registry_.to_json());
    if (ok_) {
      std::fprintf(stderr, "metrics: wrote %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "metrics: failed to write %s\n", path_.c_str());
    }
    return ok_;
  }

 private:
  std::string path_;
  trace::MetricsRegistry registry_;
  bool finished_ = false;
  bool ok_ = true;
};

/// Stamps the shared workload/machine knobs into a report's config block so
/// config_hash pins the measured workload.
inline void report_common_config(BenchReport& r,
                                 const task::SyntheticConfig& scfg,
                                 const rt::RunConfig& rcfg) {
  r.config("tasks", static_cast<long long>(scfg.tasks_per_bootstrap));
  r.config("seed", static_cast<long long>(scfg.seed));
  r.config("cv", scfg.duration_cv);
  r.config("smt_slowdown", rcfg.cell.smt_slowdown);
  r.config("dispatch_us", rcfg.cell.dispatch_us);
}

/// Usage-string vocabulary for the shared workload/machine flags consumed
/// by synthetic_config() and run_config(); a bench appends its own extras
/// and passes the result to Cli::enforce_usage_or_exit once every flag has
/// been queried.
inline std::string common_usage(const char* prog,
                                const std::string& extra = "") {
  std::string u = std::string(prog) +
                  " [--tasks=N] [--seed=S] [--cv=X] [--smt-slowdown=X]"
                  " [--dispatch-us=X]";
  if (!extra.empty()) u += " " + extra;
  return u;
}

/// Builds the synthetic 42_SC-calibrated workload used by the scheduler
/// benches.  `--tasks` overrides the scaled-down per-bootstrap task count
/// (the paper's full-fidelity count is ~267k tasks per bootstrap).
inline task::SyntheticConfig synthetic_config(const util::Cli& cli) {
  task::SyntheticConfig cfg;
  cfg.tasks_per_bootstrap =
      static_cast<int>(cli.get_int("tasks", cfg.tasks_per_bootstrap));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  cfg.duration_cv = cli.get_double("cv", cfg.duration_cv);
  return cfg;
}

inline rt::RunConfig run_config(const util::Cli& cli, int cells = 1) {
  rt::RunConfig cfg;
  cfg.cell.num_cells = cells;
  cfg.cell.smt_slowdown =
      cli.get_double("smt-slowdown", cfg.cell.smt_slowdown);
  cfg.cell.dispatch_us = cli.get_double("dispatch-us", cfg.cell.dispatch_us);
  return cfg;
}

/// Runs `policy` over a B-bootstrap synthetic workload and returns seconds.
inline rt::RunResult run_bootstraps(int bootstraps,
                                    rt::SchedulerPolicy& policy,
                                    const task::SyntheticConfig& scfg,
                                    const rt::RunConfig& rcfg) {
  const task::Workload wl = task::make_synthetic(bootstraps, scfg);
  return rt::run_workload(wl, policy, rcfg);
}

}  // namespace cbe::bench
