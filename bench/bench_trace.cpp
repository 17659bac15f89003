// Observability-overhead benchmark (DESIGN.md §12): what the always-on
// flight recorder costs compared to running blind, and what full tracing
// costs compared to both, over an identical seeded job-service workload.
//
// Series (cbe-bench-v1):
//   off_wall        service run with no trace sink at all
//   recorder_wall   same run with a bounded trace::TraceSink (--ring events)
//                   as the sink: the always-on flight recorder
//   full_wall       same run with an unbounded trace::TraceSink (what
//                   --trace costs)
//   ratio/recorder_over_off, ratio/full_over_off
//                   median wall-time ratios in permille (1000 = parity,
//                   1050 = 5% overhead) — dimensionless, machine-portable,
//                   CI-gated via bench_diff --only=ratio/ --threshold=0.05,
//                   which holds the recorder to its <= 5% overhead budget
//
// The counters object surfaces the recorder's recorded/overwritten totals
// from the last recorder rep, so a report shows how hard the ring actually
// worked (overwritten >> 0 means the bounded buffer really was the cheap
// path, not an idle one).
//
//   build/bench/bench_trace [--jobs=N] [--blades=N] [--slots=N] [--reps=N]
//       [--ring=N] [--seed=S] [--blade-fail-rate=P] [--json[=F]]
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_report.hpp"
#include "jobsvc/service.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

using namespace cbe;

double run_once(const jobsvc::ServiceConfig& cfg,
                const std::vector<jobsvc::JobSpec>& specs) {
  jobsvc::Service svc(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const jobsvc::ServiceReport rep = svc.run(specs);
  const auto t1 = std::chrono::steady_clock::now();
  if (rep.submitted != static_cast<std::uint64_t>(specs.size())) {
    std::fprintf(stderr, "bench_trace: run lost jobs\n");
    std::exit(1);
  }
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int jobs = static_cast<int>(cli.get_int("jobs", 512));
  const int blades = static_cast<int>(cli.get_int("blades", 8));
  const int slots = static_cast<int>(cli.get_int("slots", 4));
  const int reps = static_cast<int>(cli.get_int("reps", 5));
  const auto ring = static_cast<int>(
      cli.get_count("ring", 4096, 4096, trace::TraceSink::kMaxCapacity));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));
  const double blade_fail_rate = cli.get_double("blade-fail-rate", 0.4);
  bench::BenchReport report(cli, "trace");
  cli.enforce_usage_or_exit(
      "bench_trace [--jobs=N] [--blades=N] [--slots=N] [--reps=N] [--ring=N]"
      " [--seed=S] [--blade-fail-rate=P] [--json[=F]]");
  report.config("jobs", jobs);
  report.config("blades", blades);
  report.config("slots", slots);
  report.config("ring", ring);
  report.config("seed", static_cast<long long>(seed));
  report.config("blade_fail_rate", blade_fail_rate);
  report.set_repetitions(reps);

  jobsvc::JobMixConfig mix;
  mix.jobs = jobs;
  mix.arrival_span_s = 1.0;
  const std::vector<jobsvc::JobSpec> specs = jobsvc::make_job_mix(mix);

  jobsvc::ServiceConfig base;
  base.seed = seed;
  base.fleet = platform::BladeFleetConfig::uniform(blades, slots);
  base.fault.seed = 7;
  base.fault.blade_fail_rate = blade_fail_rate;

  std::vector<double> off_wall, recorder_wall, full_wall;
  std::uint64_t last_recorded = 0, last_overwritten = 0;
  // Interleave the three modes within each rep so drift (thermal, cache
  // state) lands on all of them equally instead of biasing one series.
  for (int r = 0; r < reps; ++r) {
    {
      jobsvc::ServiceConfig cfg = base;
      off_wall.push_back(run_once(cfg, specs));
    }
    {
      trace::TraceSink rec(static_cast<std::size_t>(ring));
      jobsvc::ServiceConfig cfg = base;
      cfg.trace = &rec;
      recorder_wall.push_back(run_once(cfg, specs));
      last_recorded = rec.recorded();
      last_overwritten = rec.overwritten();
    }
    {
      trace::TraceSink sink;
      jobsvc::ServiceConfig cfg = base;
      cfg.trace = &sink;
      full_wall.push_back(run_once(cfg, specs));
    }
  }

  for (double s : off_wall) report.add_sample("off_wall", s);
  for (double s : recorder_wall) report.add_sample("recorder_wall", s);
  for (double s : full_wall) report.add_sample("full_wall", s);

  // Permille ratios on the medians: the sample is ratio * 1e-6 seconds so
  // the report's integer-ns median renders as ratio * 1000 (permille).
  const double rec_ratio =
      util::median(recorder_wall) / util::median(off_wall);
  const double full_ratio = util::median(full_wall) / util::median(off_wall);
  report.add_sample("ratio/recorder_over_off", rec_ratio * 1e-6);
  report.add_sample("ratio/full_over_off", full_ratio * 1e-6);
  report.counter("recorder_recorded", last_recorded);
  report.counter("recorder_overwritten", last_overwritten);

  std::printf(
      "bench_trace: jobs=%d blades=%d reps=%d ring=%d\n"
      "  off       %8.3f ms\n"
      "  recorder  %8.3f ms  (%+.1f%% vs off, recorded=%llu overwritten=%llu)\n"
      "  full      %8.3f ms  (%+.1f%% vs off)\n",
      jobs, blades, reps, ring, util::median(off_wall) * 1e3,
      util::median(recorder_wall) * 1e3, (rec_ratio - 1.0) * 100.0,
      static_cast<unsigned long long>(last_recorded),
      static_cast<unsigned long long>(last_overwritten),
      util::median(full_wall) * 1e3, (full_ratio - 1.0) * 100.0);

  return report.write() ? 0 : 1;
}
