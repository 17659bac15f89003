// Trace analysis & performance attribution (see DESIGN.md "Analysis &
// attribution"): reconstructs per-SPE busy/idle timelines, attributes every
// nanosecond of the makespan to one component, extracts the critical path
// through the task graph, and audits each MGPS degree decision.
//
// Two input modes:
//   --input=<file>   analyze an existing deterministic text trace
//                    (cell_explorer --trace-text=F, or any `# cbe-trace v1`
//                    stream);
//   (default)        run a fixed-seed MGPS workload in-process and profile
//                    it.  --golden-faults pins the exact fault-scripted
//                    scenario the golden-trace tests use, so the report is
//                    reproducible down to the byte.
//
//   build/examples/cell_profiler [--input=F] [--span=JOB] [--report=text|json]
//       [--out=F] [--bootstraps=N] [--tasks=N] [--seed=S] [--fault-seed=S]
//       [--golden-faults]
//
// Traces that interleave several causal spans (a jobsvc run, a flight-
// recorder dump) carry events for many jobs at once; analyzing them as one
// timeline attributes job A's queueing to job B's critical path.  For such
// mixed traces --span=JOB selects one job's span family (keeping untagged
// global events like faults for context); omitting it on a mixed trace is
// an error that lists the job ids present.
//
// Exit codes: 0 ok, 1 I/O or analysis failure, 2 usage error.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "analysis/analysis.hpp"
#include "analysis/trace_parse.hpp"
#include "runtime/mgps.hpp"
#include "runtime/sim_runtime.hpp"
#include "task/synthetic.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"

namespace {

constexpr const char kUsage[] =
    "cell_profiler [--input=F] [--span=JOB] [--report=text|json] [--out=F]\n"
    "    [--bootstraps=N] [--tasks=N] [--seed=S] [--fault-seed=S]\n"
    "    [--golden-faults]";

/// Distinct job ids among span-tagged events (untagged events don't count).
std::set<std::uint32_t> span_jobs(const std::vector<cbe::trace::Event>& evs) {
  std::set<std::uint32_t> jobs;
  for (const cbe::trace::Event& e : evs) {
    const cbe::trace::SpanParts p = cbe::trace::span_parts(e.span);
    if (p.valid) jobs.insert(p.job);
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cbe;
  util::Cli cli(argc, argv);
  const std::string input = cli.get("input", "");
  const bool span_given = cli.has("span");
  const std::uint32_t span_job =
      static_cast<std::uint32_t>(cli.get_int("span", 0));
  const std::string report = cli.get("report", "text");
  const std::string out_path = cli.get("out", "");
  const int bootstraps = static_cast<int>(cli.get_int("bootstraps", 2));
  const int tasks = static_cast<int>(cli.get_int("tasks", 20));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const auto fault_seed =
      static_cast<std::uint64_t>(cli.get_int("fault-seed", 2026));
  const bool golden_faults = cli.get_bool("golden-faults", false);
  if (report != "text" && report != "json") {
    std::fprintf(stderr, "--report must be text or json\nusage: %s\n",
                 kUsage);
    return 2;
  }
  cli.enforce_usage_or_exit(kUsage);

  std::vector<trace::Event> events;
  if (!input.empty()) {
    std::ifstream in(input, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cell_profiler: cannot open %s\n", input.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    if (!analysis::parse_text_trace(ss.str(), events, &err)) {
      std::fprintf(stderr, "cell_profiler: %s: %s\n", input.c_str(),
                   err.c_str());
      return 1;
    }
    const std::set<std::uint32_t> jobs = span_jobs(events);
    if (span_given) {
      if (!jobs.count(span_job)) {
        std::fprintf(stderr,
                     "cell_profiler: %s has no events for --span=%u\n",
                     input.c_str(), span_job);
        return 1;
      }
      // Keep the selected job's span family plus untagged global events
      // (faults, idle markers): they are shared context, not another job.
      events.erase(std::remove_if(events.begin(), events.end(),
                                  [span_job](const trace::Event& e) {
                                    const trace::SpanParts p =
                                        trace::span_parts(e.span);
                                    return p.valid && p.job != span_job;
                                  }),
                   events.end());
    } else if (jobs.size() > 1) {
      std::string list;
      std::size_t shown = 0;
      for (std::uint32_t j : jobs) {
        if (shown++ == 8) {
          list += ", ...";
          break;
        }
        if (!list.empty()) list += ", ";
        list += std::to_string(j);
      }
      std::fprintf(stderr,
                   "cell_profiler: %s is a mixed trace: events span %zu jobs "
                   "(%s); pass --span=JOB to pick one\n",
                   input.c_str(), jobs.size(), list.c_str());
      return 1;
    }
  } else {
    // In-process profile of a fixed-seed MGPS run.  With --golden-faults
    // this is byte-for-byte the pinned golden-trace scenario: 2 bootstraps,
    // 20 tasks each, a scripted mid-run degrade on SPE 3 and a fail-stop of
    // SPE 5 (see tests/test_trace_golden.cpp).
    task::SyntheticConfig scfg;
    scfg.tasks_per_bootstrap = tasks;
    scfg.seed = seed;
    const task::Workload wl = task::make_synthetic(bootstraps, scfg);
    rt::RunConfig cfg;
    cfg.fault.seed = fault_seed;
    if (golden_faults) {
      cfg.fault_script = {
          {sim::Time::us(300.0), sim::FaultKind::Degrade, 3, 0.05},
          {sim::Time::ms(1.0), sim::FaultKind::FailStop, 5, 1.0},
      };
    }
    trace::TraceSink sink;
    cfg.trace = &sink;
    rt::MgpsPolicy mgps;
    rt::run_workload(wl, mgps, cfg);
    events = sink.events();
  }

  const analysis::Analysis a = analysis::analyze(events);
  const std::string rendered =
      report == "json" ? analysis::to_json(a) : analysis::to_text(a);
  if (out_path.empty()) {
    std::fputs(rendered.c_str(), stdout);
  } else if (trace::write_file(out_path, rendered)) {
    std::printf("report written to %s\n", out_path.c_str());
  } else {
    return 1;
  }
  return 0;
}
