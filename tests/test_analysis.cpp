// Analyzer invariants (see DESIGN.md "Analysis & attribution"): the
// busy/idle tiling, the exact makespan attribution, the critical-path bound,
// the scheduler audit, text-trace parsing round-trips, and a golden profile
// fixture over the same pinned fault-scripted scenario the golden-trace
// tests use.
//
// Regenerating the profile fixture after an intentional scheduling change:
//
//   CBE_REGEN_GOLDEN=1 build/tests/test_analysis
#include <gtest/gtest.h>

#include <cstdlib>
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

#ifndef CBE_GOLDEN_DIR
#define CBE_GOLDEN_DIR "tests/golden"
#endif

namespace cbe::analysis {
namespace {

std::vector<trace::Event> run_events(int bootstraps, int tasks,
                                     bool golden_faults) {
  task::SyntheticConfig scfg;
  scfg.tasks_per_bootstrap = tasks;
  const task::Workload wl = task::make_synthetic(bootstraps, scfg);
  rt::RunConfig cfg;
  if (golden_faults) {
    // The pinned golden-trace scenario (tests/test_trace_golden.cpp).
    cfg.fault_script = {
        {sim::Time::us(300.0), sim::FaultKind::Degrade, 3, 0.05},
        {sim::Time::ms(1.0), sim::FaultKind::FailStop, 5, 1.0},
    };
    cfg.fault.seed = 2026;
  }
  trace::TraceSink sink;
  cfg.trace = &sink;
  rt::MgpsPolicy mgps;
  rt::run_workload(wl, mgps, cfg);
  return sink.events();
}

TEST(EventNameTest, RoundTripsEveryKind) {
  for (int i = 0; i < static_cast<int>(trace::EventKind::kCount); ++i) {
    const auto k = static_cast<trace::EventKind>(i);
    EXPECT_EQ(trace::event_kind_from_name(trace::event_name(k)), k);
  }
  EXPECT_EQ(trace::event_kind_from_name("no_such_event"),
            trace::EventKind::kCount);
  EXPECT_STREQ(trace::event_name(trace::EventKind::kCount), "unknown");
}

TEST(AnalysisTest, TextTraceParsesBackToTheSameEvents) {
  const std::vector<trace::Event> events = run_events(2, 20, true);
  ASSERT_FALSE(events.empty());
  const std::string text = trace::to_text(events);
  std::vector<trace::Event> parsed;
  std::string err;
  ASSERT_TRUE(parse_text_trace(text, parsed, &err)) << err;
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].t_ns, events[i].t_ns);
    EXPECT_EQ(parsed[i].kind, events[i].kind);
    EXPECT_EQ(parsed[i].spe, events[i].spe);
    EXPECT_EQ(parsed[i].pid, events[i].pid);
    EXPECT_EQ(parsed[i].a, events[i].a);
    EXPECT_EQ(parsed[i].b, events[i].b);
  }
}

TEST(TraceParseTest, RejectsMalformedInput) {
  std::vector<trace::Event> out;
  std::string err;
  EXPECT_FALSE(parse_text_trace("not a trace\n", out, &err));
  EXPECT_NE(err.find("header"), std::string::npos) << err;
  EXPECT_FALSE(parse_text_trace(
      "# cbe-trace v1\n10 bogus_event spe=0 pid=1 a=0 b=0\n", out, &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_FALSE(
      parse_text_trace("# cbe-trace v1\n10 spe_busy spe=0\n", out, &err));
  EXPECT_TRUE(parse_text_trace("# cbe-trace v1\n", out, &err)) << err;
  EXPECT_TRUE(out.empty());
}

TEST(AnalysisTest, BusyAndIdleTileTheRunExactly) {
  for (const bool faults : {false, true}) {
    const std::vector<trace::Event> events = run_events(3, 30, faults);
    const Analysis a = analyze(events);
    ASSERT_GT(a.makespan_ns, 0);
    ASSERT_FALSE(a.spes.empty());
    for (const SpeTimeline& t : a.spes) {
      // The tiling invariant: every nanosecond is busy or idle, exactly.
      EXPECT_EQ(t.busy_ns + t.idle_ns, a.makespan_ns) << "spe " << t.spe;
      EXPECT_GE(t.stall_ns, 0);
      // Busy intervals are inside the run, ascending, non-overlapping.
      std::int64_t prev_end = 0;
      std::int64_t total = 0;
      for (const Interval& iv : t.busy) {
        EXPECT_GE(iv.start_ns, prev_end);
        EXPECT_GT(iv.end_ns, iv.start_ns);
        EXPECT_LE(iv.end_ns, a.makespan_ns);
        prev_end = iv.end_ns;
        total += iv.end_ns - iv.start_ns;
      }
      EXPECT_EQ(total, t.busy_ns);
    }
  }
}

TEST(AnalysisTest, AttributionSumsToMakespanExactly) {
  for (const bool faults : {false, true}) {
    const std::vector<trace::Event> events = run_events(3, 30, faults);
    const Analysis a = analyze(events);
    // Integer nanoseconds, no rounding: the components account for every
    // nanosecond of wall time, exactly.
    EXPECT_EQ(a.attribution.sum(), a.makespan_ns) << "faults=" << faults;
    EXPECT_EQ(a.attribution.makespan_ns, a.makespan_ns);
    EXPECT_GE(a.attribution.spe_compute_ns, 0);
    EXPECT_GE(a.attribution.ppe_ns, 0);
    // A real workload computes on SPEs for most of the run.
    EXPECT_GT(a.attribution.spe_compute_ns, a.makespan_ns / 2);
  }
}

TEST(AnalysisTest, CriticalPathNeverExceedsMakespanAndChains) {
  for (const bool faults : {false, true}) {
    const std::vector<trace::Event> events = run_events(3, 30, faults);
    const Analysis a = analyze(events);
    const CriticalPath& cp = a.critical_path;
    ASSERT_FALSE(cp.steps.empty());
    EXPECT_LE(cp.length_ns, a.makespan_ns);
    EXPECT_GT(cp.length_ns, 0);
    std::int64_t total = 0;
    for (std::size_t i = 0; i < cp.steps.size(); ++i) {
      total += cp.steps[i].duration();
      if (i == 0) continue;
      const TaskSpan& prev = cp.steps[i - 1];
      const TaskSpan& cur = cp.steps[i];
      // Each link is a real dependency: no time travel, and the tasks share
      // a process (program order) or a master SPE (resource order).
      EXPECT_GE(cur.start_ns, prev.end_ns);
      EXPECT_TRUE(prev.pid == cur.pid || prev.spe == cur.spe);
    }
    EXPECT_EQ(total, cp.length_ns);
  }
}

TEST(AnalysisTest, TaskAccountingIsConsistent) {
  const std::vector<trace::Event> events = run_events(2, 20, true);
  const Analysis a = analyze(events);
  EXPECT_EQ(a.tasks.size(), a.completes);
  EXPECT_EQ(a.dispatches, a.completes + a.abandoned);
  // The scripted faults force re-offloads, so some attempts are abandoned.
  EXPECT_GT(a.abandoned, 0u);
  for (const TaskSpan& t : a.tasks) {
    EXPECT_GE(t.duration(), 0);
    EXPECT_LE(t.end_ns, a.makespan_ns);
  }
}

TEST(AnalysisTest, AuditSeesEveryDegreeChange) {
  const std::vector<trace::Event> events = run_events(2, 20, true);
  const Analysis a = analyze(events);
  std::size_t changes = 0;
  std::uint64_t watchdogs = 0;
  for (const trace::Event& e : events) {
    if (e.kind == trace::EventKind::DegreeChange) {
      ASSERT_LT(changes, a.audit.decisions.size());
      const DegreeDecision& d = a.audit.decisions[changes];
      EXPECT_EQ(d.t_ns, e.t_ns);
      EXPECT_EQ(d.new_degree, static_cast<int>(e.a));
      EXPECT_EQ(d.observed_tlp, static_cast<int>(e.b));
      ++changes;
    }
    if (e.kind == trace::EventKind::WatchdogFire) ++watchdogs;
  }
  EXPECT_EQ(a.audit.decisions.size(), changes);
  EXPECT_EQ(a.audit.watchdog_fires, watchdogs);
  EXPECT_GT(watchdogs, 0u);  // the pinned scenario exercises recovery
}

TEST(AnalysisTest, ReportsAreDeterministic) {
  const std::vector<trace::Event> a = run_events(2, 20, true);
  const std::vector<trace::Event> b = run_events(2, 20, true);
  EXPECT_EQ(to_json(analyze(a)), to_json(analyze(b)));
  EXPECT_EQ(to_text(analyze(a)), to_text(analyze(b)));
}

TEST(AnalysisTest, GoldenProfileJsonMatchesFixture) {
  const std::string path =
      std::string(CBE_GOLDEN_DIR) + "/mgps_small_profile.json";
  const std::string got = to_json(analyze(run_events(2, 20, true)));
  if (std::getenv("CBE_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(trace::write_file(path, got));
    GTEST_SKIP() << "regenerated " << path << "; commit it and re-run";
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string want = ss.str();
  ASSERT_FALSE(want.empty())
      << "missing fixture " << path
      << " - regenerate with CBE_REGEN_GOLDEN=1";
  // Line-by-line diff for a readable first divergence.
  std::istringstream gs(got);
  std::istringstream ws(want);
  std::string gl;
  std::string wl;
  int line = 0;
  while (true) {
    const bool gok = static_cast<bool>(std::getline(gs, gl));
    const bool wok = static_cast<bool>(std::getline(ws, wl));
    ++line;
    if (!gok || !wok) {
      EXPECT_EQ(gok, wok) << "profile length diverges at line " << line;
      break;
    }
    ASSERT_EQ(gl, wl) << "profile diverges from " << path << " at line "
                      << line;
  }
}

}  // namespace
}  // namespace cbe::analysis
