// Golden-trace determinism: a fixed-seed MGPS workload (with a scripted
// fault so the recovery machinery appears in the stream) must produce a
// bit-identical text trace on every run, on every platform — and that trace
// is pinned against a checked-in fixture.
//
// Regenerating the fixture after an intentional scheduling change:
//
//   CBE_REGEN_GOLDEN=1 build/tests/test_trace_golden
//
// then commit the updated tests/golden/*.trace and re-run the test without
// the variable to confirm it pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "runtime/mgps.hpp"
#include "runtime/sim_runtime.hpp"
#include "task/synthetic.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

#ifndef CBE_GOLDEN_DIR
#define CBE_GOLDEN_DIR "tests/golden"
#endif

namespace cbe::rt {
namespace {

/// The pinned scenario: small enough for a reviewable fixture, rich enough
/// to cover dispatch, DMA, LLP fork/join, a straggler-tripped watchdog
/// re-offload, and a fail-stop.  Do not change without regenerating the
/// golden file (see the header comment).
std::string golden_trace_text() {
  task::SyntheticConfig scfg;
  scfg.tasks_per_bootstrap = 20;
  const task::Workload wl = task::make_synthetic(2, scfg);
  RunConfig cfg;
  cfg.fault_script = {
      {sim::Time::us(300.0), sim::FaultKind::Degrade, 3, 0.05},
      {sim::Time::ms(1.0), sim::FaultKind::FailStop, 5, 1.0},
  };
  cfg.fault.seed = 2026;  // seeds the DMA oracle for the scripted plan
  trace::TraceSink sink;
  cfg.trace = &sink;
  MgpsPolicy mgps;
  run_workload(wl, mgps, cfg);
  return trace::to_text(sink.events());
}

/// The pinned fault scenario: two bootstraps keep MGPS in its LLP regime;
/// a worker fail-stops mid-loop (chunk reassignment to the master) and later
/// a loop master does (abandoned loop); the DMA oracle fails transfers
/// (worker-fetch and task-DMA retries); scripted bit-flips on one SPE trip
/// CRC detection and quarantine; and every result is re-executed and
/// compared.  Covers the recovery paths of the off-load chain that the clean
/// scenario above never reaches.
std::string fault_golden_trace_text() {
  task::SyntheticConfig scfg;
  scfg.tasks_per_bootstrap = 30;
  const task::Workload wl = task::make_synthetic(2, scfg);
  RunConfig cfg;
  cfg.fault_script = {
      {sim::Time::us(1000.0), sim::FaultKind::FailStop, 3, 1.0},
      {sim::Time::us(500.0), sim::FaultKind::BitFlip, 1, 1.0},
      {sim::Time::us(700.0), sim::FaultKind::BitFlip, 1, 1.0},
      {sim::Time::us(2000.0), sim::FaultKind::FailStop, 5, 1.0},
  };
  cfg.fault.seed = 77;
  cfg.fault.dma_fail_rate = 0.05;
  cfg.fault.result_corrupt_rate = 0.05;
  cfg.integrity.crc_framing = true;
  cfg.integrity.verify_fraction = 1.0;
  cfg.integrity.quarantine_threshold = 2;
  trace::TraceSink sink;
  cfg.trace = &sink;
  MgpsPolicy mgps;
  run_workload(wl, mgps, cfg);
  return trace::to_text(sink.events());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TraceGoldenTest, SameSeedSameConfigIsBitIdentical) {
  const std::string a = golden_trace_text();
  const std::string b = golden_trace_text();
  EXPECT_GT(a.size(), 0u);
  EXPECT_EQ(a, b);
}

/// Pins `got` against tests/golden/<name>, or rewrites the fixture when
/// CBE_REGEN_GOLDEN is set.
void expect_matches_fixture(const std::string& name, const std::string& got) {
  const std::string path = std::string(CBE_GOLDEN_DIR) + "/" + name;
  if (std::getenv("CBE_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(trace::write_file(path, got));
    GTEST_SKIP() << "regenerated " << path << "; commit it and re-run";
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty())
      << "missing fixture " << path
      << " - regenerate with CBE_REGEN_GOLDEN=1 " << std::flush;
  // One EXPECT_EQ on the whole string would dump both multi-KB traces on a
  // mismatch; diff line-by-line and report the first divergence instead.
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
      EXPECT_EQ(gok, wok) << "trace length diverges at line " << line;
      break;
    }
    ASSERT_EQ(gl, wl) << "trace diverges from " << path << " at line "
                      << line;
  }
}

TEST(TraceGoldenTest, MatchesCheckedInFixture) {
  expect_matches_fixture("mgps_small.trace", golden_trace_text());
}

TEST(TraceGoldenTest, FaultScenarioMatchesCheckedInFixture) {
  const std::string got = fault_golden_trace_text();
  EXPECT_EQ(got, fault_golden_trace_text());
  expect_matches_fixture("mgps_faults.trace", got);
}

TEST(TraceGoldenTest, FaultScenarioExercisesEveryRecoveryPath) {
  const std::string text = fault_golden_trace_text();
  for (const char* kind :
       {" loop_fork ", " fault_failstop ", " chunk_reassign ", " dma_fault ",
        " dma_corrupt ", " result_corrupt ", " quarantine ", " reoffload "}) {
    EXPECT_NE(text.find(kind), std::string::npos) << kind;
  }
  // The master fail-stop abandons a loop: one fork never joins.
  const auto count = [&text](const std::string& kind) {
    std::size_t n = 0;
    for (auto at = text.find(kind); at != std::string::npos;
         at = text.find(kind, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_GT(count(" loop_fork "), count(" loop_join "));
}

TEST(TraceGoldenTest, RecoveryMachineryAppearsInTheStream) {
  // The pinned scenario's scripted faults must actually exercise recovery,
  // otherwise the fixture pins only the happy path.
  const std::string text = golden_trace_text();
  EXPECT_NE(text.find(" fault_degrade "), std::string::npos);
  EXPECT_NE(text.find(" fault_failstop "), std::string::npos);
  EXPECT_NE(text.find(" watchdog_fire "), std::string::npos);
  EXPECT_NE(text.find(" reoffload "), std::string::npos);
}

TEST(TraceGoldenTest, TextFormatIsWellFormed) {
  const std::string text = golden_trace_text();
  std::istringstream ss(text);
  std::string line;
  ASSERT_TRUE(std::getline(ss, line));
  EXPECT_EQ(line, "# cbe-trace v1");
  int n = 0;
  while (std::getline(ss, line)) {
    ++n;
    long long t = -1;
    char name[64] = {0};
    int spe = 0;
    int pid = 0;
    long long a = 0;
    long long b = 0;
    ASSERT_EQ(std::sscanf(line.c_str(),
                          "%lld %63s spe=%d pid=%d a=%lld b=%lld", &t, name,
                          &spe, &pid, &a, &b),
              6)
        << "unparseable line " << n << ": " << line;
    EXPECT_GE(t, 0);
  }
  EXPECT_GT(n, 100);  // the scenario is non-trivial
}

TEST(TraceGoldenTest, ChromeExportIsDeterministicJson) {
  task::SyntheticConfig scfg;
  scfg.tasks_per_bootstrap = 20;
  const task::Workload wl = task::make_synthetic(2, scfg);
  auto render = [&wl] {
    RunConfig cfg;
    trace::TraceSink sink;
    cfg.trace = &sink;
    MgpsPolicy mgps;
    run_workload(wl, mgps, cfg);
    return trace::to_chrome_json(sink.events());
  };
  const std::string a = render();
  EXPECT_EQ(a, render());
  // Structural sanity: object form, events array, balanced braces/brackets.
  EXPECT_EQ(a.rfind("{\"traceEvents\":[", 0), 0u);
  const std::size_t last = a.find_last_not_of(" \n");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(a[last], '}');
  long depth = 0;
  long min_depth = 0;
  for (char c : a) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    min_depth = std::min(min_depth, depth);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_GE(min_depth, 0);
}

}  // namespace
}  // namespace cbe::rt
