// The paper's experiment table: the sweeps behind Tables 1 and 2, Figures
// 7-10, the Section 5.1 optimization ladder and the Section 5.5 cluster
// argument, and the claims each of those artifacts makes.  A claim is
// defined once, here: each paper bench prints its artifact's claims as its
// shape checks, and tests/test_paper_shapes asserts them against their bands.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "phylo/bootstrap.hpp"
#include "runtime/sim_runtime.hpp"
#include "task/synthetic.hpp"
#include "trace/trace.hpp"

namespace cbe::bench {

/// A scheduler the paper compares.
struct Scheme {
  enum Kind { Mgps, Edtlp, Linux, Llp } kind;
  int degree = 0;  ///< SPEs per parallel loop, for the static EDTLP-LLP hybrid

  bool operator==(const Scheme&) const = default;
  std::unique_ptr<rt::SchedulerPolicy> policy() const;
};
inline constexpr Scheme kMgps{Scheme::Mgps}, kEdtlp{Scheme::Edtlp},
    kLinux{Scheme::Linux};
constexpr Scheme llp(int degree) { return {Scheme::Llp, degree}; }

/// Every scheme at every bootstrap count of every panel, on `cells` Cells.
/// A count listed in two panels runs twice, so each panel's table and
/// series hold it.
struct SweepSpec {
  std::vector<std::vector<int>> panels;
  std::vector<Scheme> schemes;
  int cells = 1;
};

// Figures 7-10's panels: (a) 1-16 and (b) 1-128 bootstraps.
inline const std::vector<int> kPanelA = {1, 2,  3,  4,  5,  6,  7,  8,
                                         9, 10, 11, 12, 13, 14, 15, 16};
inline const std::vector<int> kPanelB = {1,  2,  4,  8,  12, 16,
                                         24, 32, 48, 64, 96, 128};

// Table 1: 1-8 workers, one bootstrap each.  Table 2: one bootstrap under
// each LLP degree.
inline const SweepSpec kTable1 = {{{1, 2, 3, 4, 5, 6, 7, 8}},
                                  {kEdtlp, kLinux}};
inline const SweepSpec kTable2 = {
    {{1}}, {llp(1), llp(2), llp(3), llp(4), llp(5), llp(6), llp(7), llp(8)}};
// Figure 8's sweep holds every other one-Cell sweep below.
inline const SweepSpec kFig8 = {{kPanelA, kPanelB},
                                {kMgps, llp(2), llp(4), kEdtlp}};
inline const SweepSpec kFig7 = {{kPanelA, kPanelB}, {llp(2), llp(4), kEdtlp}};
inline const SweepSpec kFig9 = {{kPanelA, kPanelB},
                                {kMgps, llp(2), llp(4), kEdtlp}, 2};
// Figure 9's Section 5.5 check: the same work on one Cell.
inline const SweepSpec kFig9OneCell = {{{16, 32, 64, 128}}, {kEdtlp}};
// Figure 10's Cell curve, and the one EDTLP bootstrap it is anchored to.
inline const SweepSpec kFig10 = {{kPanelA, kPanelB}, {kMgps}};
inline const SweepSpec kFig10Anchor = {{{1}}, {kEdtlp}};
// Ablation A5: MGPS over its adaptation range.
inline const SweepSpec kCodeLoads = {{{1, 2, 4, 8, 12}}, {kMgps}};

struct Sweep {
  struct Point {
    int bootstraps = 0;
    std::vector<rt::RunResult> runs;  ///< runs[i] ran schemes[i]
  };
  std::vector<Scheme> schemes;
  std::vector<std::vector<Point>> panels;
  int total_spes = 0;

  /// The run of `s` at point `p`, or at the first point of `bootstraps`;
  /// aborts when the sweep has no such run.
  const rt::RunResult& at(Scheme s, const Point& p) const;
  const rt::RunResult& at(Scheme s, int bootstraps) const;
  template <typename P>
  double seconds(Scheme s, const P& point) const {
    return at(s, point).makespan_s;
  }
};

/// Where a bench records its representative trace: the first run of
/// `scheme` at `bootstraps`.  No sink, no trace.
struct TracePoint {
  trace::TraceSink* sink = nullptr;
  Scheme scheme = kEdtlp;
  int bootstraps = 0;
};

/// Runs `spec` point by point, each scheme in order.  `rcfg` supplies
/// everything but the Cell count.
Sweep run_sweep(const SweepSpec& spec, const task::SyntheticConfig& scfg,
                const rt::RunConfig& rcfg, const TracePoint& trace = {});

/// Rescales simulated seconds so that `one_bootstrap` reads as the paper's
/// 28.46 s single-bootstrap Cell time (Table 1): the scaled-down task count
/// shortens absolute times but keeps ratios.
inline double anchor_to_paper(double seconds, double one_bootstrap) {
  return seconds * (28.46 / one_bootstrap);
}

/// One Figure 10 point in seconds: the Cell under MGPS, anchored to one
/// EDTLP bootstrap, and the Xeon and Power5 models.
struct PlatformPoint {
  double cell, xeon, power5;
};
PlatformPoint fig10_point(const Sweep& cell, const Sweep& anchor,
                          int bootstraps);

/// Section 5.1: one real bootstrap search's kernel stream, costed on 1 PPE
/// thread + 1 SPE at each rung of the optimization ladder.
struct Ladder {
  struct Step {
    const char* key;  ///< the bench series name
    const char* name;
    double seconds;
    double paper_ratio;  ///< vs PPE-only; 0 = not reported
  };
  std::vector<Step> steps;  ///< PPE-only first, fully optimized last
  std::size_t offloads = 0;
  int patterns = 0;
};
Ladder run_ladder(const phylo::SyntheticAlignmentConfig& acfg,
                  std::uint64_t seed);
/// The search seed bench_opt_ladder defaults to and the ladder claims hold at.
inline constexpr std::uint64_t kLadderSeed = 7;

/// Section 5.5: one analysis spread over 1, 2, 4, 8, 16 and 25 blades.
struct ClusterPoint {
  int blades;
  rt::RunResult edtlp, mgps;
};
std::vector<ClusterPoint> run_cluster_sweep(int bootstraps,
                                            const task::SyntheticConfig& scfg,
                                            const rt::RunConfig& blade);

/// One claim of the paper, measured.
struct Claim {
  std::string id;    ///< "<artifact>.<name>"; the artifact is its bench
  std::string what;  ///< the measured quantity
  double value;
  const char* paper;  ///< the paper's number or statement
  double lo, hi;      ///< the band test_paper_shapes asserts
  const char* why;    ///< why the band is where it is

  bool holds() const noexcept { return value >= lo && value <= hi; }
  /// One line: id, quantity, value, paper value and band.
  std::string describe() const;
};

std::vector<Claim> table1_claims(const Sweep& table1);
std::vector<Claim> table2_claims(const Sweep& table2);
std::vector<Claim> fig7_claims(const Sweep& fig7);
std::vector<Claim> fig8_claims(const Sweep& fig8);
std::vector<Claim> fig9_claims(const Sweep& two_cells, const Sweep& one_cell);
std::vector<Claim> fig10_claims(const Sweep& cell, const Sweep& anchor);
std::vector<Claim> ladder_claims(const Ladder& ladder);
/// Assumes the default 100-bootstrap analysis.
std::vector<Claim> cluster_claims(const std::vector<ClusterPoint>& points);
std::vector<Claim> ablation_claims(const Sweep& code_loads);

/// Prints a bench's shape checks, one claim a line.
void print_claims(const std::vector<Claim>& claims);

}  // namespace cbe::bench
