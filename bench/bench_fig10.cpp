// Reproduces Figure 10 of the paper: RAxML on Cell (with MGPS) vs a
// dual-processor Hyper-Threaded Xeon SMP vs an IBM Power5, for (a) 1-16 and
// (b) 1-128 bootstraps.
//
// The Cell curve comes from the scheduler simulation, rescaled so that one
// bootstrap matches the paper's measured 28.46 s (the simulation's scaled
// task count shortens absolute times but preserves ratios).  Xeon and Power5
// come from the SMT queueing models with calibration documented in
// src/platform/smp.hpp.
// Shape checks: the fig10.* claims in paper_table.cpp.
#include <cstdio>

#include "bench_common.hpp"
#include "paper_table.hpp"

int main(int argc, char** argv) {
  using namespace cbe;
  util::Cli cli(argc, argv);
  const auto scfg = bench::synthetic_config(cli);
  const auto rcfg = bench::run_config(cli);
  bench::BenchReport report(cli, "fig10");
  cli.enforce_usage_or_exit(
      bench::common_usage("bench_fig10", "[--json[=F]]"));
  bench::report_common_config(report, scfg, rcfg);

  const bench::Sweep anchor = bench::run_sweep(bench::kFig10Anchor, scfg, rcfg);
  const bench::Sweep sweep = bench::run_sweep(bench::kFig10, scfg, rcfg);
  const char* names[] = {"Figure 10a (1-16 bootstraps)",
                         "Figure 10b (1-128 bootstraps)"};
  for (std::size_t i = 0; i < sweep.panels.size(); ++i) {
    util::Table table(std::string(names[i]) +
                      ": Cell (MGPS) vs Xeon vs Power5");
    table.header({"bootstraps", "Xeon", "Power5", "Cell+MGPS",
                  "Xeon/Cell", "Power5/Cell"});
    for (const auto& p : sweep.panels[i]) {
      const int b = p.bootstraps;
      const bench::PlatformPoint t = bench::fig10_point(sweep, anchor, b);
      report.add_sample("cell/" + std::to_string(b), t.cell);
      report.add_sample("xeon/" + std::to_string(b), t.xeon);
      report.add_sample("power5/" + std::to_string(b), t.power5);
      table.row({std::to_string(b), util::Table::seconds(t.xeon),
                 util::Table::seconds(t.power5), util::Table::seconds(t.cell),
                 util::Table::num(t.xeon / t.cell),
                 util::Table::num(t.power5 / t.cell)});
    }
    table.print();
    std::printf("\n");
  }
  bench::print_claims(bench::fig10_claims(sweep, anchor));
  return report.write() ? 0 : 1;
}
