// Reproduces Figure 9 of the paper: MGPS vs EDTLP-LLP vs EDTLP on a blade
// with TWO Cell processors (16 SPEs, 2 PPEs), (a) 1-16 and (b) 1-128
// bootstraps.
// Shape checks: the fig9.* claims in paper_table.cpp, two Cells against one
// at fixed work (Section 5.5).
#include <cstdio>

#include "bench_common.hpp"
#include "paper_table.hpp"

int main(int argc, char** argv) {
  using namespace cbe;
  util::Cli cli(argc, argv);
  const auto scfg = bench::synthetic_config(cli);
  const auto rcfg = bench::run_config(cli);
  bench::BenchReport report(cli, "fig9");
  cli.enforce_usage_or_exit(
      bench::common_usage("bench_fig9", "[--json[=F]]"));
  bench::report_common_config(report, scfg, rcfg);
  report.config("cells", 2);

  trace::TraceSink sink;
  const bench::Sweep sweep = bench::run_sweep(
      bench::kFig9, scfg, rcfg,
      {report.enabled() ? &sink : nullptr, bench::kMgps, 16});
  const char* names[] = {"Figure 9a (1-16 bootstraps, 2 Cells)",
                         "Figure 9b (1-128 bootstraps, 2 Cells)"};
  for (std::size_t i = 0; i < sweep.panels.size(); ++i) {
    util::Table table(names[i]);
    table.header({"bootstraps", "MGPS", "EDTLP-LLP(2)", "EDTLP-LLP(4)",
                  "EDTLP", "best"});
    for (const auto& p : sweep.panels[i]) {
      const int b = p.bootstraps;
      const double tm = sweep.seconds(bench::kMgps, p);
      const double t2 = sweep.seconds(bench::llp(2), p);
      const double t4 = sweep.seconds(bench::llp(4), p);
      const double te = sweep.seconds(bench::kEdtlp, p);
      const char* best = tm <= t2 && tm <= t4 && tm <= te ? "MGPS"
                         : t2 <= t4 && t2 <= te            ? "LLP(2)"
                         : t4 <= te                        ? "LLP(4)"
                                                           : "EDTLP";
      table.row({std::to_string(b), util::Table::seconds(tm),
                 util::Table::seconds(t2), util::Table::seconds(t4),
                 util::Table::seconds(te), best});
      report.add_sample("mgps2c/" + std::to_string(b), tm);
      report.add_sample("edtlp2c/" + std::to_string(b), te);
    }
    table.print();
    std::printf("\n");
  }

  bench::print_claims(bench::fig9_claims(
      sweep, bench::run_sweep(bench::kFig9OneCell, scfg, rcfg)));
  bench::report_attribution(report, sink);
  return report.write() ? 0 : 1;
}
