// Reproduces Figure 8 of the paper: the adaptive MGPS scheduler vs the
// static EDTLP-LLP schemes and pure EDTLP, (a) 1-16 and (b) 1-128 bootstraps.
// Shape checks: the fig8.* claims in paper_table.cpp.
#include <cstdio>

#include "bench_common.hpp"
#include "paper_table.hpp"

int main(int argc, char** argv) {
  using namespace cbe;
  util::Cli cli(argc, argv);
  const auto scfg = bench::synthetic_config(cli);
  const auto rcfg = bench::run_config(cli);
  bench::BenchReport report(cli, "fig8");
  cli.enforce_usage_or_exit(
      bench::common_usage("bench_fig8", "[--json[=F]]"));
  bench::report_common_config(report, scfg, rcfg);

  // Trace one mid-size MGPS point as the attribution representative.
  trace::TraceSink sink;
  const bench::Sweep sweep = bench::run_sweep(
      bench::kFig8, scfg, rcfg,
      {report.enabled() ? &sink : nullptr, bench::kMgps, 16});
  const char* names[] = {"Figure 8a (1-16 bootstraps)",
                         "Figure 8b (1-128 bootstraps)"};
  for (std::size_t i = 0; i < sweep.panels.size(); ++i) {
    util::Table table(std::string(names[i]) + ": MGPS vs static schemes");
    table.header({"bootstraps", "MGPS", "EDTLP-LLP(2)", "EDTLP-LLP(4)",
                  "EDTLP", "MGPS degree", "MGPS/best-static"});
    for (const auto& p : sweep.panels[i]) {
      const int b = p.bootstraps;
      const auto& rm = sweep.at(bench::kMgps, p);
      const double t2 = sweep.seconds(bench::llp(2), p);
      const double t4 = sweep.seconds(bench::llp(4), p);
      const double te = sweep.seconds(bench::kEdtlp, p);
      const double best = std::min({t2, t4, te});
      report.add_sample("mgps/" + std::to_string(b), rm.makespan_s);
      report.add_sample("edtlp/" + std::to_string(b), te);
      table.row({std::to_string(b), util::Table::seconds(rm.makespan_s),
                 util::Table::seconds(t2), util::Table::seconds(t4),
                 util::Table::seconds(te),
                 util::Table::num(rm.mean_loop_degree),
                 util::Table::num(rm.makespan_s / best)});
    }
    table.print();
    std::printf("\n");
  }
  bench::print_claims(bench::fig8_claims(sweep));
  bench::report_attribution(report, sink);
  return report.write() ? 0 : 1;
}
