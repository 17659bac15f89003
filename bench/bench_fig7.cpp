// Reproduces Figure 7 of the paper: static EDTLP-LLP (2 and 4 SPEs per
// parallel loop) vs pure EDTLP, for (a) 1-16 and (b) 1-128 bootstraps.
// Shape checks: the fig7.* claims in paper_table.cpp.
#include <cstdio>

#include "bench_common.hpp"
#include "paper_table.hpp"

int main(int argc, char** argv) {
  using namespace cbe;
  util::Cli cli(argc, argv);
  const auto scfg = bench::synthetic_config(cli);
  auto rcfg = bench::run_config(cli);
  bench::MetricsExport metrics(cli);
  metrics.attach(rcfg);
  bench::BenchReport report(cli, "fig7");
  cli.enforce_usage_or_exit(
      bench::common_usage("bench_fig7", "[--metrics=F] [--json[=F]]"));
  bench::report_common_config(report, scfg, rcfg);

  // Trace one mid-size EDTLP point as the attribution representative.
  trace::TraceSink sink;
  const bench::Sweep sweep = bench::run_sweep(
      bench::kFig7, scfg, rcfg,
      {report.enabled() ? &sink : nullptr, bench::kEdtlp, 16});
  const char* names[] = {"Figure 7a (1-16 bootstraps)",
                         "Figure 7b (1-128 bootstraps)"};
  for (std::size_t i = 0; i < sweep.panels.size(); ++i) {
    const std::string name = names[i];
    util::Table table(name + ": static EDTLP-LLP vs EDTLP");
    table.header({"bootstraps", "EDTLP-LLP(2)", "EDTLP-LLP(4)", "EDTLP",
                  "best"});
    util::AsciiChart chart(name, "bootstraps", "seconds");
    std::vector<double> xs, llp2_v, llp4_v, edtlp_v;
    for (const auto& p : sweep.panels[i]) {
      const int b = p.bootstraps;
      const double t2 = sweep.seconds(bench::llp(2), p);
      const double t4 = sweep.seconds(bench::llp(4), p);
      const double te = sweep.seconds(bench::kEdtlp, p);
      report.add_sample("llp2/" + std::to_string(b), t2);
      report.add_sample("llp4/" + std::to_string(b), t4);
      report.add_sample("edtlp/" + std::to_string(b), te);
      const char* best = t2 <= t4 && t2 <= te ? "LLP(2)"
                         : t4 <= te           ? "LLP(4)"
                                              : "EDTLP";
      table.row({std::to_string(b), util::Table::seconds(t2),
                 util::Table::seconds(t4), util::Table::seconds(te), best});
      xs.push_back(b);
      llp2_v.push_back(t2);
      llp4_v.push_back(t4);
      edtlp_v.push_back(te);
    }
    table.print();
    chart.add_series("EDTLP-LLP(2)", xs, llp2_v);
    chart.add_series("EDTLP-LLP(4)", xs, llp4_v);
    chart.add_series("EDTLP", xs, edtlp_v);
    chart.print();
    std::printf("\n");
  }
  bench::print_claims(bench::fig7_claims(sweep));
  bench::report_attribution(report, sink);
  int rc = 0;
  if (!report.write()) rc = 1;
  if (!metrics.finish()) rc = 1;
  return rc;
}
