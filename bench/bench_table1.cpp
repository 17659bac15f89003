// Reproduces Table 1 of the paper: RAxML execution time with the EDTLP
// user-level scheduler vs. the native Linux scheduler, for 1..8 workers with
// one bootstrap per worker (constant work per process).
//
// Paper anchors (42_SC input, seconds):
//   workers:        1      2      3      4      5      6      7      8
//   EDTLP:      28.46  29.36  32.54  33.12  37.27  38.66  41.87  43.32
//   Linux:      28.42  29.23  56.95  57.38  85.88  86.43 114.92 115.51
// Shape checks: the table1.* claims in paper_table.cpp.
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
  bench::BenchReport report(cli, "table1");
  cli.enforce_usage_or_exit(
      bench::common_usage("bench_table1", "[--metrics=F] [--json[=F]]"));
  bench::report_common_config(report, scfg, rcfg);

  const double paper_edtlp[] = {28.46, 29.36, 32.54, 33.12,
                                37.27, 38.66, 41.87, 43.32};
  const double paper_linux[] = {28.42, 29.23, 56.95, 57.38,
                                85.88, 86.43, 114.92, 115.51};

  util::Table table(
      "Table 1: EDTLP vs Linux scheduler (1 bootstrap per worker)");
  table.header({"workers", "EDTLP(sim)", "Linux(sim)", "Linux/EDTLP",
                "EDTLP(norm)", "paper", "Linux(norm)", "paper"});

  trace::TraceSink sink;
  const bench::Sweep sweep = bench::run_sweep(
      bench::kTable1, scfg, rcfg,
      {report.enabled() ? &sink : nullptr, bench::kEdtlp, 8});
  bench::report_attribution(report, sink);
  const double edtlp1 = sweep.seconds(bench::kEdtlp, 1);
  const double linux1 = sweep.seconds(bench::kLinux, 1);
  for (int n = 1; n <= 8; ++n) {
    const double e = sweep.seconds(bench::kEdtlp, n);
    const double l = sweep.seconds(bench::kLinux, n);
    report.add_sample("edtlp/" + std::to_string(n), e);
    report.add_sample("linux/" + std::to_string(n), l);
    table.row({std::to_string(n), util::Table::seconds(e),
               util::Table::seconds(l), util::Table::num(l / e),
               util::Table::num(e / edtlp1),
               util::Table::num(paper_edtlp[n - 1] / paper_edtlp[0]),
               util::Table::num(l / linux1),
               util::Table::num(paper_linux[n - 1] / paper_linux[0])});
  }
  table.print();

  std::printf("\n");
  bench::print_claims(bench::table1_claims(sweep));
  int rc = 0;
  if (!report.write()) rc = 1;
  if (!metrics.finish()) rc = 1;
  return rc;
}
