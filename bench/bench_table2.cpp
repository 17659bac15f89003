// Reproduces Table 2 of the paper: one bootstrap with loop-level parallelism
// across 1..8 SPEs (LLP degree sweep).
//
// Paper anchors (42_SC, seconds): 28.71 (no LLP), 20.83 (2), 19.37 (3),
// 18.28 (4), 18.10 (5), 20.52 (6), 18.27 (7), 24.4 (8).
// Shape checks: the table2.* claims in paper_table.cpp.  The paper's 6-vs-7
// wobble is hardware noise; the model saturates smoothly.
#include <cstdio>

#include "bench_common.hpp"
#include "paper_table.hpp"

int main(int argc, char** argv) {
  using namespace cbe;
  util::Cli cli(argc, argv);
  const auto scfg = bench::synthetic_config(cli);
  const auto rcfg = bench::run_config(cli);
  bench::BenchReport report(cli, "table2");
  cli.enforce_usage_or_exit(
      bench::common_usage("bench_table2", "[--json[=F]]"));
  bench::report_common_config(report, scfg, rcfg);

  const double paper[] = {28.71, 20.83, 19.37, 18.28,
                          18.10, 20.52, 18.27, 24.40};

  util::Table table("Table 2: LLP degree sweep, 1 worker, 1 bootstrap");
  table.header({"SPEs/loop", "sim", "speedup(sim)", "speedup(paper)"});

  trace::TraceSink sink;
  const bench::Sweep sweep = bench::run_sweep(
      bench::kTable2, scfg, rcfg,
      {report.enabled() ? &sink : nullptr, bench::llp(4), 1});
  const double base = sweep.seconds(bench::llp(1), 1);
  for (int d = 1; d <= 8; ++d) {
    const double t = sweep.seconds(bench::llp(d), 1);
    report.add_sample("llp/" + std::to_string(d), t);
    table.row({std::to_string(d), util::Table::seconds(t),
               util::Table::num(base / t),
               util::Table::num(paper[0] / paper[d - 1])});
  }
  bench::report_attribution(report, sink);
  table.print();

  std::printf("\n");
  bench::print_claims(bench::table2_claims(sweep));
  return report.write() ? 0 : 1;
}
