// Reproduces the Section 5.5 scaling argument: "With 100 bootstraps, MGPS
// with multigrain (EDTLP-LLP) parallelism will outperform plain EDTLP if
// the bootstraps are distributed between four or more dual-Cell blades."
//
// Spreading a fixed 100-bootstrap analysis over more blades shrinks each
// blade's share; once a blade serves few enough bootstraps, task-level
// parallelism alone cannot fill its 16 SPEs and MGPS's loop-level layer
// starts paying again.  Our MGPS also wins the within-blade tail, so it
// never loses outright.  Shape checks: the cluster.* claims in
// paper_table.cpp, which assume the default 100 bootstraps.
#include <cstdio>

#include "bench_common.hpp"
#include "paper_table.hpp"

int main(int argc, char** argv) {
  using namespace cbe;
  util::Cli cli(argc, argv);
  const auto scfg = bench::synthetic_config(cli);
  const int bootstraps = static_cast<int>(cli.get_int("bootstraps", 100));

  rt::RunConfig blade_cfg = bench::run_config(cli, /*cells=*/2);
  bench::BenchReport report(cli, "cluster");
  cli.enforce_usage_or_exit(
      bench::common_usage("bench_cluster", "[--bootstraps=N] [--json[=F]]"));
  bench::report_common_config(report, scfg, blade_cfg);
  report.config("bootstraps", static_cast<long long>(bootstraps));

  util::Table table("Section 5.5: " + std::to_string(bootstraps) +
                    " bootstraps over a cluster of dual-Cell blades");
  table.header({"blades", "bootstraps/blade", "EDTLP", "MGPS", "winner",
                "MGPS gain"});
  const auto points = bench::run_cluster_sweep(bootstraps, scfg, blade_cfg);
  for (const auto& p : points) {
    const double te = p.edtlp.makespan_s, tm = p.mgps.makespan_s;
    report.add_sample("edtlp/" + std::to_string(p.blades), te);
    report.add_sample("mgps/" + std::to_string(p.blades), tm);
    table.row({std::to_string(p.blades),
               std::to_string((bootstraps + p.blades - 1) / p.blades),
               util::Table::seconds(te), util::Table::seconds(tm),
               tm < te * 0.999 ? "MGPS" : "tie/EDTLP",
               util::Table::num(te / tm)});
  }
  table.print();
  std::printf("\n");
  bench::print_claims(bench::cluster_claims(points));
  return report.write() ? 0 : 1;
}
