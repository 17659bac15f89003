// Reproduces the Section 5.1 optimization ladder: the execution time of one
// RAxML bootstrap (1 PPE thread + 1 SPE) as the SPE port is optimized
// step by step.
//
// Paper anchors (42_SC): 38.23 s PPE-only; 50.38 s naive off-load (1.32x
// SLOWER than the PPE); 28.82 s fully optimized (1.33x faster), via
// vectorization of the ML loops, vectorization of conditionals, pipelined
// vector ops, aggregated DMA transfers, and SDK math approximations.
//
// Here the kernel stream of a real (synthetic-alignment) bootstrap search is
// costed through the SPU pipeline model under each optimization level
// (bench::run_ladder); shape checks are the opt_ladder.* claims in
// paper_table.cpp.
#include <cstdio>

#include "bench_report.hpp"
#include "paper_table.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cbe;
  util::Cli cli(argc, argv);
  phylo::SyntheticAlignmentConfig acfg;
  acfg.taxa = static_cast<int>(cli.get_int("taxa", acfg.taxa));
  acfg.sites = static_cast<int>(cli.get_int("sites", acfg.sites));
  const auto seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<long long>(bench::kLadderSeed)));
  bench::BenchReport report(cli, "opt_ladder");
  cli.enforce_usage_or_exit(
      "bench_opt_ladder [--taxa=N] [--sites=N] [--seed=S] [--json[=F]]");
  report.config("taxa", static_cast<long long>(acfg.taxa));
  report.config("sites", static_cast<long long>(acfg.sites));
  report.config("seed", static_cast<long long>(seed));

  const bench::Ladder ladder = bench::run_ladder(acfg, seed);
  const double t_ppe = ladder.steps.front().seconds;
  util::Table table("Section 5.1: SPE optimization ladder (one bootstrap, "
                    "1 PPE thread + 1 SPE)");
  table.header({"configuration", "model", "vs PPE-only", "paper"});
  for (const auto& s : ladder.steps) {
    report.add_sample(s.key, s.seconds);
    table.row({s.name, util::Table::seconds(s.seconds),
               util::Table::num(s.seconds / t_ppe),
               s.paper_ratio > 0.0 ? util::Table::num(s.paper_ratio) : "-"});
  }
  table.print();
  std::printf("\nkernel stream: %zu off-loads from a real bootstrap search "
              "(%d patterns)\n", ladder.offloads, ladder.patterns);
  bench::print_claims(bench::ladder_claims(ladder));
  return report.write() ? 0 : 1;
}
