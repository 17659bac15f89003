// A complete phylogenetic analysis with the phylo library, mirroring the
// paper's application workflow (Section 3.1): infer a best-known ML tree
// from multiple randomized searches, then run non-parametric bootstraps,
// and finally replay the bootstrap task streams through the simulated Cell
// under the MGPS scheduler.
//
//   build/examples/phylogenetics [--taxa=N] [--sites=L] [--inferences=K]
//                                [--bootstraps=B] [--seed=S]
#include <cstdio>
#include <memory>

#include "phylo/bootstrap.hpp"
#include "phylo/support.hpp"
#include "phylo/search.hpp"
#include "runtime/mgps.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cbe;
  util::Cli cli(argc, argv);

  phylo::SyntheticAlignmentConfig acfg;
  acfg.taxa = static_cast<int>(cli.get_int("taxa", 20));
  acfg.sites = static_cast<int>(cli.get_int("sites", 600));
  acfg.mean_branch_length = 0.02;  // enough signal for interesting searches
  const int inferences = static_cast<int>(cli.get_int("inferences", 3));
  const int bootstraps = static_cast<int>(cli.get_int("bootstraps", 4));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2024));
  cli.enforce_usage_or_exit(
      "phylogenetics [--taxa=N] [--sites=L] [--inferences=K] [--bootstraps=B]"
      " [--seed=S]");

  std::printf("Generating a synthetic DNA alignment (%d taxa x %d sites)"
              "...\n", acfg.taxa, acfg.sites);
  phylo::Alignment alignment = phylo::make_synthetic_alignment(acfg);
  phylo::PatternAlignment patterns(alignment);
  std::printf("  %d unique site patterns, base frequencies "
              "A=%.3f C=%.3f G=%.3f T=%.3f\n\n",
              patterns.patterns(), patterns.base_frequencies()[0],
              patterns.base_frequencies()[1], patterns.base_frequencies()[2],
              patterns.base_frequencies()[3]);

  phylo::SubstModel model(
      phylo::GtrParams::hky(2.5, patterns.base_frequencies()), 0.8);
  phylo::LikelihoodEngine engine(patterns, model);
  util::Rng rng(seed);

  // Multiple inferences from distinct randomized starting trees.
  std::printf("Running %d independent ML searches:\n", inferences);
  double best = -1e300;
  std::unique_ptr<phylo::Tree> best_tree;
  for (int i = 0; i < inferences; ++i) {
    phylo::SearchResult res = phylo::search(engine, rng);
    std::printf("  search %d: lnL = %.4f (%d NNI moves accepted)\n", i + 1,
                res.loglik, res.nni_accepted);
    if (res.loglik > best) {
      best = res.loglik;
      best_tree = std::make_unique<phylo::Tree>(std::move(res.tree));
    }
  }
  std::printf("best-known ML tree: lnL = %.4f\n%s\n\n", best,
              best_tree->newick().c_str());

  // Bootstrap replicates: each one's tree feeds the support values and its
  // kernel trace feeds the scheduler replay.
  std::printf("Running %d bootstrap replicates:\n", bootstraps);
  util::Rng master(seed + 1);
  task::Workload workload;
  std::vector<phylo::Tree> replicate_trees;
  for (int b = 0; b < bootstraps; ++b) {
    util::Rng boot_rng = master.split();
    phylo::TraceGenerator gen;
    replicate_trees.push_back(
        phylo::run_bootstrap(patterns, model, boot_rng, {}, &gen).tree);
    const task::ProcessTrace& trace =
        workload.bootstraps.emplace_back(gen.take_trace());
    std::printf("  replicate %d: %zu off-loadable kernel calls, "
                "%.1f ms of SPE work\n", b + 1, trace.segments.size(),
                trace.total_spe_cycles() / 3.2e6);
  }

  // Bootstrap support for the best tree's internal branches (what the
  // replicates are *for*, Section 3.1).
  const auto support = phylo::branch_support(*best_tree, replicate_trees);
  const auto internal = best_tree->internal_edges();
  std::printf("\nbootstrap support of the best tree's internal branches:\n");
  for (std::size_t i = 0; i < support.size(); ++i) {
    std::printf("  branch %2d: %.0f%%\n", internal[i], support[i] * 100.0);
  }

  // Replay the real task streams on the simulated Cell under MGPS.
  rt::MgpsPolicy mgps;
  rt::EdtlpPolicy edtlp;
  const rt::RunResult rm = rt::run_workload(workload, mgps, {});
  const rt::RunResult re = rt::run_workload(workload, edtlp, {});
  std::printf("\nSimulated Cell BE replay of the bootstrap phase:\n");
  std::printf("  EDTLP: %s   (SPE utilization %.1f%%)\n",
              util::Table::seconds(re.makespan_s).c_str(),
              re.mean_spe_utilization * 100);
  std::printf("  MGPS : %s   (SPE utilization %.1f%%, mean loop degree "
              "%.2f)\n", util::Table::seconds(rm.makespan_s).c_str(),
              rm.mean_spe_utilization * 100, rm.mean_loop_degree);
  return 0;
}
