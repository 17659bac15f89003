// Quickstart: simulate a RAxML-like workload on the Cell machine model
// under the four scheduling policies from the paper and compare makespans.
//
//   build/examples/quickstart [--bootstraps=N] [--tasks=M]
//
// Shows the core API loop: build a Workload, pick a SchedulerPolicy, call
// run_workload, read the RunResult.
#include <cstdio>
#include <vector>

#include "runtime/mgps.hpp"
#include "runtime/policy.hpp"
#include "runtime/sim_runtime.hpp"
#include "task/synthetic.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cbe;
  util::Cli cli(argc, argv);
  const int bootstraps = static_cast<int>(cli.get_int("bootstraps", 6));

  // 1. A workload: B independent bootstraps, each a stream of off-loadable
  //    tasks calibrated to the paper's RAxML statistics.
  task::SyntheticConfig scfg;
  scfg.tasks_per_bootstrap = static_cast<int>(cli.get_int("tasks", 500));
  cli.enforce_usage_or_exit("quickstart [--bootstraps=N] [--tasks=M]");
  const task::Workload workload = task::make_synthetic(bootstraps, scfg);

  // 2. A machine: one Cell BE (PPE + 8 SPEs) with default parameters.
  rt::RunConfig config;

  // 3. Policies: the Linux baseline, EDTLP, a static hybrid, and MGPS.
  rt::LinuxPolicy linux_policy;
  rt::EdtlpPolicy edtlp;
  rt::StaticHybridPolicy hybrid4(4);
  rt::MgpsPolicy mgps;

  util::Table table("Quickstart: " + std::to_string(bootstraps) +
                    " bootstraps on one simulated Cell BE");
  table.header({"policy", "makespan", "SPE util", "offloads",
                "avg loop degree", "ctx switches"});
  const std::vector<rt::SchedulerPolicy*> policies = {&linux_policy, &edtlp,
                                                      &hybrid4, &mgps};
  for (rt::SchedulerPolicy* policy : policies) {
    const rt::RunResult r = rt::run_workload(workload, *policy, config);
    table.row({policy->name(), util::Table::seconds(r.makespan_s),
               util::Table::num(r.mean_spe_utilization * 100, 1) + "%",
               std::to_string(r.offloads),
               util::Table::num(r.mean_loop_degree),
               std::to_string(r.ctx_switches)});
  }
  table.print();
  std::printf("\nMGPS adapts between task- and loop-level parallelism; with "
              "%d bootstraps it should match or beat the static policies.\n",
              bootstraps);
  return 0;
}
