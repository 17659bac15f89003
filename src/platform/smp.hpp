// Queueing models of the comparison machines in Figure 10: a 2-processor
// Hyper-Threaded Xeon SMP and an IBM Power5 (2 cores x 2 SMT threads).
// Both run the embarrassingly parallel MPI bootstrap workload master-worker
// style over their hardware contexts; a context's throughput degrades by the
// SMT factor while its core sibling is busy.
//
// Calibration (documented in EXPERIMENTS.md): per-bootstrap single-thread
// times are set so the published endpoints hold — the paper reports one Cell
// about 4x faster than the dual Xeon and 5-10% faster than the Power5 once
// at least 8 bootstraps run.
#pragma once

#include <string>
#include <vector>

namespace cbe::platform {

struct SmtMachineConfig {
  std::string name;
  int sockets = 1;
  int cores_per_socket = 1;
  int threads_per_core = 2;
  /// Seconds for one bootstrap on one otherwise-idle core.
  double bootstrap_seconds = 30.0;
  /// Slowdown of a context while its SMT sibling(s) are busy.
  double smt_slowdown = 1.35;

  /// 2 x Intel Xeon with Hyper-Threading at 2 GHz (the paper used two
  /// processors of a 4-way PowerEdge 6650, stirring the comparison in the
  /// Xeon's favour).
  static SmtMachineConfig xeon() {
    return {"Intel Xeon (2x HT)", 2, 1, 2, 62.0, 1.40};
  }
  /// IBM Power5: dual-core, each core 2-way SMT, 1.6 GHz.
  static SmtMachineConfig power5() {
    return {"IBM Power5", 1, 2, 2, 17.8, 1.30};
  }
};

/// Makespan (seconds) of `bootstraps` independent runs, scheduled
/// master-worker over the machine's contexts.
double run_bootstraps(const SmtMachineConfig& cfg, int bootstraps);

/// Completion times of each bootstrap, for utilization analysis.
std::vector<double> bootstrap_completions(const SmtMachineConfig& cfg,
                                          int bootstraps);

}  // namespace cbe::platform
