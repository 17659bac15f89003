// The checkpointed bootstrap driver: runs a RunState's remaining replicates
// (each one a real phylogenetic bootstrap whose kernel trace is replayed
// through the simulated Cell under MGPS), writing a crash-consistent
// checkpoint every `checkpoint_every` replicates.  Replicates run two at a
// time on host threads and are committed in replicate order.  Because each
// replicate is a pure function of the master RNG stream and the job config,
// a run resumed from any checkpoint produces bit-identical final
// likelihoods, support values, and scheduler counters to an uninterrupted
// run.
#pragma once

#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"

namespace cbe::ckpt {

/// A snapshot write that still fails after every retry does not abort the
/// run: the job keeps computing, later boundaries try again, and the final
/// error is surfaced through RunReport::ckpt_error.
struct RunnerOptions {
  /// Where to write checkpoints; empty disables checkpointing.
  std::string checkpoint_path;
  /// Snapshot cadence in replicates (the last replicate always snapshots).
  int checkpoint_every = 1;
};

/// Deterministic end-of-job report.  to_text() is byte-stable across
/// kill/resume: two runs of the same job produce identical text no matter
/// how many times either was interrupted.
struct RunReport {
  double reference_loglik = 0.0;         ///< the best-known ML tree's lnL
  std::vector<double> replicate_logliks; ///< per-replicate final lnL
  std::vector<double> support;           ///< bootstrap support per branch
  SchedCounters sched;
  int total_bootstraps = 0;

  // Checkpoint-write health (excluded from to_text(): the report text must
  // stay byte-identical across runs that saw different I/O weather).
  int ckpt_io_retries = 0;      ///< transient write failures retried away
  int ckpt_failed_snapshots = 0;///< boundaries whose snapshot was given up on
  std::string ckpt_error;       ///< last unrecoverable write error; "" = none

  std::string to_text() const;
};

/// Runs `st` to completion (possibly from a resumed position) and reports.
/// Mutates `st` as it goes so the caller's copy reflects final progress.
RunReport run_job(RunState& st, const RunnerOptions& opt = {});

namespace test_hooks {
/// Makes replicate `index` (counted from the job's first) throw
/// std::runtime_error as it starts; -1 restores normal behaviour.
void fail_replicate(int index) noexcept;
}  // namespace test_hooks

}  // namespace cbe::ckpt
