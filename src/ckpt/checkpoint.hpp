// Domain-level checkpoint state for the long-running bootstrap job (the
// paper's headline workload): which replicates are done, the exact RNG
// stream position, every completed replicate's tree and likelihood, the
// accumulated scheduler counters from the per-replicate Cell replays, and
// the crash-clock position.  Everything downstream of this state is a pure
// deterministic function of it, which is what makes a resumed run
// bit-identical to an uninterrupted one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "phylo/search.hpp"
#include "phylo/tree.hpp"
#include "util/rng.hpp"

namespace cbe::ckpt {

/// Everything needed to (re)start the job from scratch; stored in the
/// checkpoint so a resume needs no command line beyond --resume.
struct BootstrapJob {
  // Synthetic-alignment inputs (regenerated deterministically on startup;
  // only the recipe is stored).
  int taxa = 16;
  int sites = 300;
  std::uint64_t alignment_seed = 4242;
  double mean_branch_length = 0.02;

  std::uint64_t seed = 2024;  ///< master RNG seed
  int bootstraps = 8;         ///< total replicates to run
  phylo::SearchConfig search;
  std::uint64_t fault_seed = 0;  ///< namespace for the die-at-event fault

  // Data-integrity replay knobs (DESIGN.md §11): each replicate's Cell
  // replay runs under this seeded silent-corruption plan.  Stored in the
  // checkpoint because a resumed run must replay the exact same corruption
  // weather a continuous run would have seen.
  double dma_bitflip_rate = 0.0;
  double result_corrupt_rate = 0.0;
  double verify_fraction = 0.0;  ///< > 0 also turns on CRC framing
};

/// Additive scheduler/runtime accumulators from replaying each replicate's
/// kernel trace through the simulated Cell under MGPS.  Per-replicate
/// replays are independent and deterministic, so these sums are identical
/// whether the run was interrupted or not.
struct SchedCounters {
  std::uint64_t kernels = 0;        ///< off-loadable kernel calls generated
  std::uint64_t offloads = 0;       ///< tasks dispatched to simulated SPEs
  std::uint64_t loop_splits = 0;    ///< offloads that used LLP
  std::uint64_t ppe_fallbacks = 0;  ///< tasks the policy kept on the PPE
  std::uint64_t code_loads = 0;     ///< SPE code DMAs
  std::uint64_t sim_events = 0;     ///< simulator events processed
  double dma_bytes = 0.0;           ///< DMA payload bytes moved
  double sim_seconds = 0.0;         ///< summed per-replicate makespans
  double loop_degree_sum = 0.0;     ///< summed per-replicate mean degrees

  friend bool operator==(const SchedCounters&, const SchedCounters&) =
      default;
};

struct Replicate {
  double loglik = 0.0;
  phylo::Tree tree;
};

/// The complete resumable state of a bootstrap job.
struct RunState {
  BootstrapJob job;
  util::RngState master;  ///< master RNG after done.size() splits
  std::vector<Replicate> done;
  SchedCounters sched;
  std::int64_t crash_position = 0;  ///< crash-clock events consumed
};

/// Why `job` cannot run: a taxon, site or bootstrap count or an
/// integrity rate out of range.  Empty for a valid job.  make_fresh and
/// load both check it, so no job starts that its own checkpoint would fail.
std::string job_error(const BootstrapJob& job);

/// Initial state for a cold start; throws std::invalid_argument when
/// job_error(job) is not empty.
RunState make_fresh(const BootstrapJob& job);

/// Serializes `st` and writes it crash-consistently (see format.hpp),
/// retrying transient I/O failures up to kMaxAttempts times.  Returns the
/// number of write attempts used (1 = clean write); throws CkptError once
/// retries are exhausted or on a non-transient error.
int save(const std::string& path, const RunState& st);

/// Parses and fully validates a checkpoint; throws CkptError with a
/// distinct kind/section for every corruption mode.
RunState load(const std::string& path);

// Image-level hooks shared with tests (corrupt-one-section testing).
CheckpointImage to_image(const RunState& st);
RunState from_image(const CheckpointImage& image);

}  // namespace cbe::ckpt
