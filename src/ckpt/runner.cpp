#include "ckpt/runner.hpp"

#include <atomic>
#include <future>
#include <optional>
#include <stdexcept>

#include "native/offload_pool.hpp"
#include "phylo/bootstrap.hpp"
#include "phylo/support.hpp"
#include "runtime/mgps.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/fault.hpp"
#include "util/table.hpp"

namespace cbe::ckpt {

namespace {

// Independent stream for the reference ML search, domain-separated from the
// replicate master stream so neither perturbs the other.
constexpr std::uint64_t kReferenceSalt = 0x5245464552454e43ull;  // "REFERENC"
// Per-replicate corruption-plan namespace: salted by the absolute replicate
// index, so the corruption weather a replicate's Cell replay sees is a pure
// function of (job, index) — identical whether or not the run was resumed.
constexpr std::uint64_t kIntegritySalt = 0x494e544547524954ull;  // "INTEGRIT"

// Replicate searches in flight at once.  Each holds a likelihood engine of
// about 3.5 MB (its CLVs span only the patterns its resample drew, about
// two thirds of them); two search streams fit in the footprint of the
// serial runner, whose reference engine stayed alive beside each
// replicate's.  The thread that calls run_job replays and commits, so the
// job keeps three cores busy without a third engine (DESIGN.md §7).
constexpr int kReplicateStreams = 2;

std::atomic<int> g_fail_replicate{-1};

/// What one replicate's search hands to the commit stage: its result and
/// its kernel calls, recorded but not yet rendered (12 B a call against
/// 88 B a rendered segment).
struct ReplicateOut {
  phylo::BootstrapResult result;
  phylo::TraceGenerator gen;
};

// One replicate's bootstrap search.  It only reads the shared inputs, so
// replicates run concurrently.
ReplicateOut run_replicate(const BootstrapJob& job,
                           const phylo::PatternAlignment& patterns,
                           const phylo::SubstModel& model,
                           const phylo::TipClvs& tips, util::Rng rng,
                           int index) {
  if (index == g_fail_replicate.load()) {
    throw std::runtime_error("replicate " + std::to_string(index) +
                             ": injected failure");
  }
  phylo::TraceGenerator gen;
  phylo::BootstrapResult result =
      phylo::run_bootstrap(patterns, model, rng, job.search, &gen, &tips);
  return ReplicateOut{std::move(result), std::move(gen)};
}

// The replicate's kernel trace replayed through the simulated Cell under
// MGPS, with the replicate's own corruption plan.
rt::RunResult replay(const BootstrapJob& job, const task::Workload& wl,
                     int index) {
  rt::MgpsPolicy mgps;
  rt::RunConfig rcfg;
  if (job.dma_bitflip_rate > 0.0 || job.result_corrupt_rate > 0.0 ||
      job.verify_fraction > 0.0) {
    std::uint64_t stream =
        job.fault_seed ^ (kIntegritySalt + static_cast<std::uint64_t>(index));
    rcfg.fault.seed = util::splitmix64(stream);
    rcfg.fault.dma_bitflip_rate = job.dma_bitflip_rate;
    rcfg.fault.result_corrupt_rate = job.result_corrupt_rate;
    rcfg.integrity.verify_fraction = job.verify_fraction;
    rcfg.integrity.crc_framing = job.verify_fraction > 0.0;
  }
  return rt::run_workload(wl, mgps, rcfg);
}

}  // namespace

namespace test_hooks {

void fail_replicate(int index) noexcept { g_fail_replicate.store(index); }

}  // namespace test_hooks

std::string RunReport::to_text() const {
  std::string out;
  out += "# cellmg bootstrap-job report v1\n";
  out += "bootstraps " + std::to_string(total_bootstraps) + "\n";
  out += "reference_lnL " + util::fmt_f64(reference_loglik) + "\n";
  for (std::size_t i = 0; i < replicate_logliks.size(); ++i) {
    out += "replicate " + std::to_string(i) + " lnL " +
           util::fmt_f64(replicate_logliks[i]) + "\n";
  }
  for (std::size_t i = 0; i < support.size(); ++i) {
    out += "support " + std::to_string(i) + " " + util::fmt_f64(support[i]) + "\n";
  }
  out += "sched kernels " + std::to_string(sched.kernels) + "\n";
  out += "sched offloads " + std::to_string(sched.offloads) + "\n";
  out += "sched loop_splits " + std::to_string(sched.loop_splits) + "\n";
  out += "sched ppe_fallbacks " + std::to_string(sched.ppe_fallbacks) + "\n";
  out += "sched code_loads " + std::to_string(sched.code_loads) + "\n";
  out += "sched sim_events " + std::to_string(sched.sim_events) + "\n";
  out += "sched dma_bytes " + util::fmt_f64(sched.dma_bytes) + "\n";
  out += "sched sim_seconds " + util::fmt_f64(sched.sim_seconds) + "\n";
  out += "sched loop_degree_sum " + util::fmt_f64(sched.loop_degree_sum) + "\n";
  return out;
}

RunReport run_job(RunState& st, const RunnerOptions& opt) {
  const BootstrapJob& job = st.job;

  // Inputs are regenerated deterministically from the job recipe; only the
  // recipe lives in the checkpoint.
  phylo::SyntheticAlignmentConfig acfg;
  acfg.taxa = job.taxa;
  acfg.sites = job.sites;
  acfg.seed = job.alignment_seed;
  acfg.mean_branch_length = job.mean_branch_length;
  const phylo::Alignment alignment = phylo::make_synthetic_alignment(acfg);
  const phylo::PatternAlignment patterns(alignment);
  const phylo::SubstModel model(
      phylo::GtrParams::hky(2.5, patterns.base_frequencies()), 0.8);
  const phylo::TipClvs tips = phylo::make_tip_clvs(patterns);

  // Each replicate consumes exactly one split of the master stream.  All
  // splits are drawn here, in replicate order, and the master state after
  // each one is kept for that replicate's commit: the checkpoint stores it,
  // so a resumed run derives the next replicate's stream identically.
  const int first = static_cast<int>(st.done.size());
  const int total = job.bootstraps;
  util::Rng master(st.master);
  std::vector<util::Rng> streams;
  std::vector<util::RngState> master_after;
  for (int i = first; i < total; ++i) {
    streams.push_back(master.split());
    master_after.push_back(master.state());
  }

  // A two-stage pipeline.  The reference search and the replicate searches
  // run as work items on the pool's streams; this thread takes each
  // replicate strictly in order, renders and replays its trace, and
  // commits it.
  // The pool is declared after everything its tasks read, and its
  // destructor runs every queued task and joins, so no task outlives those
  // locals.  `stop` is set on every exit first: a task that has not started
  // by then returns at once instead of running its replicate.
  std::atomic<bool> stop{false};
  native::OffloadPool pool(kReplicateStreams);
  struct StopOnExit {
    std::atomic<bool>& stop;
    ~StopOnExit() { stop.store(true); }
  } stop_on_exit{stop};

  // The reference (best-known ML) tree the replicates assign support to.
  // Recomputed on every run — including resumed ones — from its own salted
  // stream, so it is identical regardless of where the run restarted.
  std::future<phylo::SearchResult> reference_done = pool.offload_result([&] {
    phylo::LikelihoodEngine engine(patterns, model, tips, patterns.weights());
    util::Rng ref_rng(job.seed ^ kReferenceSalt);
    return phylo::search(engine, ref_rng, job.search);
  });
  std::vector<std::future<std::optional<ReplicateOut>>> replicate_done;
  for (std::size_t k = 0; k < streams.size(); ++k) {
    replicate_done.push_back(
        pool.offload_result([&, k]() -> std::optional<ReplicateOut> {
          if (stop.load()) return std::nullopt;
          return run_replicate(job, patterns, model, tips, streams[k],
                               first + static_cast<int>(k));
        }));
  }
  // Waited for first, so a failing reference search throws before any
  // replicate is committed, as in a serial run.
  const phylo::SearchResult reference = reference_done.get();

  const int every = opt.checkpoint_every > 0 ? opt.checkpoint_every : 1;
  int ckpt_io_retries = 0;
  int ckpt_failed_snapshots = 0;
  std::string ckpt_error;
  for (int i = first; i < total; ++i) {
    const auto k = static_cast<std::size_t>(i - first);
    // A replicate that threw rethrows here, in replicate order.
    ReplicateOut out = *replicate_done[k].get();
    task::Workload wl;
    wl.bootstraps.push_back(out.gen.take_trace());
    const rt::RunResult rr = replay(job, wl, i);

    // The replay's counters are independent per replicate, hence additive
    // and resume-invariant.
    st.sched.kernels += wl.bootstraps.front().segments.size();
    st.sched.offloads += rr.offloads;
    st.sched.loop_splits += rr.loop_splits;
    st.sched.ppe_fallbacks += rr.ppe_fallbacks;
    st.sched.code_loads += rr.code_loads;
    st.sched.sim_events += rr.events;
    st.sched.dma_bytes += rr.dma_bytes;
    st.sched.sim_seconds += rr.makespan_s;
    st.sched.loop_degree_sum += rr.mean_loop_degree;

    st.done.push_back(Replicate{out.result.loglik, std::move(out.result.tree)});
    st.master = master_after[k];

    // Replicate boundary: one crash-clock event (kill-and-resume tests aim
    // die-at-event faults here), then possibly a snapshot.
    sim::crash_clock_tick();
    st.crash_position = sim::crash_clock_position();
    if (!opt.checkpoint_path.empty() &&
        ((i + 1) % every == 0 || i + 1 == total)) {
      // A snapshot that fails after every retry must not burn the hours of
      // computed progress behind it: record the error in the report (the
      // run's result), keep going, and try again at the next boundary.
      try {
        ckpt_io_retries += save(opt.checkpoint_path, st) - 1;
      } catch (const CkptError& e) {
        ++ckpt_failed_snapshots;
        ckpt_error = std::string(error_kind_name(e.kind())) + ": " + e.what();
      }
      st.crash_position = sim::crash_clock_position();
    }
  }

  RunReport report;
  report.total_bootstraps = total;
  report.reference_loglik = reference.loglik;
  std::vector<phylo::Tree> replicate_trees;
  replicate_trees.reserve(st.done.size());
  for (const Replicate& rep : st.done) {
    report.replicate_logliks.push_back(rep.loglik);
    replicate_trees.push_back(rep.tree);
  }
  report.support = phylo::branch_support(reference.tree, replicate_trees);
  report.sched = st.sched;
  report.ckpt_io_retries = ckpt_io_retries;
  report.ckpt_failed_snapshots = ckpt_failed_snapshots;
  report.ckpt_error = std::move(ckpt_error);
  return report;
}

}  // namespace cbe::ckpt
