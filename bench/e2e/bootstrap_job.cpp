// bootstrap_job: the paper's application end to end.  ckpt::run_job runs
// real RAxML-style bootstrap replicates on the 42_SC-shaped alignment,
// replays each replicate's kernel trace through the simulated Cell under
// MGPS, and writes a checkpoint after every replicate.
//
// The first pass is a split run (half the replicates, load the checkpoint,
// extend to all of them); every later pass runs uninterrupted and must
// reproduce its report byte for byte.  The traced pass rebuilds run_job from
// its public calls so each call can carry a span, and must reproduce the
// same report too.
#include <filesystem>
#include <optional>

#include "ckpt/runner.hpp"
#include "e2e.hpp"
#include "phylo/alignment.hpp"
#include "phylo/bootstrap.hpp"
#include "phylo/model.hpp"
#include "phylo/support.hpp"
#include "runtime/mgps.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/trace.hpp"

namespace cbe::e2e {
namespace {

constexpr int kReplicates = 16;
// ckpt::run_job's reference-search stream salt ("REFERENC"); the traced
// mirror must use the same one to reproduce run_job's report.
constexpr std::uint64_t kReferenceSalt = 0x5245464552454e43ull;

/// TraceGenerator plus per-kernel timing and per-class counts.
class TimedTraceGen final : public phylo::KernelObserver {
 public:
  void on_kernel(task::KernelClass kind, int patterns,
                 int newton_iters) override {
    ++calls[static_cast<int>(kind)];
    const auto t0 = Clock::now();
    gen.on_kernel(kind, patterns, newton_iters);
    ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count();
  }

  phylo::TraceGenerator gen;
  std::int64_t ns = 0;
  std::uint64_t calls[4] = {};
};

std::vector<std::uint8_t> image_bytes(const ckpt::RunState& st) {
  return ckpt::to_image(st).serialize();
}

class BootstrapJob final : public Workload {
 public:
  explicit BootstrapJob(const Options& opt)
      : path_(opt.workdir + "/bootstrap_job.ckpt") {
    job_.taxa = 42;
    job_.sites = 1167;
    job_.mean_branch_length = 0.004;
    job_.seed = derive_seed(opt.seed, 0xb007);
    job_.bootstraps = opt.smoke ? 2 : kReplicates;
  }

  // The alignment is the fixed 42_SC-shaped dataset (the recipe's default
  // alignment seed); the benchmark seed drives the master stream, i.e. the
  // bootstrap resampling and every search's random start.  run_job
  // regenerates the alignment from the recipe itself; building it here is
  // the input set-up a caller pays once.
  void setup(Spans* spans) override {
    Scope s(spans, "phylo.alignment");
    phylo::SyntheticAlignmentConfig acfg;
    acfg.taxa = job_.taxa;
    acfg.sites = job_.sites;
    acfg.seed = job_.alignment_seed;
    acfg.mean_branch_length = job_.mean_branch_length;
    patterns_ = phylo::PatternAlignment(phylo::make_synthetic_alignment(acfg))
                    .patterns();
  }

  PassResult pass(Spans* spans, Layers* layers) override {
    PassResult r;
    r.attempted = static_cast<std::uint64_t>(job_.bootstraps);
    ckpt::RunnerOptions ro;
    ro.checkpoint_path = path_;
    ckpt::RunState st;
    ckpt::RunReport rep;
    if (layers) {
      rep = traced_run(spans, *layers, st);
    } else if (reference_.empty()) {
      rep = split_run(ro, st);
    } else {
      st = ckpt::make_fresh(job_);
      rep = ckpt::run_job(st, ro);
    }
    const std::string text = rep.to_text();
    if (reference_.empty()) reference_ = text;

    ckpt::RunState back;
    {
      Scope s(spans, "ckpt.load");
      back = ckpt::load(path_);
    }
    // run_job advances crash_position past the snapshot's own crash-clock
    // ticks after writing it; every other field must match exactly.
    back.crash_position = st.crash_position;
    const bool same_state = image_bytes(back) == image_bytes(st);
    const bool same_text = text == reference_;
    r.check(same_state, "loaded checkpoint differs from the final state");
    r.check(same_text, "report differs from the first (split) run's report");
    r.check(rep.ckpt_failed_snapshots == 0,
            "checkpoint writes failed: " + rep.ckpt_error);
    if (!same_state || !same_text || rep.ckpt_failed_snapshots > 0) {
      r.failed = r.attempted;
    }
    r.exact["sim_makespan_s"] = rep.sched.sim_seconds;
    r.exact["sim_events"] = static_cast<double>(rep.sched.sim_events);
    r.tasks = rep.sched.kernels;
    r.exact["kernels"] = static_cast<double>(rep.sched.kernels);
    r.exact["reference_lnL"] = rep.reference_loglik;
    r.exact["patterns"] = patterns_;
    return r;
  }

 private:
  // Half the replicates, then resume from the checkpoint file and extend.
  ckpt::RunReport split_run(const ckpt::RunnerOptions& ro,
                            ckpt::RunState& st) {
    ckpt::BootstrapJob half = job_;
    half.bootstraps = job_.bootstraps / 2;
    ckpt::RunState first = ckpt::make_fresh(half);
    ckpt::run_job(first, ro);
    st = ckpt::load(path_);
    st.job.bootstraps = job_.bootstraps;
    return ckpt::run_job(st, ro);
  }

  // run_job rebuilt from its public calls (see ckpt/runner.cpp), one span
  // per call.  Checkpoint integrity knobs stay off, as in the timed passes.
  ckpt::RunReport traced_run(Spans* spans, Layers& layers,
                             ckpt::RunState& st) {
    phylo::SyntheticAlignmentConfig acfg;
    acfg.taxa = job_.taxa;
    acfg.sites = job_.sites;
    acfg.seed = job_.alignment_seed;
    acfg.mean_branch_length = job_.mean_branch_length;
    std::optional<phylo::PatternAlignment> patterns;
    {
      Scope s(spans, "phylo.alignment");
      patterns.emplace(phylo::make_synthetic_alignment(acfg));
    }
    const phylo::SubstModel model(
        phylo::GtrParams::hky(2.5, patterns->base_frequencies()), 0.8);

    std::optional<phylo::SearchResult> reference;
    std::uint64_t kernels = 0;
    {
      Scope s(spans, "phylo.search");
      phylo::LikelihoodEngine engine(*patterns, model);
      util::Rng ref_rng(job_.seed ^ kReferenceSalt);
      reference = phylo::search(engine, ref_rng, job_.search);
      kernels += engine.kernel_calls();
    }

    st = ckpt::make_fresh(job_);
    util::Rng master(0);
    master.set_state(st.master);
    for (int i = 0; i < job_.bootstraps; ++i) {
      spans->set_request(static_cast<std::uint32_t>(i));
      util::Rng rng = master.split();
      TimedTraceGen gen;
      std::optional<phylo::BootstrapResult> res;
      {
        Scope s(spans, "phylo.bootstrap");
        const std::int64_t start = spans->now_ns();
        res = phylo::run_bootstrap(*patterns, model, rng, job_.search, &gen);
        spans->add_summed("phylo.tracegen", start, gen.ns);
      }
      const auto segments = gen.gen.trace().segments.size();
      st.sched.kernels += segments;
      kernels += segments;
      layers["phylo.kernels.newview"] += static_cast<double>(
          gen.calls[static_cast<int>(task::KernelClass::Newview)]);
      layers["phylo.kernels.evaluate"] += static_cast<double>(
          gen.calls[static_cast<int>(task::KernelClass::Evaluate)]);
      layers["phylo.kernels.makenewz"] += static_cast<double>(
          gen.calls[static_cast<int>(task::KernelClass::Makenewz)]);

      task::Workload wl;
      wl.bootstraps.push_back(gen.gen.take_trace());
      rt::MgpsPolicy mgps;
      rt::RunConfig rcfg;
      trace::TraceSink sink;
      if (i == 0) rcfg.trace = &sink;  // the representative replay
      rt::RunResult rr;
      {
        Scope s(spans, "runtime.host");
        rr = rt::run_workload(wl, mgps, rcfg);
      }
      layers["trace.events"] += static_cast<double>(sink.size());
      layers["runtime.offloads"] += static_cast<double>(rr.offloads);
      layers["runtime.loop_splits"] += static_cast<double>(rr.loop_splits);
      layers["runtime.ppe_fallbacks"] += static_cast<double>(rr.ppe_fallbacks);
      layers["runtime.ctx_switches"] += static_cast<double>(rr.ctx_switches);
      layers["runtime.code_loads"] += static_cast<double>(rr.code_loads);
      layers["cellsim.dma_bytes"] += rr.dma_bytes;
      layers["sim.events"] += static_cast<double>(rr.events);
      st.sched.offloads += rr.offloads;
      st.sched.loop_splits += rr.loop_splits;
      st.sched.ppe_fallbacks += rr.ppe_fallbacks;
      st.sched.code_loads += rr.code_loads;
      st.sched.sim_events += rr.events;
      st.sched.dma_bytes += rr.dma_bytes;
      st.sched.sim_seconds += rr.makespan_s;
      st.sched.loop_degree_sum += rr.mean_loop_degree;

      st.done.push_back(ckpt::Replicate{res->loglik, std::move(res->tree)});
      st.master = master.state();
      {
        Scope s(spans, "ckpt.save");
        ckpt::save(path_, st);
      }
      layers["ckpt.saves"] += 1.0;
      layers["ckpt.snapshot_bytes"] =
          static_cast<double>(std::filesystem::file_size(path_));
    }
    layers["phylo.kernel_calls"] = static_cast<double>(kernels);
    layers["runtime.mean_loop_degree"] =
        st.sched.loop_degree_sum / static_cast<double>(job_.bootstraps);

    ckpt::RunReport rep;
    rep.total_bootstraps = job_.bootstraps;
    rep.reference_loglik = reference->loglik;
    std::vector<phylo::Tree> trees;
    for (const ckpt::Replicate& d : st.done) {
      rep.replicate_logliks.push_back(d.loglik);
      trees.push_back(d.tree);
    }
    {
      Scope s(spans, "phylo.support");
      rep.support = phylo::branch_support(reference->tree, trees);
    }
    rep.sched = st.sched;
    return rep;
  }

  ckpt::BootstrapJob job_;
  std::string path_;
  int patterns_ = 0;
  std::string reference_;  ///< the split run's report text
};

}  // namespace

std::unique_ptr<Workload> make_bootstrap_job(const Options& opt) {
  return std::make_unique<BootstrapJob>(opt);
}

}  // namespace cbe::e2e
