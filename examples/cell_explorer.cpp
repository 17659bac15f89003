// Design-space exploration with the Cell machine model: how do the
// scheduling policies respond as the chip itself changes?  Sweeps the SPE
// count (the paper's "future system scaling" discussion, Section 5.5) and
// the PPE context-switch cost (the EDTLP enabler, Section 5.2).
//
// A third sweep appears when fault injection is requested on the command
// line: --fault-seed=S with any of --spe-fail-rate, --dma-fail-rate, or
// --straggler enables the seeded fault plan (see DESIGN.md "Fault model")
// and reports per-policy degradation against the fault-free run.
//
// Structured tracing: --trace=<file> writes Chrome trace_event JSON (open in
// chrome://tracing or Perfetto) and --trace-text=<file> the deterministic
// text format, both captured from one fault-injected MGPS run so the
// recovery machinery (watchdog, re-offload, PPE fallback) shows up in the
// timeline.  --metrics=<file> writes that run's metrics JSON.
//
// Checkpoint/restart (see DESIGN.md "Checkpoint/restart"): --checkpoint or
// --resume switches to the long-running bootstrap job, snapshotting
// progress crash-consistently every --checkpoint-every replicates.
// --die-at-event=N arms the process-level kill switch for kill-and-resume
// testing; --out writes the deterministic end-of-job report.
//
//   build/examples/cell_explorer [--bootstraps=N] [--fault-seed=S]
//       [--spe-fail-rate=P] [--dma-fail-rate=P] [--straggler=P]
//       [--straggler-factor=F] [--trace=F] [--trace-text=F] [--metrics=F]
//       [--checkpoint=F] [--checkpoint-every=N] [--resume=F]
//       [--die-at-event=N] [--taxa=N] [--sites=N] [--seed=S] [--out=F]
//       [--strict-resume]
#include <cstdio>

#include "ckpt/runner.hpp"
#include "runtime/mgps.hpp"
#include "runtime/policy.hpp"
#include "runtime/sim_runtime.hpp"
#include "task/synthetic.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

constexpr const char kUsage[] =
    "cell_explorer [--bootstraps=N] [--tasks=N] [--fault-seed=S]\n"
    "    [--spe-fail-rate=P] [--dma-fail-rate=P] [--straggler=P]\n"
    "    [--straggler-factor=F] [--fault-bitflip-rate=P]\n"
    "    [--verify-fraction=X] [--trace=F] [--trace-text=F] [--metrics=F]\n"
    "    [--checkpoint=F] [--checkpoint-every=N] [--resume=F]\n"
    "    [--die-at-event=N] [--taxa=N] [--sites=N] [--seed=S] [--out=F]\n"
    "    [--strict-resume]";

// The long-running checkpointed bootstrap job (kill-and-resume workload).
int run_checkpointed_job(const std::string& checkpoint,
                         const std::string& resume, int checkpoint_every,
                         std::int64_t die_at_event, bool strict_resume,
                         const cbe::ckpt::BootstrapJob& job,
                         const std::string& out_path) {
  using namespace cbe;
  ckpt::RunState st = ckpt::make_fresh(job);
  int resumed_at = 0;
  if (!resume.empty()) {
    try {
      st = ckpt::load(resume);
      resumed_at = static_cast<int>(st.done.size());
      if (st.job.seed != job.seed || st.job.bootstraps != job.bootstraps ||
          st.job.taxa != job.taxa || st.job.sites != job.sites) {
        std::fprintf(stderr,
                     "resume: checkpoint job (seed %llu, %d bootstraps, "
                     "%dx%d) disagrees with the command line; the "
                     "checkpoint's job configuration wins\n",
                     static_cast<unsigned long long>(st.job.seed),
                     st.job.bootstraps, st.job.taxa, st.job.sites);
      }
    } catch (const ckpt::CkptError& e) {
      std::fprintf(stderr, "resume: rejected checkpoint '%s' [%s]: %s\n",
                   resume.c_str(), ckpt::error_kind_name(e.kind()),
                   e.what());
      if (strict_resume) return 1;
      std::fprintf(stderr, "resume: falling back to a cold start\n");
      st = ckpt::make_fresh(job);
      resumed_at = 0;
    }
  }

  // Arm the kill switch relative to the restored fault-plan position so
  // "event N" means the same absolute event across a crash.
  sim::arm_crash_clock(die_at_event, st.crash_position);

  ckpt::RunnerOptions opt;
  opt.checkpoint_path = checkpoint;
  opt.checkpoint_every = checkpoint_every;
  std::printf("bootstrap job: %d replicates (%d taxa x %d sites, seed %llu)",
              st.job.bootstraps, st.job.taxa, st.job.sites,
              static_cast<unsigned long long>(st.job.seed));
  if (resumed_at > 0) {
    std::printf(", resumed at replicate %d/%d", resumed_at,
                st.job.bootstraps);
  }
  std::printf("\n");

  const ckpt::RunReport report = ckpt::run_job(st, opt);
  const std::string text = report.to_text();
  std::fputs(text.c_str(), stdout);
  if (report.ckpt_io_retries > 0) {
    std::fprintf(stderr, "checkpoint: %d transient write failure(s) retried\n",
                 report.ckpt_io_retries);
  }
  if (!report.ckpt_error.empty()) {
    // The job itself completed; exit non-zero because its durability
    // guarantee did not hold (some snapshots were abandoned).
    std::fprintf(stderr,
                 "checkpoint: %d snapshot(s) abandoned after retries; last "
                 "error: %s\n",
                 report.ckpt_failed_snapshots, report.ckpt_error.c_str());
    return 1;
  }
  if (!out_path.empty()) {
    if (!trace::write_file(out_path, text)) {
      std::fprintf(stderr, "failed to write report to %s\n",
                   out_path.c_str());
      return 1;
    }
    std::printf("report written to %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cbe;
  util::Cli cli(argc, argv);

  // Query every flag before enforcing usage, so unknown-flag detection sees
  // the complete set regardless of which mode runs.
  const int bootstraps = static_cast<int>(cli.get_int("bootstraps", 4));
  task::SyntheticConfig scfg;
  scfg.tasks_per_bootstrap = static_cast<int>(cli.get_int("tasks", 400));

  sim::FaultConfig fc;
  fc.seed = static_cast<std::uint64_t>(cli.get_int("fault-seed", 2026));
  fc.spe_fail_rate = cli.get_double("spe-fail-rate", 0.0);
  fc.dma_fail_rate = cli.get_double("dma-fail-rate", 0.0);
  fc.straggler_rate = cli.get_double("straggler", 0.0);
  fc.straggler_factor = cli.get_double("straggler-factor",
                                       fc.straggler_factor);
  // One knob arms both silent-corruption channels (in-transit DMA flips and
  // wrong-but-well-framed results); --verify-fraction arms both detectors
  // (CRC framing plus sampled redundant execution).
  const double bitflip_rate = cli.get_double("fault-bitflip-rate", 0.0);
  const double verify_fraction = cli.get_double("verify-fraction", 0.0);
  fc.dma_bitflip_rate = bitflip_rate;
  fc.result_corrupt_rate = bitflip_rate;
  rt::IntegrityConfig integrity;
  integrity.verify_fraction = verify_fraction;
  integrity.crc_framing = verify_fraction > 0.0;
  const std::string trace_json = cli.get("trace", "");
  const std::string trace_text = cli.get("trace-text", "");
  const std::string metrics_path = cli.get("metrics", "");

  const std::string checkpoint = cli.get("checkpoint", "");
  const std::string resume = cli.get("resume", "");
  const int checkpoint_every =
      static_cast<int>(cli.get_int("checkpoint-every", 1));
  const std::int64_t die_at_event = cli.get_int("die-at-event", 0);
  const bool strict_resume = cli.get_bool("strict-resume", false);
  ckpt::BootstrapJob job;
  job.taxa = static_cast<int>(cli.get_int("taxa", job.taxa));
  job.sites = static_cast<int>(cli.get_int("sites", job.sites));
  job.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2024));
  job.bootstraps = bootstraps;
  job.fault_seed = fc.seed;
  job.dma_bitflip_rate = bitflip_rate;
  job.result_corrupt_rate = bitflip_rate;
  job.verify_fraction = verify_fraction;
  const std::string out_path = cli.get("out", "");

  cli.enforce_usage_or_exit(kUsage);

  if (!checkpoint.empty() || !resume.empty()) {
    if (const std::string why = ckpt::job_error(job); !why.empty()) {
      std::fprintf(stderr, "cell_explorer: %s\nusage: %s\n", why.c_str(),
                   kUsage);
      return 2;
    }
    return run_checkpointed_job(checkpoint, resume, checkpoint_every,
                                die_at_event, strict_resume, job, out_path);
  }

  const task::Workload workload = task::make_synthetic(bootstraps, scfg);

  {
    util::Table table("Sweep 1: SPEs per Cell (" +
                      std::to_string(bootstraps) + " bootstraps)");
    table.header({"SPEs", "EDTLP", "MGPS", "MGPS gain", "MGPS loop degree"});
    for (int spes : {2, 4, 6, 8, 12, 16}) {
      rt::RunConfig cfg;
      cfg.cell.spes_per_cell = spes;
      rt::EdtlpPolicy edtlp;
      rt::MgpsPolicy mgps;
      const auto re = rt::run_workload(workload, edtlp, cfg);
      const auto rm = rt::run_workload(workload, mgps, cfg);
      table.row({std::to_string(spes), util::Table::seconds(re.makespan_s),
                 util::Table::seconds(rm.makespan_s),
                 util::Table::num(re.makespan_s / rm.makespan_s) + "x",
                 util::Table::num(rm.mean_loop_degree)});
    }
    table.print();
    std::printf("With more SPEs than runnable tasks, only loop-level "
                "parallelism can use the extra cores - MGPS's gain grows "
                "with the SPE count.\n\n");
  }

  {
    util::Table table("Sweep 2: PPE context-switch cost, 8 bootstraps");
    table.header({"switch cost", "EDTLP", "Linux", "EDTLP gain"});
    const task::Workload wl8 = task::make_synthetic(8, scfg);
    for (double us : {0.5, 1.5, 5.0, 15.0, 50.0}) {
      rt::RunConfig cfg;
      cfg.cell.ctx_switch = sim::Time::us(us);
      rt::EdtlpPolicy edtlp;
      rt::LinuxPolicy linux_policy;
      const auto re = rt::run_workload(wl8, edtlp, cfg);
      const auto rl = rt::run_workload(wl8, linux_policy, cfg);
      table.row({util::Table::num(us, 1) + "us",
                 util::Table::seconds(re.makespan_s),
                 util::Table::seconds(rl.makespan_s),
                 util::Table::num(rl.makespan_s / re.makespan_s) + "x"});
    }
    table.print();
    std::printf("EDTLP's voluntary switches pay off as long as the switch "
                "cost stays well under the task granularity (96us); the "
                "Linux baseline is insensitive because it never switches "
                "on off-load.\n");
  }

  {
    if (fc.enabled()) {
      std::printf("\n");
      util::Table table("Sweep 3: fault injection (seed " +
                        std::to_string(fc.seed) + ", " +
                        std::to_string(bootstraps) + " bootstraps)");
      table.header({"policy", "fault-free", "faulty", "degradation",
                    "SPEs lost", "stragglers", "DMA retries", "re-offloads",
                    "PPE rescues"});
      rt::EdtlpPolicy e1, e2;
      rt::MgpsPolicy m1, m2;
      struct Row { const char* label; rt::SchedulerPolicy* clean_pol;
                   rt::SchedulerPolicy* fault_pol; };
      rt::RunResult last_faulty;
      for (const Row& p : {Row{"EDTLP", &e1, &e2}, Row{"MGPS", &m1, &m2}}) {
        const auto clean = rt::run_workload(workload, *p.clean_pol, {});
        rt::RunConfig cfg;
        cfg.fault = fc;
        cfg.integrity = integrity;
        const auto faulty = rt::run_workload(workload, *p.fault_pol, cfg);
        last_faulty = faulty;
        table.row({p.label, util::Table::seconds(clean.makespan_s),
                   util::Table::seconds(faulty.makespan_s),
                   util::Table::num(faulty.makespan_s / clean.makespan_s) +
                       "x",
                   std::to_string(faulty.spe_failures),
                   std::to_string(faulty.stragglers),
                   std::to_string(faulty.dma_retries),
                   std::to_string(faulty.reoffloads),
                   std::to_string(faulty.fault_ppe_fallbacks)});
      }
      table.print();
      std::printf("Same seed, same faults: rerun with a different "
                  "--fault-seed to sample another fault schedule.\n");
      if (bitflip_rate > 0.0) {
        std::printf(
            "integrity (MGPS run): injected %llu detected %llu silent %llu "
            "reexec %llu retries %llu quarantined %llu\n",
            static_cast<unsigned long long>(last_faulty.corrupt_injected),
            static_cast<unsigned long long>(last_faulty.corrupt_detected),
            static_cast<unsigned long long>(last_faulty.corrupt_silent),
            static_cast<unsigned long long>(last_faulty.verify_reexecs),
            static_cast<unsigned long long>(last_faulty.integrity_retries),
            static_cast<unsigned long long>(last_faulty.quarantined_spes));
      }
    }

    if (!trace_json.empty() || !trace_text.empty() || !metrics_path.empty()) {
      // One traced MGPS run.  Unless the user picked their own fault rates,
      // inject a light default mix so the trace exercises the recovery
      // paths (watchdog fire, re-offload, PPE fallback), not just the happy
      // path.
      if (!fc.enabled()) {
        fc.spe_fail_rate = 0.25;
        fc.dma_fail_rate = 0.02;
        fc.straggler_rate = 0.25;
      }
      rt::RunConfig cfg;
      cfg.fault = fc;
      cfg.integrity = integrity;
      trace::TraceSink sink;
      trace::MetricsRegistry registry;
      cfg.trace = &sink;
      cfg.metrics = &registry;
      rt::MgpsPolicy mgps;
      rt::run_workload(workload, mgps, cfg);
      std::printf("\ntraced MGPS run (fault seed %llu): %zu events\n",
                  static_cast<unsigned long long>(fc.seed), sink.size());
      // A failed export (full disk, bad path) must fail the process: a
      // silently truncated trace looks exactly like a short run.
      bool export_ok = true;
      if (!trace_json.empty()) {
        if (trace::write_file(trace_json,
                              trace::to_chrome_json(sink.events()))) {
          std::printf("  %s (Chrome trace_event JSON; open in Perfetto)\n",
                      trace_json.c_str());
        } else {
          export_ok = false;
        }
      }
      if (!trace_text.empty()) {
        if (trace::write_file(trace_text, trace::to_text(sink.events()))) {
          std::printf("  %s (deterministic text trace)\n",
                      trace_text.c_str());
        } else {
          export_ok = false;
        }
      }
      if (!metrics_path.empty()) {
        if (trace::write_file(metrics_path, registry.to_json())) {
          std::printf("  %s (metrics JSON)\n", metrics_path.c_str());
        } else {
          export_ok = false;
        }
      }
      if (!export_ok) return 1;
    }
  }
  return 0;
}
