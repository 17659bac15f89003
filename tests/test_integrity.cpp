// End-to-end data integrity (DESIGN.md section 11): seeded silent-corruption
// injection, CRC-framing + sampled-redundant-execution detection, and
// recovery/quarantine — across the simulated runtime and the job service.
//
// The acceptance property under test, in several forms: under any seeded
// bit-flip plan with recovery enabled, final results are bit-identical to
// the fault-free run, or the run fails closed — never silently wrong.
#include <gtest/gtest.h>

#include <set>

#include "jobsvc/service.hpp"
#include "runtime/mgps.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/fault.hpp"
#include "task/synthetic.hpp"
#include "trace/trace.hpp"

namespace cbe {
namespace {

task::SyntheticConfig small_workload() {
  task::SyntheticConfig cfg;
  cfg.tasks_per_bootstrap = 120;
  return cfg;
}

rt::RunResult run_mgps(const task::Workload& wl, const rt::RunConfig& cfg) {
  rt::MgpsPolicy mgps;
  return rt::run_workload(wl, mgps, cfg);
}

rt::RunConfig corrupting_config(double rate, double verify_fraction) {
  rt::RunConfig cfg;
  cfg.fault.seed = 4242;
  cfg.fault.dma_bitflip_rate = rate;
  cfg.fault.result_corrupt_rate = rate;
  cfg.integrity.verify_fraction = verify_fraction;
  cfg.integrity.crc_framing = verify_fraction > 0.0;
  return cfg;
}

// -- oracle primitives -------------------------------------------------------

TEST(IntegrityOracle, CorruptBitsAlwaysFlipsAndReplays) {
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t v = i * 0x9e3779b97f4a7c15ull;
    const std::uint64_t flipped = sim::corrupt_bits(v, 7, i);
    EXPECT_NE(flipped, v) << "a flip must flip something (index " << i << ")";
    EXPECT_EQ(flipped, sim::corrupt_bits(v, 7, i)) << "pure function";
  }
  // Different seeds corrupt differently (not a fixed mask).
  std::set<std::uint64_t> masks;
  for (std::uint64_t s = 0; s < 32; ++s) {
    masks.insert(sim::corrupt_bits(0, s, 0));
  }
  EXPECT_GT(masks.size(), 16u);
}

TEST(IntegrityOracle, VerifySampledEdgesAndDeterminism) {
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(sim::verify_sampled(5, i, 1.0));
    EXPECT_FALSE(sim::verify_sampled(5, i, 0.0));
    EXPECT_EQ(sim::verify_sampled(5, i, 0.3), sim::verify_sampled(5, i, 0.3));
  }
  // A 0.5 fraction samples a nontrivial subset, not all or nothing.
  int hits = 0;
  for (std::uint64_t i = 0; i < 400; ++i) {
    hits += sim::verify_sampled(5, i, 0.5) ? 1 : 0;
  }
  EXPECT_GT(hits, 100);
  EXPECT_LT(hits, 300);
}

// -- acceptance (a): seeded bit-flip plans replay bit-identically ------------

TEST(IntegrityReplay, SameSeedSameCorruptionSameDigests) {
  const task::Workload wl = task::make_synthetic(4, small_workload());
  const rt::RunConfig cfg = corrupting_config(0.1, 0.0);
  const rt::RunResult a = run_mgps(wl, cfg);
  const rt::RunResult b = run_mgps(wl, cfg);
  EXPECT_GT(a.corrupt_injected, 0u) << "rate 0.1 over ~480 tasks must hit";
  EXPECT_EQ(a.corrupt_injected, b.corrupt_injected);
  EXPECT_EQ(a.corrupt_silent, b.corrupt_silent);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  ASSERT_EQ(a.bootstrap_digests.size(), b.bootstrap_digests.size());
  EXPECT_EQ(a.bootstrap_digests, b.bootstrap_digests);
}

TEST(IntegrityReplay, DifferentSeedDifferentCorruption) {
  const task::Workload wl = task::make_synthetic(4, small_workload());
  rt::RunConfig cfg_a = corrupting_config(0.1, 0.0);
  rt::RunConfig cfg_b = cfg_a;
  cfg_b.fault.seed = 4343;
  const rt::RunResult a = run_mgps(wl, cfg_a);
  const rt::RunResult b = run_mgps(wl, cfg_b);
  EXPECT_NE(a.bootstrap_digests, b.bootstrap_digests)
      << "undefended corruption from different seeds should poison "
         "different results";
}

// -- acceptance (d): fault-free runs are unchanged by the integrity layer ----

TEST(IntegrityOverhead, FaultFreeDigestsUnchangedByDetection) {
  const task::Workload wl = task::make_synthetic(4, small_workload());
  const rt::RunResult off = run_mgps(wl, {});
  const rt::RunResult on = run_mgps(wl, corrupting_config(0.0, 1.0));
  EXPECT_EQ(on.corrupt_injected, 0u);
  EXPECT_EQ(on.corrupt_detected, 0u);
  EXPECT_EQ(on.corrupt_silent, 0u);
  EXPECT_GT(on.verify_reexecs, 0u) << "full verification must re-execute";
  // Detection costs time (CRC + re-exec), never answers.
  EXPECT_EQ(off.bootstrap_digests, on.bootstrap_digests);
  EXPECT_GE(on.makespan_s, off.makespan_s);
}

// -- acceptance (b): zero silent propagation at full verification ------------

TEST(IntegrityDetection, FullVerificationNeverCommitsPoison) {
  const task::Workload wl = task::make_synthetic(4, small_workload());
  const rt::RunResult clean = run_mgps(wl, {});
  const rt::RunResult chaos = run_mgps(wl, corrupting_config(0.08, 1.0));
  EXPECT_GT(chaos.corrupt_injected, 0u);
  EXPECT_GT(chaos.corrupt_detected, 0u);
  EXPECT_EQ(chaos.corrupt_silent, 0u)
      << "verify_fraction=1 + CRC framing must catch every poison before "
         "commit";
  // The headline guarantee: results equal the fault-free run's, bit for bit.
  EXPECT_EQ(chaos.bootstrap_digests, clean.bootstrap_digests);
  for (double c : chaos.bootstrap_completion_s) EXPECT_GT(c, 0.0);
}

TEST(IntegrityDetection, UndefendedCorruptionIsObservable) {
  // The threat model is real: with detection off, poison reaches digests —
  // counted as silent, and the digests diverge from the clean run.
  const task::Workload wl = task::make_synthetic(4, small_workload());
  const rt::RunResult clean = run_mgps(wl, {});
  const rt::RunResult chaos = run_mgps(wl, corrupting_config(0.1, 0.0));
  EXPECT_GT(chaos.corrupt_silent, 0u);
  EXPECT_NE(chaos.bootstrap_digests, clean.bootstrap_digests);
}

TEST(IntegrityDetection, SampledWindowCatchesOnlySampledPoison) {
  // Partial verification: silent escapes are possible but every one of them
  // is outside the sampled window by construction — injected splits into
  // detected (in-window or CRC-caught) and silent, nothing vanishes
  // unaccounted unless its attempt was torn down before commit.
  const task::Workload wl = task::make_synthetic(4, small_workload());
  rt::RunConfig cfg = corrupting_config(0.1, 0.25);
  cfg.integrity.crc_framing = false;  // isolate the re-exec channel
  const rt::RunResult r = run_mgps(wl, cfg);
  EXPECT_GT(r.corrupt_injected, 0u);
  EXPECT_LE(r.corrupt_detected + r.corrupt_silent, r.corrupt_injected);
  EXPECT_GT(r.verify_reexecs, 0u);
}

// -- acceptance (c): repeated corruption quarantines the SPE -----------------

TEST(IntegrityQuarantine, RepeatedCorruptionRemovesTheSpe) {
  const task::Workload wl = task::make_synthetic(4, small_workload());
  rt::RunConfig cfg;
  cfg.fault.seed = 11;
  // Scripted BitFlip events force the next verified transfers on SPE 0 to
  // corrupt; with CRC framing every one is a detection = a strike.
  for (int k = 0; k < 4; ++k) {
    sim::FaultEvent ev;
    ev.at = sim::Time::us(5.0 * (k + 1));
    ev.kind = sim::FaultKind::BitFlip;
    ev.node = 0;
    cfg.fault_script.push_back(ev);
  }
  cfg.integrity.crc_framing = true;
  cfg.integrity.quarantine_threshold = 2;
  trace::TraceSink sink;
  cfg.trace = &sink;
  const rt::RunResult clean = run_mgps(wl, {});
  const rt::RunResult r = run_mgps(wl, cfg);
  EXPECT_GE(r.corrupt_detected, 2u);
  EXPECT_EQ(r.quarantined_spes, 1u) << "SPE 0 should be quarantined once";
  EXPECT_GE(sink.count(trace::EventKind::Quarantine), 1u);
  EXPECT_GE(sink.count(trace::EventKind::DmaCorrupt), 2u);
  // The run still finishes every bootstrap with clean results.
  EXPECT_EQ(r.bootstrap_digests, clean.bootstrap_digests);
  for (double c : r.bootstrap_completion_s) EXPECT_GT(c, 0.0);
}

TEST(IntegrityQuarantine, ThresholdZeroDisablesQuarantine) {
  const task::Workload wl = task::make_synthetic(2, small_workload());
  rt::RunConfig cfg = corrupting_config(0.15, 1.0);
  cfg.integrity.quarantine_threshold = 0;
  const rt::RunResult r = run_mgps(wl, cfg);
  EXPECT_GT(r.corrupt_detected, 0u);
  EXPECT_EQ(r.quarantined_spes, 0u);
}

// -- job service: fail closed, quarantine blades -----------------------------

jobsvc::ServiceConfig jobsvc_config() {
  jobsvc::ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(4);
  cfg.seed = 2026;
  cfg.fault.seed = 7;
  return cfg;
}

std::vector<jobsvc::JobSpec> jobsvc_mix(int jobs) {
  jobsvc::JobMixConfig mix;
  mix.jobs = jobs;
  mix.tenants = 3;
  return jobsvc::make_job_mix(mix);
}

TEST(JobsvcIntegrity, FaultFreeResultsUnchangedByVerification) {
  jobsvc::ServiceConfig off = jobsvc_config();
  jobsvc::ServiceConfig on = jobsvc_config();
  on.verify_fraction = 1.0;
  const auto jobs = jobsvc_mix(32);
  const jobsvc::ServiceReport a = jobsvc::Service(off).run(jobs);
  const jobsvc::ServiceReport b = jobsvc::Service(on).run(jobs);
  EXPECT_GT(b.verify_reexecs, 0u);
  EXPECT_EQ(b.corrupt_detected, 0u);
  EXPECT_EQ(a.results_text(), b.results_text())
      << "verification must cost time, never answers";
  EXPECT_GE(b.makespan_s, a.makespan_s);
}

TEST(JobsvcIntegrity, DetectionRecoversToCleanResults) {
  jobsvc::ServiceConfig clean = jobsvc_config();
  jobsvc::ServiceConfig chaos = jobsvc_config();
  chaos.step_corrupt_rate = 0.05;
  chaos.verify_fraction = 1.0;
  chaos.quarantine_threshold = 0;  // keep the whole fleet for this test
  chaos.retry.max_failures = 50;
  const auto jobs = jobsvc_mix(32);
  const jobsvc::ServiceReport a = jobsvc::Service(clean).run(jobs);
  const jobsvc::ServiceReport b = jobsvc::Service(chaos).run(jobs);
  EXPECT_GT(b.corrupt_injected, 0u);
  EXPECT_EQ(b.corrupt_injected, b.corrupt_detected)
      << "full verification catches every injection at its step";
  EXPECT_EQ(b.completed, b.submitted);
  EXPECT_EQ(a.results_text(), b.results_text())
      << "recovered results must be bit-identical to the fault-free run";
}

TEST(JobsvcIntegrity, ExhaustedIntegrityBudgetFailsClosed) {
  jobsvc::ServiceConfig cfg = jobsvc_config();
  cfg.step_corrupt_rate = 1.0;      // every step poisons
  cfg.verify_fraction = 1.0;        // every poison detected
  cfg.quarantine_threshold = 0;     // keep blades up: exhaust the job budget
  cfg.retry.max_failures = 3;
  const auto jobs = jobsvc_mix(8);
  const jobsvc::ServiceReport rep = jobsvc::Service(cfg).run(jobs);
  EXPECT_EQ(rep.completed, 0u);
  EXPECT_GT(rep.corrupt_jobs, 0u);
  for (const jobsvc::JobOutcome& o : rep.jobs) {
    EXPECT_NE(o.status, jobsvc::JobStatus::Completed);
    EXPECT_EQ(o.result.digest, 0u)
        << "a job that failed closed must not carry a result";
  }
  EXPECT_NE(rep.results_text().find("corrupt"), std::string::npos);
}

TEST(JobsvcIntegrity, SilentCorruptionPoisonsResultsWhenUndefended) {
  jobsvc::ServiceConfig clean = jobsvc_config();
  jobsvc::ServiceConfig chaos = jobsvc_config();
  chaos.step_corrupt_rate = 0.2;  // no verification: poison flows through
  const auto jobs = jobsvc_mix(16);
  const jobsvc::ServiceReport a = jobsvc::Service(clean).run(jobs);
  const jobsvc::ServiceReport b = jobsvc::Service(chaos).run(jobs);
  EXPECT_GT(b.corrupt_injected, 0u);
  EXPECT_EQ(b.corrupt_detected, 0u);
  EXPECT_EQ(b.completed, b.submitted) << "undefended poison looks like success";
  EXPECT_NE(a.results_text(), b.results_text())
      << "the corruption must actually be observable in results";
}

TEST(JobsvcIntegrity, RepeatedCorruptionQuarantinesBlades) {
  jobsvc::ServiceConfig cfg = jobsvc_config();
  cfg.step_corrupt_rate = 0.3;
  cfg.verify_fraction = 1.0;
  cfg.quarantine_threshold = 3;
  cfg.retry.max_failures = 50;
  trace::TraceSink sink;
  cfg.trace = &sink;
  const jobsvc::ServiceReport rep = jobsvc::Service(cfg).run(jobsvc_mix(48));
  EXPECT_GT(rep.quarantined_blades, 0u);
  EXPECT_GE(sink.count(trace::EventKind::Quarantine),
            rep.quarantined_blades);
  // Quarantine is deterministic: same config, same quarantines.
  const jobsvc::ServiceReport again =
      jobsvc::Service(cfg).run(jobsvc_mix(48));
  EXPECT_EQ(again.quarantined_blades, rep.quarantined_blades);
  EXPECT_EQ(again.to_text(), rep.to_text());
}

}  // namespace
}  // namespace cbe
