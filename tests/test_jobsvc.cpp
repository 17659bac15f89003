// Job-service tests: the bit-identical migration guarantee end to end
// (scripted FaultPlan blade kills), deterministic retry/backoff schedules,
// admission control, per-tenant fairness, circuit breaking, watchdogs, and
// the snapshot validation path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "jobsvc/service.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

using namespace cbe;
using namespace cbe::jobsvc;

namespace {

std::vector<JobSpec> small_mix(int jobs, int tenants = 4, int steps = 32) {
  JobMixConfig cfg;
  cfg.jobs = jobs;
  cfg.tenants = tenants;
  cfg.min_steps = steps;
  cfg.max_steps = steps;
  cfg.arrival_span_s = 0.0;
  return make_job_mix(cfg);
}

ServiceReport run_with(ServiceConfig cfg, const std::vector<JobSpec>& jobs,
                       trace::TraceSink* sink = nullptr) {
  cfg.trace = sink;
  Service svc(cfg);
  return svc.run(jobs);
}

std::vector<trace::Event> events_of_kind(const trace::TraceSink& sink,
                                         trace::EventKind kind) {
  std::vector<trace::Event> out;
  for (const trace::Event& e : sink.events()) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

sim::FaultEvent kill_blade(int node, double at_s) {
  sim::FaultEvent ev;
  ev.at = sim::Time::sec(at_s);
  ev.kind = sim::FaultKind::FailStop;
  ev.node = node;
  return ev;
}

sim::FaultEvent degrade_blade(int node, double at_s, double factor) {
  sim::FaultEvent ev;
  ev.at = sim::Time::sec(at_s);
  ev.kind = sim::FaultKind::Degrade;
  ev.node = node;
  ev.factor = factor;
  return ev;
}

}  // namespace

// -- job model ---------------------------------------------------------------

TEST(JobSeed, DeterministicAndDomainSeparated) {
  const std::uint64_t a = derive_job_seed(1, 2, 3);
  EXPECT_EQ(a, derive_job_seed(1, 2, 3));
  EXPECT_NE(a, derive_job_seed(1, 2, 4));
  EXPECT_NE(a, derive_job_seed(1, 3, 3));
  EXPECT_NE(a, derive_job_seed(2, 2, 3));
  // Swapping tenant and id must not alias.
  EXPECT_NE(derive_job_seed(1, 3, 2), derive_job_seed(1, 2, 3));
}

TEST(JobModel, SnapshotRoundtripResumesExactly) {
  JobSpec spec;
  spec.id = 9;
  spec.tenant = 1;
  spec.steps = 24;
  JobState straight = make_initial_state(spec, 2026);
  for (int i = 0; i < spec.steps; ++i) run_step(straight);

  JobState st = make_initial_state(spec, 2026);
  for (int i = 0; i < 10; ++i) run_step(st);
  const std::vector<std::uint8_t> snap = snapshot_job(spec, st);
  JobState resumed = restore_job(spec, snap);
  EXPECT_EQ(resumed.steps_done, 10);
  for (int i = 10; i < spec.steps; ++i) run_step(resumed);
  EXPECT_EQ(result_of(resumed), result_of(straight));
}

TEST(JobModel, SnapshotValidationRejectsCorruptionAndWrongJob) {
  JobSpec spec;
  spec.id = 4;
  spec.steps = 8;
  JobState st = make_initial_state(spec, 2026);
  run_step(st);
  std::vector<std::uint8_t> snap = snapshot_job(spec, st);

  std::vector<std::uint8_t> bad = snap;
  bad[bad.size() / 2] ^= 0x40;
  EXPECT_THROW(restore_job(spec, bad), ckpt::CkptError);

  JobSpec other = spec;
  other.id = 5;
  EXPECT_THROW(restore_job(other, snap), ckpt::CkptError);
  other = spec;
  other.steps = 9;
  EXPECT_THROW(restore_job(other, snap), ckpt::CkptError);
}

// -- the headline guarantee --------------------------------------------------

// Scripted FaultPlan blade kill, end to end: every job completes, migrated
// jobs restore from snapshots on surviving blades, and the per-job results
// block is byte-identical to the fault-free run's.
TEST(Migration, BladeKillIsBitIdentical) {
  const std::vector<JobSpec> jobs = small_mix(32);
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(3, 4);

  const ServiceReport golden = run_with(cfg, jobs);
  ASSERT_EQ(golden.completed, jobs.size());
  ASSERT_EQ(golden.migrations, 0u);

  ServiceConfig faulty = cfg;
  faulty.fault_script = {kill_blade(0, 0.06), kill_blade(2, 0.11)};
  const ServiceReport rep = run_with(faulty, jobs);

  EXPECT_EQ(rep.blade_failures, 2u);
  EXPECT_GT(rep.migrations, 0u);
  EXPECT_GT(rep.snapshot_restores, 0u);
  EXPECT_EQ(rep.completed, jobs.size());
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.results_text(), golden.results_text());
  // Timing differs, results don't.
  EXPECT_GT(rep.makespan_s, golden.makespan_s);
}

// Checkpointing disabled: migration falls back to cold restarts and the
// results are still bit-identical (just more recomputation).
TEST(Migration, ColdRestartAlsoBitIdentical) {
  const std::vector<JobSpec> jobs = small_mix(16);
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(2, 4);
  cfg.checkpoint_every = 0;

  const ServiceReport golden = run_with(cfg, jobs);
  ServiceConfig faulty = cfg;
  faulty.fault_script = {kill_blade(0, 0.05)};
  const ServiceReport rep = run_with(faulty, jobs);

  EXPECT_GT(rep.migrations, 0u);
  EXPECT_EQ(rep.snapshots, 0u);
  EXPECT_EQ(rep.snapshot_restores, 0u);
  EXPECT_EQ(rep.completed, jobs.size());
  EXPECT_EQ(rep.results_text(), golden.results_text());
}

// Any job the service completed can be re-run standalone from
// (service seed, tenant, id) and reproduce its result bit for bit.
TEST(Migration, StandaloneRerunMatchesServiceResults) {
  const std::vector<JobSpec> jobs = small_mix(12);
  ServiceConfig cfg;
  cfg.seed = 777;
  cfg.fleet = platform::BladeFleetConfig::uniform(2, 2);
  cfg.fault_script = {kill_blade(1, 0.08)};
  const ServiceReport rep = run_with(cfg, jobs);
  ASSERT_EQ(rep.completed, jobs.size());
  for (const JobOutcome& o : rep.jobs) {
    EXPECT_EQ(o.result, run_job_standalone(o.spec, cfg.seed))
        << "job " << o.spec.id;
  }
}

// -- retry / backoff ---------------------------------------------------------

// With jitter off the backoff ladder is exact: base * multiplier^(k-1).
TEST(Retry, ExponentialBackoffScheduleIsExact) {
  JobSpec spec;
  spec.id = 0;
  spec.steps = 4;
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(1, 1);
  cfg.step_fail_rate = 1.0;  // every step fails: the job burns its budget
  cfg.retry.max_failures = 4;
  cfg.retry.base_backoff_s = 0.05;
  cfg.retry.multiplier = 2.0;
  cfg.retry.jitter = 0.0;
  cfg.breaker.failure_threshold = 0;  // isolate retry from breaking

  trace::TraceSink sink;
  const ServiceReport rep = run_with(cfg, {spec}, &sink);
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.jobs.at(0).status, JobStatus::Failed);
  EXPECT_EQ(rep.jobs.at(0).failures, 4);

  const auto retries = events_of_kind(sink, trace::EventKind::JobRetry);
  ASSERT_EQ(retries.size(), 3u);  // 4th failure is terminal, no retry
  EXPECT_EQ(retries[0].b, 50000000);
  EXPECT_EQ(retries[1].b, 100000000);
  EXPECT_EQ(retries[2].b, 200000000);
}

// Two identical chaos runs must emit byte-identical traces: the whole
// retry/backoff/migration schedule is a pure function of the config.
TEST(Retry, ChaosScheduleDeterministicAcrossRuns) {
  const std::vector<JobSpec> jobs = small_mix(24);
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(4, 2);
  cfg.fault.seed = 99;
  cfg.fault.blade_fail_rate = 0.5;
  cfg.step_fail_rate = 0.02;

  trace::TraceSink a, b;
  const ServiceReport ra = run_with(cfg, jobs, &a);
  const ServiceReport rb = run_with(cfg, jobs, &b);
  EXPECT_GT(ra.retries, 0u);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(trace::to_text(a.events()), trace::to_text(b.events()));
  EXPECT_EQ(ra.results_text(), rb.results_text());
  EXPECT_EQ(ra.to_text(), rb.to_text());
}

// A job whose transient failures never stop is eventually marked Failed and
// surfaces honestly in the report; unaffected jobs still complete.
TEST(Retry, BudgetExhaustionDoesNotPoisonOthers) {
  std::vector<JobSpec> jobs = small_mix(8, 2, 16);
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(2, 2);
  cfg.step_fail_rate = 0.1;
  cfg.retry.max_failures = 3;
  cfg.retry.base_backoff_s = 0.01;
  const ServiceReport rep = run_with(cfg, jobs);
  EXPECT_EQ(rep.completed + rep.failed, jobs.size());
  EXPECT_GT(rep.failed, 0u);
  EXPECT_GT(rep.completed, 0u);
}

// -- admission control -------------------------------------------------------

TEST(Admission, QueueBoundRejectsEqualPriorityArrivals) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 5; ++i) {
    JobSpec s;
    s.id = static_cast<std::uint64_t>(i);
    s.steps = 40;
    s.submit_s = 0.01 * i;
    jobs.push_back(s);
  }
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(1, 1);
  cfg.admission.max_queue = 2;
  const ServiceReport rep = run_with(cfg, jobs);
  // j0 dispatches, j1+j2 queue; j3 and j4 find the queue full at equal
  // priority and are rejected.
  EXPECT_EQ(rep.rejected, 2u);
  EXPECT_EQ(rep.completed, 3u);
  EXPECT_EQ(rep.jobs.at(3).status, JobStatus::Rejected);
  EXPECT_EQ(rep.jobs.at(4).status, JobStatus::Rejected);
}

TEST(Admission, OverloadShedsLowestPriorityForHigherArrival) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 4; ++i) {
    JobSpec s;
    s.id = static_cast<std::uint64_t>(i);
    s.steps = 40;
    s.priority = i == 3 ? 5 : 0;
    s.submit_s = 0.01 * i;
    jobs.push_back(s);
  }
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(1, 1);
  cfg.admission.max_queue = 2;
  trace::TraceSink sink;
  const ServiceReport rep = run_with(cfg, jobs, &sink);
  // The high-priority arrival displaces the youngest low-priority queued job.
  EXPECT_EQ(rep.jobs.at(2).status, JobStatus::Shed);
  EXPECT_EQ(rep.jobs.at(3).status, JobStatus::Completed);
  EXPECT_EQ(rep.shed, 1u);
  EXPECT_EQ(events_of_kind(sink, trace::EventKind::JobShed).size(), 1u);

  // With shedding disabled the same arrival is rejected instead.
  ServiceConfig no_shed = cfg;
  no_shed.admission.shed_lowest = false;
  const ServiceReport rep2 = run_with(no_shed, jobs);
  EXPECT_EQ(rep2.jobs.at(3).status, JobStatus::Rejected);
  EXPECT_EQ(rep2.shed, 0u);
}

TEST(Admission, PerTenantQuotaCapsActiveJobs) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 4; ++i) {
    JobSpec s;
    s.id = static_cast<std::uint64_t>(i);
    s.tenant = i == 3 ? 1u : 0u;  // three tenant-0 arrivals, one tenant-1
    s.steps = 16;
    jobs.push_back(s);
  }
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(1, 4);
  cfg.admission.per_tenant_quota = 1;
  const ServiceReport rep = run_with(cfg, jobs);
  EXPECT_EQ(rep.jobs.at(0).status, JobStatus::Completed);
  EXPECT_EQ(rep.jobs.at(1).status, JobStatus::Rejected);
  EXPECT_EQ(rep.jobs.at(2).status, JobStatus::Rejected);
  EXPECT_EQ(rep.jobs.at(3).status, JobStatus::Completed);  // other tenant
}

// Dispatch favours the tenant with the least work running, so one tenant's
// burst cannot lock the other out of the fleet.
TEST(Admission, DispatchInterleavesTenants) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 12; ++i) {
    JobSpec s;
    s.id = static_cast<std::uint64_t>(i);
    s.tenant = i < 6 ? 0u : 1u;  // tenant 0's burst submits first
    s.steps = 16;
    jobs.push_back(s);
  }
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(1, 2);
  trace::TraceSink sink;
  const ServiceReport rep = run_with(cfg, jobs, &sink);
  ASSERT_EQ(rep.completed, jobs.size());
  // The first dispatches fill straight from arrival order (tenant 0's
  // burst), but as soon as the scheduler picks from a real queue it must
  // balance: tenant 1 appears well before tenant 0's burst drains.
  const auto dispatches = events_of_kind(sink, trace::EventKind::JobDispatch);
  ASSERT_EQ(dispatches.size(), jobs.size());
  std::set<std::uint32_t> first_four;
  for (std::size_t i = 0; i < 4; ++i) {
    first_four.insert(
        rep.jobs.at(static_cast<std::size_t>(dispatches[i].pid)).spec.tenant);
  }
  EXPECT_EQ(first_four.size(), 2u) << "both tenants should hold a slot";
}

// -- deadlines, watchdogs, breakers ------------------------------------------

TEST(Deadlines, MissedDeadlineFreesTheBladeForOthers) {
  JobSpec doomed;
  doomed.id = 0;
  doomed.steps = 200;  // ~0.8s of work
  doomed.deadline_s = 0.1;
  JobSpec ok;
  ok.id = 1;
  ok.steps = 10;
  ok.submit_s = 0.2;
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(1, 1);
  const ServiceReport rep = run_with(cfg, {doomed, ok});
  EXPECT_EQ(rep.jobs.at(0).status, JobStatus::DeadlineExceeded);
  EXPECT_EQ(rep.jobs.at(1).status, JobStatus::Completed);
  EXPECT_EQ(rep.deadline_exceeded, 1u);
}

// A degraded (straggler) blade trips the watchdog; repeated failures open
// its breaker; the jobs migrate to the healthy blade and finish with
// results identical to the fault-free run.
TEST(Watchdog, StragglerBladeIsDetectedAndBrokenOut) {
  const std::vector<JobSpec> jobs = small_mix(8, 2, 50);
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(2, 2);
  cfg.watchdog_factor = 3.0;
  cfg.breaker.failure_threshold = 2;
  const ServiceReport golden = run_with(cfg, jobs);

  ServiceConfig faulty = cfg;
  faulty.fault_script = {degrade_blade(0, 0.05, 0.01)};
  trace::TraceSink sink;
  const ServiceReport rep = run_with(faulty, jobs, &sink);
  EXPECT_GT(rep.watchdog_fires, 0u);
  EXPECT_GT(rep.breaker_opens, 0u);
  EXPECT_EQ(rep.blade_degrades, 1u);
  EXPECT_EQ(rep.completed, jobs.size());
  EXPECT_EQ(rep.results_text(), golden.results_text());
  EXPECT_FALSE(events_of_kind(sink, trace::EventKind::BreakerOpen).empty());
}

TEST(Watchdog, SustainedChurnKeepsEngineQueueBounded) {
  // Every dispatch arms a watchdog and almost every one is cancelled when
  // the step completes first — the exact churn that leaked dead heap
  // entries before the engine's compaction fix.  The queue high-water mark
  // must stay proportional to live events, not to total cancels.
  const std::vector<JobSpec> jobs = small_mix(64, 4, 64);
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(4, 4);
  cfg.step_fail_rate = 0.02;
  cfg.fault.seed = 11;
  cfg.fault.straggler_rate = 0.2;
  const ServiceReport rep = run_with(cfg, jobs);
  EXPECT_GT(rep.engine_events, 1000u);
  EXPECT_GT(rep.engine_queue_peak, 0u);
  EXPECT_LE(rep.engine_queue_peak, 2 * rep.engine_live_peak + 64);
}

// -- reporting & metrics -----------------------------------------------------

TEST(Report, CountersAreConsistentAndMetricsExported) {
  const std::vector<JobSpec> jobs = small_mix(20);
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(2, 4);
  cfg.fault_script = {kill_blade(1, 0.05)};
  trace::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  Service svc(cfg);
  const ServiceReport rep = svc.run(jobs);

  EXPECT_EQ(rep.submitted, jobs.size());
  EXPECT_EQ(rep.completed + rep.rejected + rep.shed + rep.deadline_exceeded +
                rep.failed,
            jobs.size());
  EXPECT_EQ(metrics.counter("jobsvc.completed").value(), rep.completed);
  EXPECT_EQ(metrics.counter("jobsvc.migrations").value(), rep.migrations);
  EXPECT_EQ(metrics.histogram("jobsvc.latency_s").count(), rep.completed);
  EXPECT_GT(metrics.gauge("jobsvc.throughput_jps").value(), 0.0);
  EXPECT_NEAR(metrics.gauge("jobsvc.p99_latency_s").value(),
              rep.p99_latency_s, 1e-12);
  // Per-job latency percentiles are ordered and inside the makespan.
  EXPECT_LE(rep.p50_latency_s, rep.p99_latency_s);
  EXPECT_LE(rep.p99_latency_s, rep.makespan_s);
}

TEST(Report, EveryJobAppearsOnceInIdOrder) {
  const std::vector<JobSpec> jobs = small_mix(15);
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(2, 2);
  const ServiceReport rep = run_with(cfg, jobs);
  ASSERT_EQ(rep.jobs.size(), jobs.size());
  for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
    EXPECT_EQ(rep.jobs[i].spec.id, i);
  }
}

// -- live status plane (DESIGN.md §12) ---------------------------------------

// The statusz golden-determinism contract: two runs of the same seeded
// config produce byte-identical JSON and text exports, including under
// chaos.  This is what lets an operator diff statusz files across replays.
TEST(Statusz, SeededRunsExportByteIdenticalSnapshots) {
  const auto jobs = small_mix(48);
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(4);
  cfg.fault.blade_fail_rate = 0.5;
  cfg.fault.seed = 11;
  cfg.step_fail_rate = 0.02;
  cfg.statusz.every_s = 0.05;

  const ServiceReport a = run_with(cfg, jobs);
  const ServiceReport b = run_with(cfg, jobs);
  ASSERT_FALSE(a.statusz_json.empty());
  EXPECT_EQ(a.statusz_json, b.statusz_json);
  EXPECT_EQ(a.statusz_text, b.statusz_text);
  EXPECT_EQ(a.statusz_snapshots, b.statusz_snapshots);
  EXPECT_GT(a.statusz_snapshots, 0u);
  EXPECT_NE(a.statusz_json.find("\"schema\":\"cbe-statusz-v1\""),
            std::string::npos);
}

TEST(Statusz, FinalSnapshotAlwaysProducedEvenWhenPeriodicDisabled) {
  const auto jobs = small_mix(8);
  ServiceConfig cfg;  // statusz.every_s stays 0: no periodic snapshots
  const ServiceReport rep = run_with(cfg, jobs);
  EXPECT_EQ(rep.statusz_snapshots, 0u);
  ASSERT_FALSE(rep.statusz_json.empty());
  EXPECT_NE(rep.statusz_json.find("\"completed\":8"), std::string::npos);
  EXPECT_NE(rep.statusz_text.find("# cbe-statusz v1"), std::string::npos);
}

TEST(Statusz, TenantRollupsAccountForEveryJob) {
  const auto jobs = small_mix(32);
  ServiceConfig cfg;
  cfg.statusz.every_s = 0.0;
  const ServiceReport rep = run_with(cfg, jobs);
  // 4 tenants, 8 jobs each, all completed: the rollup must say exactly that.
  for (int t = 0; t < 4; ++t) {
    const std::string row = "{\"tenant\":" + std::to_string(t) +
                            ",\"queued\":0,\"running\":0,\"backoff\":0,"
                            "\"completed\":8";
    EXPECT_NE(rep.statusz_json.find(row), std::string::npos)
        << "missing tenant rollup: " << row;
  }
}

// Every blade quarantined with jobs still queued: the periodic status tick
// is then the only event left, and it must not keep the engine alive.  The
// run ends with the starved jobs failed, exactly as with statusz off.
TEST(Statusz, StarvedServiceStillTerminates) {
  JobMixConfig mix;
  mix.jobs = 3;
  mix.arrival_span_s = 0.5;
  const std::vector<JobSpec> jobs = make_job_mix(mix);
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(1, 1);
  cfg.fault.seed = 7;
  cfg.step_corrupt_rate = 1.0;
  cfg.verify_fraction = 1.0;
  cfg.quarantine_threshold = 1;
  const ServiceReport quiet = run_with(cfg, jobs);
  cfg.statusz.every_s = 0.05;
  const ServiceReport watched = run_with(cfg, jobs);

  EXPECT_EQ(watched.quarantined_blades, 1u);
  EXPECT_EQ(watched.failed, jobs.size());
  EXPECT_GT(watched.statusz_snapshots, 0u);
  EXPECT_EQ(watched.results_text(), quiet.results_text());
  const auto by_status = [](const ServiceReport& rep) {
    std::map<JobStatus, int> n;
    for (const JobOutcome& o : rep.jobs) ++n[o.status];
    return n;
  };
  EXPECT_EQ(by_status(watched), by_status(quiet));
}

// -- causal spans (DESIGN.md §12) --------------------------------------------

// Every job-lifecycle trace event carries a span whose job field matches
// the event's own pid, so a cross-component trace groups cleanly per job.
TEST(Spans, JobLifecycleEventsCarryTheirJobsSpan) {
  const auto jobs = small_mix(24);
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(4);
  cfg.fault_script = {kill_blade(1, 0.05)};
  cfg.step_fail_rate = 0.02;
  trace::TraceSink sink;
  run_with(cfg, jobs, &sink);

  std::set<std::uint32_t> span_jobs;
  std::size_t tagged = 0;
  for (const trace::Event& e : sink.events()) {
    const trace::SpanParts p = trace::span_parts(e.span);
    if (!p.valid) continue;
    ++tagged;
    span_jobs.insert(p.job);
    // Job-lifecycle events name their job in pid; the span must agree.
    switch (e.kind) {
      case trace::EventKind::JobSubmit:
      case trace::EventKind::JobAdmit:
      case trace::EventKind::JobDispatch:
      case trace::EventKind::JobComplete:
      case trace::EventKind::JobRetry:
      case trace::EventKind::JobMigrate:
        EXPECT_EQ(p.job, static_cast<std::uint32_t>(e.pid))
            << "span/job mismatch on kind " << static_cast<int>(e.kind);
        break;
      default:
        break;
    }
  }
  EXPECT_GT(tagged, 0u);
  EXPECT_EQ(span_jobs.size(), 24u) << "every job should appear in a span";
}

// A migrated job's span records the hop generation: the migration event's
// span hop field must exceed a never-migrated job's.
TEST(Spans, MigrationHopsAdvanceTheSpanGeneration) {
  const auto jobs = small_mix(16);
  ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(4);
  cfg.fault_script = {kill_blade(0, 0.05), kill_blade(1, 0.1)};
  trace::TraceSink sink;
  const ServiceReport rep = run_with(cfg, jobs, &sink);
  ASSERT_GT(rep.migrations, 0u);

  bool saw_hop = false;
  for (const trace::Event& e : sink.events()) {
    if (e.kind != trace::EventKind::JobMigrate) continue;
    const trace::SpanParts p = trace::span_parts(e.span);
    ASSERT_TRUE(p.valid);
    if (p.hop > 0) saw_hop = true;
  }
  EXPECT_TRUE(saw_hop) << "at least one migration span should carry hop > 0";
}
