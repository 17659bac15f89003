// cell_jobsvc: drive the fault-tolerant multi-tenant job service over a
// simulated blade fleet (see DESIGN.md "Job service" and README quick-start).
//
// The whole run happens in virtual time on the deterministic event engine,
// so the same flags always print the same bytes.  The interesting knobs:
//
//   --blades / --slots / --speed   fleet shape
//   --jobs / --tenants / --seed    synthetic multi-tenant job mix
//   --blade-fail-rate              seeded fail-stop blade kills (migration!)
//   --step-fail-rate               transient per-step execution faults
//   --max-queue / --quota          admission control and backpressure
//   --results                      print the per-job results block whose
//                                  bytes are invariant under faults
//
// Exit status: 0 when every admitted job completed, 1 otherwise (some jobs
// rejected/shed/failed — expected under overload configs).
#include <cstdio>
#include <string>

#include "jobsvc/service.hpp"
#include "sim/fault.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace {

constexpr const char* kUsage = R"(cell_jobsvc [options]

fleet:
  --blades=N           number of blades (default 4)
  --slots=N            job slots per blade (default 4)
  --speed=X            relative blade speed (default 1.0)

workload:
  --jobs=N             jobs in the synthetic mix (default 64)
  --tenants=N          tenants sharing the service (default 4)
  --mix-seed=N         job-mix shape seed (default 42)
  --arrival-span=S     arrivals uniform in [0, S) virtual seconds (default 0.5)
  --deadline=S         per-job deadline, 0 disables (default 0)

service:
  --seed=N             service seed: job payloads derive from it (default 2026)
  --max-queue=N        queue bound, 0 unbounded (default 1024)
  --quota=N            per-tenant active-job quota, 0 off (default 0)
  --checkpoint-every=N steps between snapshots (default 8)
  --max-failures=N     retry budget per job (default 5)

faults:
  --fault-seed=N       fault/jitter seed (default 7)
  --blade-fail-rate=P  per-blade fail-stop probability (default 0)
  --straggler-rate=P   per-blade degrade probability (default 0)
  --step-fail-rate=P   per-step transient failure probability (default 0)

integrity (DESIGN.md section 11):
  --fault-bitflip-rate=P  per-step silent result-corruption probability
                       (default 0); undetected poison flows into results
  --verify-fraction=X  fraction of steps re-executed redundantly to catch
                       corruption (default 0); jobs that keep failing
                       verification are reported "corrupt", never clean
  --quarantine-threshold=N  detected corruptions before a blade is
                       permanently quarantined, 0 disables (default 3)

output:
  --results[=FILE]     print (or write) the fault-invariant per-job results
                       block; a blade-kill run's FILE diffs empty against a
                       fault-free run's
  --metrics[=FILE]     print (or write) the MetricsRegistry JSON
  --trace=FILE         write the event trace as text ("-" for stdout)

observability (DESIGN.md section 12):
  --flight-recorder[=N]  keep the last N trace events (1 to 16777216, bare
                       flag: 4096) in a bounded ring and dump them on crash
                       or nonzero exit
  --flight-dump=FILE   where the flight-recorder dump goes
                       (default flight.trace)
  --die-at-event=N     kill the process (SIGKILL) at the Nth executed step --
                       the crash clock; the flight recorder dumps first
  --statusz=FILE       write periodic cbe-statusz-v1 JSON snapshots to FILE
                       (view with cell_top)
  --statusz-text=FILE  also write the text rendering of each snapshot
  --statusz-every=S    virtual seconds between snapshots (default 0.05)
)";

// --results / --metrics accept an optional file: bare flag -> stdout,
// --flag=FILE -> the file.  Returns false on write failure.
bool emit(const std::string& dest, const std::string& text) {
  if (dest == "true") {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  return cbe::trace::write_file(dest, text);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cbe;

  util::Cli cli(argc, argv);
  jobsvc::ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(
      static_cast<int>(cli.get_int("blades", 4)),
      static_cast<int>(cli.get_int("slots", 4)),
      cli.get_double("speed", 1.0));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));
  cfg.admission.max_queue = static_cast<int>(cli.get_int("max-queue", 1024));
  cfg.admission.per_tenant_quota = static_cast<int>(cli.get_int("quota", 0));
  cfg.checkpoint_every =
      static_cast<int>(cli.get_int("checkpoint-every", 8));
  cfg.retry.max_failures =
      static_cast<int>(cli.get_int("max-failures", 5));
  cfg.fault.seed = static_cast<std::uint64_t>(cli.get_int("fault-seed", 7));
  cfg.fault.blade_fail_rate = cli.get_double("blade-fail-rate", 0.0);
  cfg.fault.straggler_rate = cli.get_double("straggler-rate", 0.0);
  cfg.step_fail_rate = cli.get_double("step-fail-rate", 0.0);
  cfg.step_corrupt_rate = cli.get_double("fault-bitflip-rate", 0.0);
  cfg.verify_fraction = cli.get_double("verify-fraction", 0.0);
  cfg.quarantine_threshold =
      static_cast<int>(cli.get_int("quarantine-threshold", 3));

  jobsvc::JobMixConfig mix;
  mix.jobs = static_cast<int>(cli.get_int("jobs", 64));
  mix.tenants = static_cast<int>(cli.get_int("tenants", 4));
  mix.seed = static_cast<std::uint64_t>(cli.get_int("mix-seed", 42));
  mix.arrival_span_s = cli.get_double("arrival-span", 0.5);
  mix.deadline_s = cli.get_double("deadline", 0.0);

  const std::string results_dest = cli.get("results", "");
  const std::string metrics_dest = cli.get("metrics", "");
  const std::string trace_path = cli.get("trace", "");

  const auto ring = static_cast<std::size_t>(cli.get_count(
      "flight-recorder", 0, 4096, trace::TraceSink::kMaxCapacity));
  const std::string flight_dump = cli.get("flight-dump", "flight.trace");
  const std::int64_t die_at = cli.get_int("die-at-event", 0);
  cfg.statusz.json_path = cli.get("statusz", "");
  cfg.statusz.text_path = cli.get("statusz-text", "");
  if (!cfg.statusz.json_path.empty() || !cfg.statusz.text_path.empty()) {
    cfg.statusz.every_s = cli.get_double("statusz-every", 0.05);
  }
  cli.enforce_usage_or_exit(kUsage);

  // One sink serves both flags: --trace needs every event, so it stays
  // unbounded then; the flight recorder alone needs only the ring.  Either
  // way the dump writes the newest `ring` events.
  trace::TraceSink sink(trace_path.empty() ? ring : 0);
  trace::MetricsRegistry metrics;
  if (ring != 0) {
    trace::install_flight_recorder(&sink, ring, flight_dump);
    // Dump the recorder as the process's last act when the crash clock
    // kills it: the whole point of --die-at-event + --flight-recorder.
    sim::set_crash_clock_hook(
        []() noexcept { cbe::trace::dump_flight_recorder("crash-clock",
                                                         /*force=*/true); });
  }
  if (ring != 0 || !trace_path.empty()) cfg.trace = &sink;
  if (die_at > 0) sim::arm_crash_clock(die_at);
  cfg.metrics = &metrics;

  jobsvc::Service svc(cfg);
  const jobsvc::ServiceReport rep = svc.run(jobsvc::make_job_mix(mix));

  std::fputs(rep.to_text().c_str(), stdout);
  // Any nonzero exit leaves a flight-recorder dump behind (when one is
  // installed): the failure triage artifact, same format as the crash dump.
  auto fail = [](int code, const char* reason) {
    trace::dump_flight_recorder(reason);
    return code;
  };
  // Sustained watchdog churn must not leak event-queue memory: resident
  // entries (live + cancelled corpses) stay proportional to live events.
  if (rep.engine_queue_peak > 2 * rep.engine_live_peak + 64) {
    CBE_LOG_C(Error, "jobsvc",
              "engine queue leak: queue_peak=%llu live_peak=%llu",
              static_cast<unsigned long long>(rep.engine_queue_peak),
              static_cast<unsigned long long>(rep.engine_live_peak));
    return fail(3, "engine-queue-leak");
  }
  if (!results_dest.empty() && !emit(results_dest, rep.results_text()))
    return fail(2, "io-error");
  if (!metrics_dest.empty() && !emit(metrics_dest, metrics.to_json() + "\n"))
    return fail(2, "io-error");
  if (!trace_path.empty()) {
    const std::string text = trace::to_text(sink.events());
    if (trace_path == "-") {
      std::fputs(text.c_str(), stdout);
    } else if (!trace::write_file(trace_path, text)) {
      return fail(2, "io-error");
    }
  }
  if (rep.completed == rep.submitted) return 0;
  return fail(1, "incomplete-jobs");
}
