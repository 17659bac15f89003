// jobsvc_openloop: the job service under an open loop.  Each leg submits
// 20,000 jobs with arrivals uniform over 20000/rate virtual seconds, to 8
// blades x 4 slots.  Four clean legs step the rate from 60 to 180 jobs/s;
// saturation is about 190 jobs/s, where the queue (and so the host work)
// swings too much with the seed for a timed leg.  One chaos leg adds a blade
// fail-stop, a straggler blade, transient step faults and silent step
// corruption.  Host time
// is in jobsvc, the DES engine under schedule/cancel churn (watchdogs) and
// in-memory ckpt snapshots; no phylo or cellsim code runs.
//
// Arrivals are scheduled in virtual time by the service itself, so the load
// generator is never late: latency counts from each job's due time.
#include <algorithm>
#include <iterator>
#include <string>
#include <string_view>

#include "e2e.hpp"
#include "jobsvc/service.hpp"
#include "trace/trace.hpp"

namespace cbe::e2e {
namespace {

constexpr int kJobsPerLeg = 20000;

struct Leg {
  const char* name;
  double rate_jps;
  bool chaos;
};

constexpr Leg kLegs[] = {
    {"r60", 60.0, false},   {"r120", 120.0, false}, {"r160", 160.0, false},
    {"r180", 180.0, false}, {"chaos", 60.0, true},
};
constexpr std::size_t kChaos = 4;
constexpr std::size_t kReferenceLeg = 0;  // clean leg at the chaos leg's rate
constexpr std::size_t kLatencyLeg = 2;    // 160 jobs/s
constexpr double kLatencyLimitS = 1.0;    // p99 limit for capacity_jps

// The chaos leg: one blade fail-stops and another slows to a fifth of its
// speed (so watchdogs fire), each at a seeded time and blade; transient step
// faults; silent step corruption caught by verifying every step.  Only full
// verification guarantees that a Completed result is clean, which is what
// the leg checks; it doubles each step's cost, so the leg runs at 60 jobs/s.
// The blade faults are scripted rather than drawn from a rate so that every
// seed gets the same amount of chaos: at blade_fail_rate 0.12, 5 seeds in
// 200 lost three or four blades and shed or rejected up to 4,000 jobs.
jobsvc::ServiceConfig leg_config(const Leg& leg, std::uint64_t seed,
                                 int jobs) {
  jobsvc::ServiceConfig cfg;
  cfg.seed = seed;
  cfg.fleet = platform::BladeFleetConfig::uniform(8, 4);
  if (leg.chaos) {
    cfg.fault.seed = derive_seed(seed, 0xc4a05);
    util::Rng rng(cfg.fault.seed);
    const double span_s = static_cast<double>(jobs) / leg.rate_jps;
    const int lost = static_cast<int>(rng.below(8));
    int slow = static_cast<int>(rng.below(7));
    if (slow >= lost) ++slow;
    cfg.fault_script = {
        {sim::Time::sec(span_s * rng.uniform(0.2, 0.6)),
         sim::FaultKind::FailStop, lost, 1.0},
        {sim::Time::sec(span_s * rng.uniform(0.2, 0.6)),
         sim::FaultKind::Degrade, slow, 0.2},
    };
    cfg.step_fail_rate = 0.001;
    cfg.step_corrupt_rate = 0.00001;
    cfg.verify_fraction = 1.0;
    cfg.quarantine_threshold = 5;
  }
  return cfg;
}

// The lines of results_text(): a header, then one line per job in id order.
std::vector<std::string_view> lines_of(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    out.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

// The chaos leg's counters and useful-outcome ratio.
void add_chaos_layers(Layers& l, const jobsvc::ServiceReport& c) {
  l["jobsvc.rejected"] = static_cast<double>(c.rejected);
  l["jobsvc.shed"] = static_cast<double>(c.shed);
  l["jobsvc.retries"] = static_cast<double>(c.retries);
  l["jobsvc.migrations"] = static_cast<double>(c.migrations);
  l["jobsvc.snapshots"] = static_cast<double>(c.snapshots);
  l["jobsvc.snapshot_restores"] = static_cast<double>(c.snapshot_restores);
  l["jobsvc.watchdog_fires"] = static_cast<double>(c.watchdog_fires);
  l["jobsvc.breaker_opens"] = static_cast<double>(c.breaker_opens);
  l["jobsvc.corrupt_detected"] = static_cast<double>(c.corrupt_detected);
  l["jobsvc.verify_reexecs"] = static_cast<double>(c.verify_reexecs);
  double attempts = 0.0;
  for (const jobsvc::JobOutcome& o : c.jobs) attempts += o.attempts;
  l["jobsvc.attempts_per_completed"] =
      c.completed > 0 ? attempts / static_cast<double>(c.completed) : 0.0;
}

class JobsvcOpenLoop final : public Workload {
 public:
  explicit JobsvcOpenLoop(const Options& opt)
      : seed_(opt.seed), jobs_(opt.smoke ? kJobsPerLeg / kSmokeDiv : kJobsPerLeg) {}

  void setup(Spans* spans) override {
    Scope s(spans, "jobsvc.job_mix");
    specs_.clear();
    for (const Leg& leg : kLegs) {
      jobsvc::JobMixConfig mix;
      mix.jobs = jobs_;
      mix.seed = seed_;
      mix.arrival_span_s = static_cast<double>(jobs_) / leg.rate_jps;
      specs_.push_back(jobsvc::make_job_mix(mix));
    }
  }

  PassResult pass(Spans* spans, Layers* layers) override {
    PassResult r;
    double capacity = 0.0;
    // Each leg's report is dropped once its numbers are taken, so the peak
    // footprint is one service run's, not the sum of five retained reports.
    std::string clean_results, chaos_results;
    for (std::size_t i = 0; i < std::size(kLegs); ++i) {
      const Leg& leg = kLegs[i];
      jobsvc::ServiceConfig cfg = leg_config(leg, seed_, jobs_);
      trace::TraceSink sink;
      if (layers && leg.chaos) cfg.trace = &sink;  // the representative leg
      if (spans) spans->set_request(static_cast<std::uint32_t>(i));
      const auto t0 = Clock::now();
      jobsvc::ServiceReport rep;
      {
        Scope s(spans, "jobsvc.host");
        rep = jobsvc::Service(cfg).run(specs_[i]);
      }
      r.attempted += rep.submitted;
      for (const jobsvc::JobSpec& spec : specs_[i]) {
        r.tasks += static_cast<std::uint64_t>(spec.steps);
      }
      r.failed += rep.submitted - rep.completed;
      r.check(rep.completed == rep.submitted,
              std::string(leg.name) + ": " + std::to_string(rep.completed) +
                  "/" + std::to_string(rep.submitted) + " jobs completed");
      r.check(rep.engine_queue_peak <= 2 * rep.engine_live_peak + 64,
              std::string(leg.name) + ": event queue exceeds its bound");
      r.exact[std::string("p99_latency_s.") + leg.name] = rep.p99_latency_s;
      if (!leg.chaos && rep.p99_latency_s <= kLatencyLimitS &&
          rep.rejected == 0 && rep.shed == 0) {
        capacity = std::max(capacity, leg.rate_jps);
      }
      if (i == kReferenceLeg) clean_results = rep.results_text();
      if (i == kLatencyLeg) {
        r.exact["p50_latency_s"] = rep.p50_latency_s;
        r.exact["p99_latency_s"] = rep.p99_latency_s;
      }
      if (leg.chaos) {
        chaos_results = rep.results_text();
        r.exact["chaos_p99_latency_s"] = rep.p99_latency_s;
      }
      if (layers) {
        Layers& l = *layers;
        l[std::string("jobsvc.host_s.") + leg.name] = seconds_since(t0);
        l["sim.events"] += static_cast<double>(rep.engine_events);
        l["sim.queue_peak"] = std::max(
            l["sim.queue_peak"], static_cast<double>(rep.engine_queue_peak));
        l["sim.live_peak"] = std::max(
            l["sim.live_peak"], static_cast<double>(rep.engine_live_peak));
        l["trace.events"] += static_cast<double>(sink.size());
        if (i == kLatencyLeg) {
          l["jobsvc.queue_wait_p50_s"] = rep.p50_queue_wait_s;
          l["jobsvc.queue_wait_p99_s"] = rep.p99_queue_wait_s;
        }
        if (leg.chaos) add_chaos_layers(l, rep);
      }
    }

    // A chaos run may retry, migrate and restore, but every job it reports
    // Completed must carry exactly the clean run's result.
    const std::vector<std::string_view> clean = lines_of(clean_results);
    const std::vector<std::string_view> chaos = lines_of(chaos_results);
    std::uint64_t differ = clean.size() == chaos.size() ? 0 : chaos.size();
    for (std::size_t k = 0; differ == 0 && k < chaos.size(); ++k) {
      if (chaos[k].find(" status completed ") != std::string_view::npos &&
          chaos[k] != clean[k]) {
        ++differ;
      }
    }
    r.failed += differ;
    r.check(differ == 0, "chaos leg: " + std::to_string(differ) +
                             " completed results differ from the clean leg");

    r.exact["capacity_jps"] = capacity;
    // Open loop with arrivals scheduled in virtual time: never late.
    r.exact["generator_lateness_s"] = 0.0;
    return r;
  }

 private:
  std::uint64_t seed_;
  int jobs_;
  std::vector<std::vector<jobsvc::JobSpec>> specs_;  ///< one mix per leg
};

}  // namespace

std::unique_ptr<Workload> make_jobsvc_openloop(const Options& opt) {
  return std::make_unique<JobsvcOpenLoop>(opt);
}

}  // namespace cbe::e2e
