// mgps_sweep: the paper's Figure 8.  MGPS, EDTLP, EDTLP-LLP(2) and
// EDTLP-LLP(4) each run B synthetic 42_SC bootstraps on one Cell, for B from
// 1 to 128.  All host time is in the runtime driver, the Cell model and the
// DES engine; no phylo, ckpt, jobsvc or native code runs.
#include <algorithm>
#include <cmath>
#include <string>

#include "analysis/analysis.hpp"
#include "e2e.hpp"
#include "runtime/mgps.hpp"
#include "runtime/policy.hpp"
#include "runtime/sim_runtime.hpp"
#include "task/synthetic.hpp"
#include "trace/trace.hpp"

namespace cbe::e2e {
namespace {

constexpr int kBootstraps[] = {1, 2, 4, 8, 16, 32, 64, 128};
constexpr int kTasksPerBootstrap = 1000;

void add_attribution(Layers& layers, const analysis::Attribution& a, int b) {
  const auto put = [&](const char* part, std::int64_t ns) {
    layers["cellsim.attr." + std::string(part) + "_s.b" + std::to_string(b)] =
        static_cast<double>(ns) * 1e-9;
  };
  put("spe_compute", a.spe_compute_ns);
  put("dma", a.dma_ns);
  put("ctx_switch", a.ctx_switch_ns);
  put("signal", a.signal_ns);
  put("queue", a.queue_ns);
  put("ppe", a.ppe_ns);
  put("recovery", a.recovery_ns);
}

class MgpsSweep final : public Workload {
 public:
  explicit MgpsSweep(const Options& opt) {
    scfg_.seed = opt.seed;
    scfg_.tasks_per_bootstrap =
        opt.smoke ? kTasksPerBootstrap / kSmokeDiv : kTasksPerBootstrap;
  }

  void setup(Spans* spans) override {
    Scope s(spans, "task.gen");
    workloads_.clear();
    for (int b : kBootstraps) {
      workloads_.push_back(task::make_synthetic(b, scfg_));
    }
  }

  PassResult pass(Spans* spans, Layers* layers) override {
    PassResult r;
    double mgps_makespan = 0.0;
    double worst_ratio = 0.0;
    std::uint64_t events = 0;
    double mgps_busy_s = 0.0, mgps_degree_sum = 0.0;
    for (std::size_t i = 0; i < workloads_.size(); ++i) {
      const int b = kBootstraps[i];
      if (spans) spans->set_request(static_cast<std::uint32_t>(i));
      rt::MgpsPolicy mgps;
      rt::EdtlpPolicy edtlp;
      rt::StaticHybridPolicy llp2(2), llp4(4);
      rt::SchedulerPolicy* policies[] = {&mgps, &edtlp, &llp2, &llp4};
      rt::RunResult res[4];
      for (int p = 0; p < 4; ++p) {
        // Only the representative MGPS runs carry an event sink: B=4 sits in
        // the LLP regime and B=32 in the EDTLP regime.
        const bool represent = layers && p == 0 && (b == 4 || b == 32);
        trace::TraceSink sink;
        rt::RunConfig cfg;
        if (represent) cfg.trace = &sink;
        {
          Scope s(spans, "runtime.host");
          res[p] = rt::run_workload(workloads_[i], *policies[p], cfg);
        }
        events += res[p].events;
        if (represent) {
          Scope s(spans, "analysis.attribute");
          const analysis::Attribution a = analysis::attribute_makespan(
              sink.events(), std::llround(res[p].makespan_s * 1e9));
          add_attribution(*layers, a, b);
          (*layers)["trace.events"] += static_cast<double>(sink.size());
        }
      }

      // Every bootstrap completes, with the same result digest under every
      // policy: scheduling must never change what was computed.
      for (int p = 0; p < 4; ++p) {
        r.attempted += static_cast<std::uint64_t>(b);
        r.tasks += static_cast<std::uint64_t>(b) *
                   static_cast<std::uint64_t>(scfg_.tasks_per_bootstrap);
        const auto& done = res[p].bootstrap_completion_s;
        const auto& digest = res[p].bootstrap_digests;
        std::uint64_t bad = 0;
        for (std::size_t k = 0; k < static_cast<std::size_t>(b); ++k) {
          const bool ok = k < done.size() && done[k] > 0.0 &&
                          k < digest.size() &&
                          k < res[0].bootstrap_digests.size() &&
                          digest[k] == res[0].bootstrap_digests[k];
          if (!ok) ++bad;
        }
        r.failed += bad;
        r.check(bad == 0, policies[p]->name() + " at B=" + std::to_string(b) +
                              ": " + std::to_string(bad) +
                              " bootstraps incomplete or with a different "
                              "digest than MGPS");
      }

      mgps_makespan += res[0].makespan_s;
      if (b >= 2) {
        const double best = std::min(
            {res[1].makespan_s, res[2].makespan_s, res[3].makespan_s});
        worst_ratio = std::max(worst_ratio, res[0].makespan_s / best);
      }
      if (layers) {
        Layers& l = *layers;
        l["runtime.offloads"] += static_cast<double>(res[0].offloads);
        l["runtime.loop_splits"] += static_cast<double>(res[0].loop_splits);
        l["runtime.ppe_fallbacks"] +=
            static_cast<double>(res[0].ppe_fallbacks);
        l["runtime.ctx_switches"] += static_cast<double>(res[0].ctx_switches);
        l["runtime.code_loads"] += static_cast<double>(res[0].code_loads);
        l["cellsim.dma_bytes"] += res[0].dma_bytes;
        mgps_degree_sum +=
            res[0].mean_loop_degree * static_cast<double>(res[0].offloads);
        mgps_busy_s += res[0].mean_spe_utilization * res[0].makespan_s;
      }
    }
    r.exact["sim_makespan_s"] = mgps_makespan;
    r.exact["mgps_over_best_static"] = worst_ratio;
    r.exact["sim_events"] = static_cast<double>(events);
    if (layers) {
      Layers& l = *layers;
      l["sim.events"] = static_cast<double>(events);
      l["runtime.mean_loop_degree"] =
          l["runtime.offloads"] > 0 ? mgps_degree_sum / l["runtime.offloads"]
                                    : 0.0;
      // Makespan-weighted mean SPE utilization over the MGPS runs.
      l["cellsim.spe_utilization"] = mgps_busy_s / mgps_makespan;
    }
    return r;
  }

 private:
  task::SyntheticConfig scfg_;
  std::vector<task::Workload> workloads_;
};

}  // namespace

std::unique_ptr<Workload> make_mgps_sweep(const Options& opt) {
  return std::make_unique<MgpsSweep>(opt);
}

}  // namespace cbe::e2e
