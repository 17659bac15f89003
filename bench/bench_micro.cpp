// google-benchmark microbenchmarks for the substrates: event-engine
// throughput, likelihood kernels (scalar vs SIMD, and per-pattern cost),
// and trace generation.  These measure the *host* performance of
// the reproduction itself, not simulated Cell time.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "phylo/bootstrap.hpp"
#include "phylo/kernels_simd.hpp"
#include "sim/engine.hpp"
#include "task/synthetic.hpp"

namespace {

using namespace cbe;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < n; ++i) {
      eng.schedule_at(sim::Time::ns(i % 1009), [] {});
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(100000);

void BM_EngineCallbackChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    int depth = 0;
    std::function<void()> chain = [&] {
      if (++depth < 10000) eng.schedule_after(sim::Time::ns(1), chain);
    };
    eng.schedule_after(sim::Time::ns(1), chain);
    eng.run();
    benchmark::DoNotOptimize(depth);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineCallbackChain);

struct KernelFixture {
  KernelFixture() {
    phylo::SyntheticAlignmentConfig cfg;
    cfg.taxa = 16;
    cfg.sites = 912;  // -> a few hundred patterns
    alignment = phylo::make_synthetic_alignment(cfg);
    pa = std::make_unique<phylo::PatternAlignment>(alignment);
    model = std::make_unique<phylo::SubstModel>(
        phylo::GtrParams::hky(2.5, pa->base_frequencies()), 0.8);
    phylo::Clv<double> tip0, tip1;
    phylo::init_tip_clv(*pa, 0, tip0);
    phylo::init_tip_clv(*pa, 1, tip1);
    pl = phylo::BranchP::at(*model, 0.1);
    pr = phylo::BranchP::at(*model, 0.25);
    // Inner operands: the vector kernels read tip operands through a lookup
    // table, so tips would time the lookup instead of the general path.
    phylo::newview(tip0, pl, tip1, pr, left);
    right = left;
  }
  phylo::Alignment alignment;
  std::unique_ptr<phylo::PatternAlignment> pa;
  std::unique_ptr<phylo::SubstModel> model;
  phylo::Clv<double> left, right;  ///< inner CLVs (no tip codes)
  phylo::BranchP pl, pr;
};

KernelFixture& fixture() {
  static KernelFixture f;
  return f;
}

void BM_NewviewScalar(benchmark::State& state) {
  auto& f = fixture();
  phylo::Clv<double> out;
  for (auto _ : state) {
    phylo::newview(f.left, f.pl, f.right, f.pr, out);
    benchmark::DoNotOptimize(out.data.data());
  }
  state.SetItemsProcessed(state.iterations() * f.pa->patterns());
}
BENCHMARK(BM_NewviewScalar);

void BM_NewviewSimd(benchmark::State& state) {
  auto& f = fixture();
  phylo::Clv<double> out;
  for (auto _ : state) {
    phylo::newview_simd(f.left, f.pl, f.right, f.pr, out);
    benchmark::DoNotOptimize(out.data.data());
  }
  state.SetItemsProcessed(state.iterations() * f.pa->patterns());
}
BENCHMARK(BM_NewviewSimd);

void BM_EvaluateScalar(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    const double lnl =
        phylo::evaluate(f.left, f.right, f.pl, *f.model, f.pa->weights());
    benchmark::DoNotOptimize(lnl);
  }
  state.SetItemsProcessed(state.iterations() * f.pa->patterns());
}
BENCHMARK(BM_EvaluateScalar);

void BM_EvaluateSimd(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    const double lnl = phylo::evaluate_simd(f.left, f.right, f.pl, *f.model,
                                            f.pa->weights());
    benchmark::DoNotOptimize(lnl);
  }
  state.SetItemsProcessed(state.iterations() * f.pa->patterns());
}
BENCHMARK(BM_EvaluateSimd);

void BM_MakeSumtableScalar(benchmark::State& state) {
  auto& f = fixture();
  std::vector<double> st;
  for (auto _ : state) {
    phylo::make_sumtable(f.left, f.right, *f.model, st);
    benchmark::DoNotOptimize(st.data());
  }
  state.SetItemsProcessed(state.iterations() * f.pa->patterns());
}
BENCHMARK(BM_MakeSumtableScalar);

void BM_MakeSumtableSimd(benchmark::State& state) {
  auto& f = fixture();
  std::vector<double> st;
  for (auto _ : state) {
    phylo::make_sumtable_simd(f.left, f.right, *f.model, st);
    benchmark::DoNotOptimize(st.data());
  }
  state.SetItemsProcessed(state.iterations() * f.pa->patterns());
}
BENCHMARK(BM_MakeSumtableSimd);

void BM_SyntheticWorkload(benchmark::State& state) {
  for (auto _ : state) {
    const task::Workload wl = task::make_synthetic(8, {});
    benchmark::DoNotOptimize(wl.bootstraps.data());
  }
}
BENCHMARK(BM_SyntheticWorkload);

void BM_GammaRates(benchmark::State& state) {
  double alpha = 0.1;
  for (auto _ : state) {
    alpha = alpha > 10.0 ? 0.1 : alpha + 0.01;
    benchmark::DoNotOptimize(phylo::discrete_gamma_rates(alpha));
  }
}
BENCHMARK(BM_GammaRates);

/// Console reporter that also funnels every run's adjusted real time (ns,
/// the suite's default unit) into the cbe-bench-v1 report, and keeps the
/// raw samples around so main() can derive per-site and SIMD-ratio series.
class ReportingConsole final : public benchmark::ConsoleReporter {
 public:
  ReportingConsole(bench::BenchReport* report,
                   std::map<std::string, std::vector<double>>* samples)
      : report_(report), samples_(samples) {}
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const double seconds = run.GetAdjustedRealTime() * 1e-9;
      if (report_ != nullptr) report_->add_sample(run.benchmark_name(), seconds);
      if (samples_ != nullptr) (*samples_)[run.benchmark_name()].push_back(seconds);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchReport* report_;
  std::map<std::string, std::vector<double>>* samples_;
};

/// Derived series for the kernel benches.  Raw medians are wall times on
/// whatever machine ran the bench; the simd/scalar ratios are dimensionless
/// and machine-portable, which is what lets CI gate them against a
/// committed baseline (bench_diff --only=ratio/).  Ratios are stored in
/// permille in the report's integer ns field: 1000 = parity, lower = SIMD
/// faster.
void add_derived_series(
    bench::BenchReport& report,
    const std::map<std::string, std::vector<double>>& samples) {
  const int patterns = fixture().pa->patterns();
  const auto median_of = [&](const char* name) {
    const auto it = samples.find(name);
    return it == samples.end() || it->second.empty()
               ? 0.0
               : cbe::util::median(it->second);
  };
  const struct {
    const char* scalar;
    const char* simd;
    const char* key;
  } kKernels[] = {
      {"BM_NewviewScalar", "BM_NewviewSimd", "newview"},
      {"BM_EvaluateScalar", "BM_EvaluateSimd", "evaluate"},
      {"BM_MakeSumtableScalar", "BM_MakeSumtableSimd", "make_sumtable"},
  };
  for (const auto& k : kKernels) {
    const double s = median_of(k.scalar);
    const double v = median_of(k.simd);
    if (s <= 0.0 || v <= 0.0) continue;  // bench filtered out of this run
    report.add_sample(std::string("per_site/") + k.key + "_scalar",
                      s / patterns);
    report.add_sample(std::string("per_site/") + k.key + "_simd",
                      v / patterns);
    report.add_sample(std::string("ratio/") + k.key + "_simd_over_scalar",
                      (v / s) * 1e-6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our --json flag before google-benchmark sees the arguments
  // (it rejects flags it does not own).
  std::string json;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json = "true";
    } else if (a.rfind("--json=", 0) == 0) {
      json = a.substr(7);
    } else {
      args.push_back(argv[i]);
    }
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 2;

  const std::string json_flag = "--json=" + json;
  std::vector<char*> fake = {argv[0]};
  if (!json.empty()) fake.push_back(const_cast<char*>(json_flag.c_str()));
  cbe::util::Cli cli(static_cast<int>(fake.size()), fake.data());
  cbe::bench::BenchReport report(cli, "micro");
  report.config("suite", std::string("google-benchmark"));
  report.config("kernel_taxa", 16);
  report.config("kernel_sites", 912);

  std::map<std::string, std::vector<double>> samples;
  ReportingConsole console(report.enabled() ? &report : nullptr, &samples);
  benchmark::RunSpecifiedBenchmarks(&console);
  if (report.enabled()) add_derived_series(report, samples);
  benchmark::Shutdown();
  return report.write() ? 0 : 1;
}
