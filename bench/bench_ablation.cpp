// Ablation studies over the design choices DESIGN.md calls out:
//   A1  PPE context-switch cost (the EDTLP enabler, Section 5.2)
//   A2  MGPS history-window length (the hysteresis heuristic, Section 5.4)
//   A3  Adaptive master-bias load unbalancing in the loop executor (5.3)
//   A4  The granularity test (5.2): run a mixed fine/coarse workload with
//       and without it
//   A5  Code-replacement (module variants): loads per SPE under MGPS
#include <cstdio>

#include "bench_common.hpp"
#include "paper_table.hpp"

namespace {

using namespace cbe;

void ablate_ctx_switch(const task::SyntheticConfig& scfg,
                       bench::BenchReport& report) {
  util::Table table("A1: EDTLP sensitivity to PPE context-switch cost "
                    "(8 bootstraps)");
  table.header({"switch cost", "EDTLP", "vs 1.5us"});
  double base = 0.0;
  for (double us : {0.0, 0.5, 1.5, 5.0, 15.0, 50.0}) {
    rt::RunConfig cfg;
    cfg.cell.ctx_switch = sim::Time::us(us);
    rt::EdtlpPolicy pol;
    const double t = bench::run_bootstraps(8, pol, scfg, cfg).makespan_s;
    if (us == 1.5) base = t;
    report.add_sample("ctx_us/" + util::Table::num(us, 1), t);
    table.row({util::Table::num(us, 1) + "us", util::Table::seconds(t),
               base > 0 ? util::Table::num(t / base) : "-"});
  }
  table.print();
  std::printf("\n");
}

void ablate_history_window(const task::SyntheticConfig& scfg,
                           bench::BenchReport& report) {
  util::Table table("A2: MGPS history-window length (paper uses 8)");
  table.header({"window", "2 bootstraps", "4 bootstraps", "12 bootstraps"});
  for (int w : {1, 2, 4, 8, 16, 32}) {
    std::vector<std::string> row = {std::to_string(w)};
    for (int b : {2, 4, 12}) {
      rt::MgpsPolicy pol(w);
      const double t = bench::run_bootstraps(b, pol, scfg, {}).makespan_s;
      report.add_sample("window/" + std::to_string(w) + "/b" +
                        std::to_string(b), t);
      row.push_back(util::Table::seconds(t));
    }
    table.row(row);
  }
  table.print();
  std::printf("\n");
}

void ablate_master_bias(const task::SyntheticConfig& scfg) {
  util::Table table("A3: adaptive master-bias load unbalancing (1 bootstrap,"
                    " LLP degree sweep)");
  table.header({"SPEs/loop", "adaptive", "fixed equal split", "gain"});
  for (int d : {2, 4, 6}) {
    rt::StaticHybridPolicy p1(d), p2(d);
    rt::RunConfig on, off;
    off.adaptive_balance = false;
    const double ta = bench::run_bootstraps(1, p1, scfg, on).makespan_s;
    const double tf = bench::run_bootstraps(1, p2, scfg, off).makespan_s;
    table.row({std::to_string(d), util::Table::seconds(ta),
               util::Table::seconds(tf), util::Table::num(tf / ta)});
  }
  table.print();
  std::printf("\n");
}

void ablate_granularity_test(const task::SyntheticConfig& scfg) {
  // Mixed workload: the calibrated tasks plus a class of tiny tasks whose
  // PPE version is cheaper than any off-load round trip.
  task::Workload wl = task::make_synthetic(4, scfg);
  for (auto& b : wl.bootstraps) {
    for (std::size_t i = 0; i < b.segments.size(); i += 3) {
      task::TaskDesc& t = b.segments[i].task;
      t.kind = task::KernelClass::Generic;
      t.spe_cycles_nonloop = 8000.0;  // 2.5 us on the SPE
      t.loop = {};
      t.ppe_cycles = 1600.0;          // 0.5 us on the PPE
      t.dma_in_bytes = 2048.0;
      t.dma_out_bytes = 512.0;
    }
  }

  struct NoTestPolicy final : rt::SchedulerPolicy {
    std::string name() const override { return "EDTLP-no-gran-test"; }
    int worker_count(int b, int spes) const override {
      return std::min(b, spes);
    }
    bool granularity_test() const override { return false; }
    int loop_degree(const rt::RuntimeView&, const task::TaskDesc&) override {
      return 1;
    }
  };

  rt::EdtlpPolicy with_test;
  NoTestPolicy without_test;
  const auto rw = rt::run_workload(wl, with_test, {});
  const auto ro = rt::run_workload(wl, without_test, {});
  util::Table table("A4: granularity test on a mixed fine/coarse workload "
                    "(4 bootstraps, every 3rd task tiny)");
  table.header({"configuration", "makespan", "offloads", "PPE fallbacks"});
  table.row({"with granularity test", util::Table::seconds(rw.makespan_s),
             std::to_string(rw.offloads), std::to_string(rw.ppe_fallbacks)});
  table.row({"without (off-load everything)",
             util::Table::seconds(ro.makespan_s), std::to_string(ro.offloads),
             std::to_string(ro.ppe_fallbacks)});
  table.print();
  std::printf("granularity-test speedup on this workload: %.2fx\n\n",
              ro.makespan_s / rw.makespan_s);
}

void ablate_code_replacement(const task::SyntheticConfig& scfg) {
  // MGPS pays a code DMA whenever a task lands on an SPE holding the other
  // (sequential or loop-parallel) image.  The paper calls that overhead
  // "not noticeable"; what backs it is how few loads each SPE takes.
  const bench::Sweep sweep =
      bench::run_sweep(bench::kCodeLoads, scfg, rt::RunConfig{});
  util::Table table("A5: code replacement under MGPS (adaptation range, "
                    "1-12 bootstraps)");
  table.header({"bootstraps", "MGPS", "code loads", "per SPE"});
  for (const auto& p : sweep.panels.front()) {
    const auto& r = sweep.at(bench::kMgps, p);
    table.row({std::to_string(p.bootstraps), util::Table::seconds(r.makespan_s),
               std::to_string(r.code_loads),
               util::Table::num(double(r.code_loads) / sweep.total_spes)});
  }
  table.print();
  std::printf("\n");
  bench::print_claims(bench::ablation_claims(sweep));
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto scfg = bench::synthetic_config(cli);
  bench::BenchReport report(cli, "ablation");
  cli.enforce_usage_or_exit(
      bench::common_usage("bench_ablation", "[--json[=F]]"));
  report.config("tasks", static_cast<long long>(scfg.tasks_per_bootstrap));
  report.config("seed", static_cast<long long>(scfg.seed));
  report.config("cv", scfg.duration_cv);
  ablate_ctx_switch(scfg, report);
  ablate_history_window(scfg, report);
  ablate_master_bias(scfg);
  ablate_granularity_test(scfg);
  ablate_code_replacement(scfg);
  return report.write() ? 0 : 1;
}
