#include "paper_table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "cellsim/mfc.hpp"
#include "platform/smp.hpp"
#include "runtime/mgps.hpp"

namespace cbe::bench {

std::unique_ptr<rt::SchedulerPolicy> Scheme::policy() const {
  switch (kind) {
    case Mgps: return std::make_unique<rt::MgpsPolicy>();
    case Edtlp: return std::make_unique<rt::EdtlpPolicy>();
    case Linux: return std::make_unique<rt::LinuxPolicy>();
    case Llp: break;
  }
  return std::make_unique<rt::StaticHybridPolicy>(degree);
}

const rt::RunResult& Sweep::at(Scheme s, const Point& p) const {
  const auto i = std::find(schemes.begin(), schemes.end(), s);
  if (i != schemes.end()) return p.runs[std::size_t(i - schemes.begin())];
  std::fprintf(stderr, "paper_table: scheme %d(%d) is not in the sweep\n",
               s.kind, s.degree);
  std::abort();
}

const rt::RunResult& Sweep::at(Scheme s, int bootstraps) const {
  for (const auto& panel : panels) {
    for (const Point& p : panel) {
      if (p.bootstraps == bootstraps) return at(s, p);
    }
  }
  std::fprintf(stderr, "paper_table: no sweep point at %d bootstraps\n",
               bootstraps);
  std::abort();
}

Sweep run_sweep(const SweepSpec& spec, const task::SyntheticConfig& scfg,
                const rt::RunConfig& rcfg, const TracePoint& trace) {
  rt::RunConfig cfg = rcfg;
  cfg.cell.num_cells = spec.cells;
  Sweep out{spec.schemes, {}, cfg.cell.total_spes()};
  bool traced = trace.sink == nullptr;
  for (const auto& points : spec.panels) {
    auto& panel = out.panels.emplace_back();
    for (int b : points) {
      const task::Workload wl = task::make_synthetic(b, scfg);
      Sweep::Point& p = panel.emplace_back(Sweep::Point{b, {}});
      for (const Scheme& s : spec.schemes) {
        rt::RunConfig run = cfg;
        if (!traced && s == trace.scheme && b == trace.bootstraps) {
          run.trace = trace.sink;
          traced = true;
        }
        p.runs.push_back(rt::run_workload(wl, *s.policy(), run));
      }
    }
  }
  return out;
}

PlatformPoint fig10_point(const Sweep& cell, const Sweep& anchor,
                          int bootstraps) {
  return {anchor_to_paper(cell.seconds(kMgps, bootstraps),
                          anchor.seconds(kEdtlp, 1)),
          platform::run_bootstraps(platform::SmtMachineConfig::xeon(),
                                   bootstraps),
          platform::run_bootstraps(platform::SmtMachineConfig::power5(),
                                   bootstraps)};
}

namespace {

class CallRecorder final : public phylo::KernelObserver {
 public:
  struct Call {
    task::KernelClass kind;
    int patterns;
    int iters;
  };
  void on_kernel(task::KernelClass kind, int patterns,
                 int newton_iters) override {
    calls.push_back({kind, patterns, newton_iters});
  }
  std::vector<Call> calls;
};

}  // namespace

Ladder run_ladder(const phylo::SyntheticAlignmentConfig& acfg,
                  std::uint64_t seed) {
  const phylo::Alignment a = phylo::make_synthetic_alignment(acfg);
  const phylo::PatternAlignment pa(a);
  const phylo::SubstModel model(
      phylo::GtrParams::hky(2.5, pa.base_frequencies()), 0.8);
  util::Rng rng(seed);
  CallRecorder rec;
  phylo::run_bootstrap(pa, model, rng, {}, &rec);

  const cell::CellParams cp;
  const cell::Mfc mfc(cp);
  const double clock = cp.clock_ghz;
  const double burst_us = 11.0;  // paper: mean PPE time between off-loads

  // DMA time uses the MFC model: optimized code aggregates transfers into
  // DMA lists, naive code issues one small transfer per loop iteration.
  auto bootstrap_seconds = [&](const spu::OptFlags* flags) {
    phylo::TraceGenConfig tc;
    double total_us = 0.0;
    for (const auto& c : rec.calls) {
      total_us += burst_us;
      if (flags == nullptr) {
        // PPE-only: the kernel runs on the PPE, no off-load machinery.
        tc.spe_opt = spu::OptFlags::naive();
        const auto t = phylo::TraceGenerator(tc).describe(
            c.kind, c.patterns, c.iters);
        total_us += t.ppe_cycles / (clock * 1e3);
        continue;
      }
      tc.spe_opt = *flags;
      const auto t = phylo::TraceGenerator(tc).describe(
          c.kind, c.patterns, c.iters);
      total_us += t.spe_cycles_total() / (clock * 1e3);
      for (double bytes : {t.dma_in_bytes, t.dma_out_bytes}) {
        const auto n = static_cast<std::size_t>(bytes);
        const int chunks = flags->dma_aggregated
                               ? cell::MfcRules::list_entries(n, cp)
                               : cell::MfcRules::naive_chunks(n);
        total_us += mfc.transfer_time(bytes, chunks, 1, false).to_us();
      }
      total_us += 2.0 * cp.mailbox_latency.to_us();
    }
    return total_us * 1e-6;
  };

  const spu::OptFlags naive = spu::OptFlags::naive();
  spu::OptFlags vec = naive;
  vec.vectorized = true;
  spu::OptFlags vec_br = vec;
  vec_br.branch_free = true;
  spu::OptFlags vec_br_math = vec_br;
  vec_br_math.fast_math = true;
  const spu::OptFlags full = spu::OptFlags::optimized();

  Ladder out;
  out.steps = {
      {"ppe_only", "PPE only (no off-loading)", bootstrap_seconds(nullptr),
       1.0},
      {"naive", "naive SPE off-load", bootstrap_seconds(&naive),
       50.38 / 38.23},
      {"vectorized", "+ vectorized ML loops", bootstrap_seconds(&vec), 0.0},
      {"branch_free", "+ vectorized conditionals", bootstrap_seconds(&vec_br),
       0.0},
      {"fast_math", "+ SDK math approximations",
       bootstrap_seconds(&vec_br_math), 0.0},
      {"optimized", "+ aggregated DMA (fully optimized)",
       bootstrap_seconds(&full), 28.82 / 38.23},
  };
  out.offloads = rec.calls.size();
  out.patterns = pa.patterns();
  return out;
}

std::vector<ClusterPoint> run_cluster_sweep(int bootstraps,
                                            const task::SyntheticConfig& scfg,
                                            const rt::RunConfig& blade) {
  const task::Workload wl = task::make_synthetic(bootstraps, scfg);
  std::vector<ClusterPoint> out;
  for (int blades : {1, 2, 4, 8, 16, 25}) {
    out.push_back(
        {blades,
         rt::run_cluster(wl, [] { return kEdtlp.policy(); }, blades, blade),
         rt::run_cluster(wl, [] { return kMgps.policy(); }, blades, blade)});
  }
  return out;
}

// The claims.  Where the model reads outside the paper's number, the band's
// reason says so instead of the band widening without comment.

std::vector<Claim> table1_claims(const Sweep& s) {
  auto edtlp = [&](int n) { return s.seconds(kEdtlp, n); };
  auto linux = [&](int n) { return s.seconds(kLinux, n); };
  double waves = 0.0;
  for (int n = 2; n <= 8; ++n) {
    waves = std::max(waves, std::abs(linux(n) / linux(1) - (n + 1) / 2));
  }
  return {
      {"table1.linux_over_edtlp_8", "Linux(8)/EDTLP(8)", linux(8) / edtlp(8),
       "2.67", 2.6, 3.1,
       "Linux runs 8 workers in 4 waves, EDTLP in one; the model's EDTLP "
       "wave dilates less than the blade's, so the ratio reads above 2.67"},
      {"table1.edtlp_8_over_1", "EDTLP(8)/EDTLP(1)", edtlp(8) / edtlp(1),
       "1.52", 1.4, 1.6,
       "one wave on 8 SPEs, dilated by SMT contention, switch pollution "
       "and shared XDR bandwidth"},
      {"table1.linux_waves", "max |Linux(n)/Linux(1) - ceil(n/2)|", waves,
       "0.06", 0.0, 0.35,
       "Linux pins two workers to the PPE's SMT pair, so n workers take "
       "ceil(n/2) waves; each wave dilates ~0.08, 0.33 at n = 8"},
  };
}

std::vector<Claim> table2_claims(const Sweep& s) {
  double best = 0.0;
  int best_d = 1;
  for (int d = 1; d <= 8; ++d) {
    const double speedup = s.seconds(llp(1), 1) / s.seconds(llp(d), 1);
    if (speedup > best) {
      best = speedup;
      best_d = d;
    }
  }
  return {
      {"table2.llp_peak_speedup", "best LLP speedup on one bootstrap", best,
       "1.59", 1.4, 1.7,
       "under 90% loop coverage and fine loops cap loop parallelism"},
      {"table2.llp_peak_spes", "SPEs per loop at the peak", double(best_d),
       "5; 1.57 at 4", 4, 5,
       "the paper's 4- and 5-SPE times differ by 1%"},
  };
}

std::vector<Claim> fig7_claims(const Sweep& s) {
  // The count from which EDTLP beats both hybrids at every point of panel
  // (a), provided a hybrid wins at every point before it; 0 otherwise.
  int crossover = 0;
  bool clean = true;
  for (const Sweep::Point& p : s.panels.front()) {
    const bool edtlp_wins = s.seconds(kEdtlp, p) <
        std::min(s.seconds(llp(2), p), s.seconds(llp(4), p));
    if (edtlp_wins && crossover == 0) crossover = p.bootstraps;
    clean = clean && edtlp_wins == (crossover != 0);
  }
  return {
      {"fig7.crossover", "first bootstrap count EDTLP wins from",
       clean ? double(crossover) : 0.0, "5; hybrids win up to 4", 5, 5,
       "below 5 bootstraps only a hybrid uses more than 4 SPEs"},
  };
}

std::vector<Claim> fig8_claims(const Sweep& s) {
  auto over_best = [&](int b) {
    return s.seconds(kMgps, b) / std::min({s.seconds(llp(2), b),
                                           s.seconds(llp(4), b),
                                           s.seconds(kEdtlp, b)});
  };
  double worst_from_3 = 0.0, best_transition = 2.0, at_scale = 1.0;
  for (int b : kPanelB) {
    if (b >= 3) worst_from_3 = std::max(worst_from_3, over_best(b));
    const double r = s.seconds(kMgps, b) / s.seconds(kEdtlp, b);
    if (b >= 32 && std::abs(r - 1.0) > std::abs(at_scale - 1.0)) {
      at_scale = r;
    }
  }
  for (int b : kPanelA) {
    if (b >= 3) worst_from_3 = std::max(worst_from_3, over_best(b));
    if (b >= 9) best_transition = std::min(best_transition, over_best(b));
  }
  const char* cold =
      "MGPS starts sequential and splits loops after its first 8-off-load "
      "window: 1-2% at 200 tasks a bootstrap, under 0.5% at 1000";
  return {
      {"fig8.mgps_over_best_b1", "MGPS/best-static at 1 bootstrap",
       over_best(1), "~1", 0.98, 1.05, cold},
      {"fig8.mgps_over_best_b2", "MGPS/best-static at 2 bootstraps",
       over_best(2), "~1", 0.98, 1.05, cold},
      {"fig8.mgps_over_best_b3_up", "worst MGPS/best-static, B >= 3",
       worst_from_3, "<= 1", 0.8, 1.01,
       "MGPS settles on LLP(2) or EDTLP within its first windows"},
      {"fig8.mgps_transition_win", "best MGPS/best-static, B = 9-16",
       best_transition, "< 1 up to 28 bootstraps", 0.8, 0.95,
       "EDTLP's last wave leaves SPEs idle; only MGPS lends them to loops"},
      {"fig8.mgps_over_edtlp_at_scale",
       "MGPS/EDTLP farthest from 1, B = 32-128", at_scale,
       "1; the curves overlap", 0.995, 1.005,
       "with 4 or more bootstraps an SPE MGPS never splits a loop"},
  };
}

std::vector<Claim> fig9_claims(const Sweep& two_cells,
                               const Sweep& one_cell) {
  std::vector<Claim> out;
  for (const Sweep::Point& p : one_cell.panels.front()) {
    const std::string b = std::to_string(p.bootstraps);
    out.push_back({"fig9.two_cells_b" + b,
                   "EDTLP 1-Cell/2-Cell at " + b + " bootstraps",
                   one_cell.seconds(kEdtlp, p) /
                       two_cells.seconds(kEdtlp, p.bootstraps),
                   "almost twice", 1.9, 2.05,
                   "each Cell runs half the bootstraps on its own 8 SPEs"});
  }
  return out;
}

std::vector<Claim> fig10_claims(const Sweep& cell, const Sweep& anchor) {
  const PlatformPoint at8 = fig10_point(cell, anchor, 8);
  const PlatformPoint at128 = fig10_point(cell, anchor, 128);
  return {
      {"fig10.xeon_over_cell_b128", "Xeon/Cell at 128 bootstraps",
       at128.xeon / at128.cell, "~4", 3.6, 4.4, "four times faster, +-10%"},
      {"fig10.power5_over_cell_b128", "Power5/Cell at 128 bootstraps",
       at128.power5 / at128.cell, "1.05-1.10", 1.05, 1.15,
       "the Power5 model's calibration (17.8 s a bootstrap, SMT 1.30) "
       "reads 1.11, 0.01 above the paper's range"},
      {"fig10.power5_over_cell_b8", "Power5/Cell at 8 bootstraps",
       at8.power5 / at8.cell, "1.05-1.10 from 8 on", 1.0, 1.15,
       "8 SPEs outrun the Power5's 4 SMT contexts from 8 bootstraps"},
  };
}

std::vector<Claim> ladder_claims(const Ladder& l) {
  const double ppe = l.steps.front().seconds;
  const double naive = l.steps[1].seconds;
  const double optimized = l.steps.back().seconds;
  return {
      {"opt_ladder.naive_over_optimized", "naive/optimized",
       naive / optimized, "1.75", 1.6, 2.0,
       "vectorization is the largest rung, then conditionals, math, DMA"},
      {"opt_ladder.naive_over_ppe", "naive/PPE", naive / ppe, "1.32", 1.2,
       1.6,
       "a naive port loses to the PPE; the model's per-iteration DMA costs "
       "more than the blade's"},
      {"opt_ladder.optimized_over_ppe", "optimized/PPE", optimized / ppe,
       "0.75", 0.65, 0.9, "the optimized port beats the PPE"},
  };
}

std::vector<Claim> cluster_claims(const std::vector<ClusterPoint>& points) {
  auto gain = [](const ClusterPoint& p) {
    return p.edtlp.makespan_s / p.mgps.makespan_s;
  };
  return {
      {"cluster.mgps_gain_1_blade", "EDTLP/MGPS, 100 bootstraps on 1 blade",
       gain(points.front()), "~1", 0.99, 1.06,
       "100 bootstraps keep 16 SPEs busy; MGPS only wins the last wave"},
      {"cluster.mgps_gain_25_blades",
       "EDTLP/MGPS, 100 bootstraps on 25 blades", gain(points.back()),
       "> 1 from 4 blades", 1.15, 1.45,
       "4 bootstraps a blade leave 12 of 16 SPEs to loops"},
  };
}

std::vector<Claim> ablation_claims(const Sweep& s) {
  double per_spe = 0.0;
  for (int b : kCodeLoads.panels.front()) {
    per_spe = std::max(per_spe,
                       double(s.at(kMgps, b).code_loads) / s.total_spes);
  }
  return {
      {"ablation.code_loads_per_spe", "most MGPS code loads per SPE, B <= 12",
       per_spe, "overhead not noticeable", 0.0, 2.0,
       "an SPE loads its image once and swaps variants at most once"},
  };
}

std::string Claim::describe() const {
  // Integers print as integers, anything else to three decimals.
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, v == std::floor(v) ? "%.0f" : "%.3f", v);
    return std::string(buf);
  };
  char id_col[40];
  std::snprintf(id_col, sizeof id_col, "%-32s", id.c_str());
  return id_col + what + " = " + num(value) + " (paper: " + paper +
         ") band [" + num(lo) + ", " + num(hi) + "]";
}

void print_claims(const std::vector<Claim>& claims) {
  std::printf("shape checks:\n");
  for (const Claim& c : claims) {
    std::printf("  %s %s\n", c.describe().c_str(),
                c.holds() ? "ok" : "OUTSIDE");
  }
}

}  // namespace cbe::bench
