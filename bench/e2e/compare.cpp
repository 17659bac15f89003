// cbe_e2e_compare: verdicts for two sets of cbe_e2e runs.
//
//   cbe_e2e_compare [--bench=BENCHMARK.json] A B
//
// A is the base and B the candidate; each is one cbe-e2e-v1 JSON file or a
// directory of them (one file per run, any workloads and seeds).  For every
// (metric, workload) pair it prints one verdict:
//
//   ok          B's median is not worse than A's by more than the bound;
//   regressed   it is, or a deterministic result moved, or a run of B failed
//               its checks or failed more operations than A;
//   unresolved  A's run-to-run spread (interquartile range over median) is
//               wider than the bound, and not every run of B beats every
//               run of A.
//
// Bounds and directions come from the end_to_end list of BENCHMARK.json.
// Metrics of kind "exact" (virtual time and counts) must be bit-identical
// for every seed run on both sides.  Exits 1 on any regressed verdict.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using cbe::util::Json;

struct Run {
  std::string workload;
  std::string seed;
  bool correct = false;
  double failed = 0.0;
  std::map<std::string, double> value;
  std::map<std::string, std::string> kind;
};

struct Bound {
  double bound = 0.0;
  bool higher_better = false;
};

bool read_json(const std::string& path, Json& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "cbe_e2e_compare: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  std::string err;
  if (!cbe::util::parse_json(ss.str(), out, &err)) {
    std::fprintf(stderr, "cbe_e2e_compare: %s: %s\n", path.c_str(),
                 err.c_str());
    return false;
  }
  return true;
}

double number(const Json* j) { return j && j->is_number() ? j->number : 0.0; }

bool load_run(const std::string& path, std::vector<Run>& runs) {
  Json doc;
  if (!read_json(path, doc)) return false;
  const Json* schema = doc.find("schema");
  const Json* metrics = doc.find("metrics");
  if (!schema || schema->str != "cbe-e2e-v1" || !metrics ||
      !metrics->is_object()) {
    std::fprintf(stderr, "cbe_e2e_compare: %s is not a cbe-e2e-v1 run\n",
                 path.c_str());
    return false;
  }
  Run r;
  r.workload = doc.find("workload") ? doc.find("workload")->str : "";
  r.seed = std::to_string(static_cast<long long>(number(doc.find("seed"))));
  r.correct = doc.find("correct") && doc.find("correct")->boolean;
  r.failed = number(doc.find("failed"));
  for (const auto& [name, m] : metrics->fields) {
    r.value[name] = number(m.find("value"));
    r.kind[name] = m.find("kind") ? m.find("kind")->str : "";
  }
  runs.push_back(std::move(r));
  return true;
}

bool load_set(const std::string& path, std::vector<Run>& runs) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(path)) return load_run(path, runs);
  std::vector<std::string> files;
  for (const auto& e : fs::directory_iterator(path)) {
    if (e.path().extension() == ".json") files.push_back(e.path().string());
  }
  std::sort(files.begin(), files.end());
  for (const std::string& f : files) {
    if (!load_run(f, runs)) return false;
  }
  return true;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Interquartile range over the median, with Python's
// statistics.quantiles(n=4) ("exclusive" method).  Zero below two values.
double spread(std::vector<double> v) {
  const std::size_t ld = v.size();
  if (ld < 2) return 0.0;
  std::sort(v.begin(), v.end());
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = ld + 1;
    std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  const double med = median(v);
  return med != 0.0 ? (quartile(3) - quartile(1)) / std::abs(med) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  cbe::util::Cli cli(argc, argv);
  const std::string bench_path = cli.get("bench", "BENCHMARK.json");
  cli.enforce_usage_or_exit("cbe_e2e_compare [--bench=BENCHMARK.json] A B");
  if (cli.positional().size() != 2) {
    std::fprintf(stderr, "usage: cbe_e2e_compare [--bench=BENCHMARK.json] A B\n");
    return 2;
  }

  Json bench;
  if (!read_json(bench_path, bench)) return 2;
  std::map<std::string, Bound> bounds;
  if (const Json* e2e = bench.find("end_to_end"); e2e && e2e->is_array()) {
    for (const Json& m : e2e->items) {
      const Json* name = m.find("name");
      if (!name) continue;
      bounds[name->str] = Bound{number(m.find("bound")),
                                m.find("better") &&
                                    m.find("better")->str == "higher"};
    }
  }

  std::vector<Run> a, b;
  if (!load_set(cli.positional()[0], a) || !load_set(cli.positional()[1], b)) {
    return 2;
  }
  std::set<std::string> workloads;
  for (const Run& r : a) workloads.insert(r.workload);

  int regressed = 0, unresolved = 0, ok = 0;
  std::printf("%-16s %-26s %14s %14s %8s %8s %7s  %s\n", "workload", "metric",
              "A median", "B median", "change", "spread", "bound", "verdict");
  const auto verdict = [&](const std::string& wl, const std::string& metric,
                           double ma, double mb, double change, double spr,
                           double bound, const char* v) {
    std::printf("%-16s %-26s %14.6g %14.6g %+7.2f%% %7.2f%% %6.1f%%  %s\n",
                wl.c_str(), metric.c_str(), ma, mb, change * 100.0,
                spr * 100.0, bound * 100.0, v);
    const std::string s = v;
    if (s == "ok") ++ok;
    else if (s == "unresolved") ++unresolved;
    else ++regressed;
  };

  for (const std::string& wl : workloads) {
    std::vector<const Run*> ra, rb;
    for (const Run& r : a) {
      if (r.workload == wl) ra.push_back(&r);
    }
    for (const Run& r : b) {
      if (r.workload == wl) rb.push_back(&r);
    }
    if (rb.empty()) {
      verdict(wl, "(no runs in B)", 0, 0, 0, 0, 0, "regressed");
      continue;
    }

    const bool all_correct = std::all_of(rb.begin(), rb.end(),
                                         [](const Run* r) { return r->correct; });
    double fa = 0, fb = 0;
    for (const Run* r : ra) fa = std::max(fa, r->failed);
    for (const Run* r : rb) fb = std::max(fb, r->failed);
    verdict(wl, "correct", 1, all_correct ? 1 : 0, 0, 0, 0,
            all_correct ? "ok" : "regressed");
    verdict(wl, "failed", fa, fb, 0, 0, 0, fb <= fa ? "ok" : "regressed");

    for (const auto& [metric, bd] : bounds) {
      std::vector<double> va, vb;
      for (const Run* r : ra) {
        if (r->value.count(metric)) va.push_back(r->value.at(metric));
      }
      for (const Run* r : rb) {
        if (r->value.count(metric)) vb.push_back(r->value.at(metric));
      }
      if (va.empty() || vb.empty()) continue;
      const double ma = median(va), mb = median(vb);
      const double sign = bd.higher_better ? -1.0 : 1.0;
      const double change = ma != 0.0 ? (mb - ma) / ma : 0.0;
      const double spr = spread(va);
      const bool b_wins_all =
          bd.higher_better
              ? *std::min_element(vb.begin(), vb.end()) >
                    *std::max_element(va.begin(), va.end())
              : *std::max_element(vb.begin(), vb.end()) <
                    *std::min_element(va.begin(), va.end());
      const char* v = "ok";
      if (spr > bd.bound && !b_wins_all) v = "unresolved";
      else if (sign * change > bd.bound) v = "regressed";
      verdict(wl, metric, ma, mb, change, spr, bd.bound, v);
    }

    // Deterministic results: compared seed by seed, bit for bit.
    std::set<std::string> exact;
    for (const Run* r : ra) {
      for (const auto& [m, k] : r->kind) {
        if (k == "exact") exact.insert(m);
      }
    }
    for (const std::string& metric : exact) {
      bool compared = false, moved = false;
      double ma = 0, mb = 0;  // the first pair that moved, else the last one
      for (const Run* x : ra) {
        for (const Run* y : rb) {
          if (moved || x->seed != y->seed || !x->value.count(metric)) continue;
          compared = true;
          ma = x->value.at(metric);
          moved = !y->value.count(metric) || y->value.at(metric) != ma;
          mb = y->value.count(metric) ? y->value.at(metric) : 0.0;
        }
      }
      if (!compared) continue;
      verdict(wl, metric, ma, mb, ma != 0 ? (mb - ma) / ma : 0, 0, 0,
              moved ? "regressed" : "ok");
    }
  }
  std::printf("\n%d ok, %d regressed, %d unresolved\n", ok, regressed,
              unresolved);
  return regressed > 0 ? 1 : 0;
}
