// cbe_e2e: the repository's end-to-end benchmark (see README.md).
//
//   cbe_e2e --workload=NAME [--seed=S] [--seconds=T] [--json=FILE]
//           [--traced] [--spans=FILE] [--workdir=DIR]
//   cbe_e2e --smoke [--workload=NAME] [--seed=S] [--workdir=DIR]
//
// One run builds the workload's inputs from the seed, runs one untimed pass
// that also fixes the reference value of every deterministic result, then
// repeats timed passes with tracing off for at least --seconds and at least
// kMinTimedPasses passes, building the inputs again before each (setup_s is
// the median of all the builds).
// --traced adds one set-up and pass with a span around every call into a
// layer and reports the per-layer breakdown.  --smoke runs one pass at about
// 1/50 size, traced, for every workload (or the one named).
//
// Checkpoint files go to --workdir (default: the system temp directory).
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage error, 3 when a workload threw.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "e2e.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

using namespace cbe;
using namespace cbe::e2e;

constexpr int kMinTimedPasses = 5;

struct WorkloadDef {
  const char* name;
  std::unique_ptr<Workload> (*make)(const Options&);
};

constexpr WorkloadDef kWorkloads[] = {
    {"mgps_sweep", make_mgps_sweep},
    {"bootstrap_job", make_bootstrap_job},
    {"jobsvc_openloop", make_jobsvc_openloop},
    {"native_offload", make_native_offload},
};

const char* unit_of(const std::string& name) {
  if (name == "peak_rss_mb") return "MB";
  if (name == "reference_lnL") return "lnL";
  if (name == "capacity_jps") return "1/s";
  if (name == "fail_share" || name == "mgps_over_best_static") return "ratio";
  if (name.ends_with("_us")) return "us";
  if (name.ends_with("_s") || name.find("_s.") != std::string::npos) return "s";
  return "count";
}

// User plus system CPU time of the whole process (every thread), s.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  return static_cast<bool>(f);
}

/// Insertion-ordered JSON object writer; nested values are indented.
class JsonObject {
 public:
  void add_raw(const std::string& key, const std::string& raw) {
    std::string indented;
    for (char c : raw) {
      indented += c == '\n' ? std::string("\n  ") : std::string(1, c);
    }
    body_ += (body_.empty() ? "" : ",\n") + ("  \"" + key + "\": " + indented);
  }
  void add(const std::string& key, double v) { add_raw(key, fmt_num(v)); }
  void add_str(const std::string& key, const std::string& v) {
    std::string quoted(1, '"');
    quoted += escape(v);
    quoted += '"';
    add_raw(key, quoted);
  }
  std::string str() const { return "{\n" + body_ + "\n}"; }

 private:
  std::string body_;
};

/// One metric: the median of its samples, with p25, p75, n and the samples.
std::string metric_json(const std::string& name,
                        const std::vector<double>& samples, const char* kind) {
  std::string list;
  for (double v : samples) list += (list.empty() ? "" : ", ") + fmt_num(v);
  return "{\"value\": " + fmt_num(util::median(samples)) +
         ", \"p25\": " + fmt_num(util::percentile(samples, 25)) +
         ", \"p75\": " + fmt_num(util::percentile(samples, 75)) +
         ", \"n\": " + std::to_string(samples.size()) + ", \"unit\": \"" +
         unit_of(name) + "\", \"kind\": \"" + kind + "\", \"samples\": [" +
         list + "]}";
}

/// Operations and check failures over every pass of a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const PassResult& r, const std::string& which,
           const PassResult& reference) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) errors.push_back(which + ": " + e);
    if (r.exact != reference.exact) {
      errors.push_back(which + ": deterministic results differ from pass 0");
    }
  }
};

/// The traced set-up and pass: host time per layer from the spans' self
/// times, plus the counts the workload recorded.
Layers traced_breakdown(Workload& wl, const PassResult& reference,
                        double untraced_pass_s, const std::string& spans_path,
                        Tally& tally) {
  Spans spans;
  Layers layers;
  {
    Scope s(&spans, "bench.setup");
    wl.setup(&spans);
  }
  {
    Scope s(&spans, "bench.pass");
    tally.add(wl.pass(&spans, &layers), "traced pass", reference);
  }
  const double total =
      spans.duration_s("bench.setup") + spans.duration_s("bench.pass");
  double attributed = 0.0;
  for (const auto& [name, self] : spans.self_seconds()) {
    if (name.starts_with("bench.")) continue;
    layers[name + "_s"] += self;
    attributed += self;
  }
  layers["bench.unattributed_s"] = total - attributed;
  layers["bench.traced_pass_s"] = total;
  layers["trace.overhead"] =
      spans.duration_s("bench.pass") / untraced_pass_s - 1.0;

  const auto get = [&layers](const char* name) {
    const auto found = layers.find(name);
    return found == layers.end() ? 0.0 : found->second;
  };
  // Host time of the layer that drives the DES engine, per event.
  if (get("sim.events") > 0) {
    layers["sim.ns_per_event"] =
        (get("runtime.host_s") + get("jobsvc.host_s")) / get("sim.events") *
        1e9;
  }
  if (get("phylo.kernel_calls") > 0) {
    layers["phylo.ns_per_kernel"] =
        (get("phylo.search_s") + get("phylo.bootstrap_s")) /
        get("phylo.kernel_calls") * 1e9;
  }
  if (!spans_path.empty() && !write_text(spans_path, spans.chrome_json())) {
    tally.errors.push_back("cannot write spans to " + spans_path);
  }
  return layers;
}

struct RunOutcome {
  bool correct = true;
  std::string json;     ///< the cbe-e2e-v1 document
  std::string summary;  ///< one line, plus one per failed check
};

RunOutcome run_one(const WorkloadDef& def, const Options& opt, double seconds,
                   int min_passes, bool traced, const std::string& spans_path) {
  std::unique_ptr<Workload> wl = def.make(opt);

  // The inputs are built again before every pass, so the setup_s samples
  // spread over the whole run instead of one moment of the host's load.
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    wl->setup(nullptr);
    setup_s.push_back(seconds_since(t0));
  };

  // Untimed first pass: warms caches and threads, and fixes the reference
  // value of every deterministic result.
  timed_setup();
  Tally tally;
  const PassResult first = wl->pass(nullptr, nullptr);
  tally.add(first, "pass 0", first);
  // The footprint of building the inputs and running the work once.  Taken
  // before the repeats, whose rebuilt inputs land wherever the allocator
  // finds room and add up to 2 MB that depends on the heap, not the code.
  const double rss_mb = peak_rss_mb();

  std::vector<double> wall_s, task_us, cpu_us;
  std::map<std::string, std::vector<double>> host;
  const auto t_measure = Clock::now();
  while (static_cast<int>(wall_s.size()) < min_passes ||
         seconds_since(t_measure) < seconds) {
    timed_setup();
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const PassResult r = wl->pass(nullptr, nullptr);
    wall_s.push_back(seconds_since(t0));
    const double cpu = cpu_seconds() - cpu0;
    const double tasks =
        static_cast<double>(std::max<std::uint64_t>(r.tasks, 1));
    task_us.push_back(wall_s.back() * 1e6 / tasks);
    cpu_us.push_back(cpu * 1e6 / tasks);
    tally.add(r, "pass " + std::to_string(wall_s.size()), first);
    for (const auto& [k, v] : r.host) host[k].push_back(v);
  }

  JsonObject metrics;
  metrics.add_raw("wall_s", metric_json("wall_s", wall_s, "host"));
  metrics.add_raw("task_us", metric_json("task_us", task_us, "host"));
  metrics.add_raw("cpu_us", metric_json("cpu_us", cpu_us, "host"));
  metrics.add_raw("setup_s", metric_json("setup_s", setup_s, "host"));
  metrics.add_raw("peak_rss_mb", metric_json("peak_rss_mb", {rss_mb}, "host"));
  for (const auto& [k, v] : host) metrics.add_raw(k, metric_json(k, v, "host"));
  for (const auto& [k, v] : first.exact) {
    metrics.add_raw(k, metric_json(k, {v}, "exact"));
  }

  JsonObject layers_json;
  if (traced) {
    const Layers layers = traced_breakdown(*wl, first, util::median(wall_s),
                                           spans_path, tally);
    for (const auto& [k, v] : layers) layers_json.add(k, v);
  }

  const double fail_share =
      tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                static_cast<double>(tally.attempted)
                          : 1.0;
  metrics.add_raw("fail_share",
                  metric_json("fail_share", {fail_share}, "count"));

  RunOutcome out;
  out.correct =
      tally.errors.empty() && tally.failed == 0 && tally.attempted > 0;
  std::string errs;
  for (const std::string& e : tally.errors) {
    errs += (errs.empty() ? "\"" : ", \"") + escape(e) + "\"";
  }

  JsonObject doc;
  doc.add_str("schema", "cbe-e2e-v1");
  doc.add_str("workload", def.name);
  doc.add_raw("seed", std::to_string(opt.seed));
  doc.add_raw("smoke", opt.smoke ? "true" : "false");
  doc.add("seconds", seconds);
  doc.add_raw("correct", out.correct ? "true" : "false");
  doc.add_raw("attempted", std::to_string(tally.attempted));
  doc.add_raw("failed", std::to_string(tally.failed));
  doc.add_raw("errors", "[" + errs + "]");
  doc.add_raw("metrics", metrics.str());
  if (traced) doc.add_raw("layers", layers_json.str());
  out.json = doc.str() + "\n";

  char line[256];
  std::snprintf(line, sizeof line,
                "%-16s %s  passes=%zu wall_s=%.3f setup_s=%.4f attempted=%llu "
                "failed=%llu",
                def.name, out.correct ? "ok  " : "FAIL", wall_s.size(),
                util::median(wall_s), util::median(setup_s),
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
  out.summary = line;
  for (const std::string& e : tally.errors) out.summary += "\n    " + e;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the heap: every pass and every set-up build then
  // reuses pages already touched instead of faulting them in again, which
  // otherwise makes timings depend on the host's page-fault cost.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

  util::Cli cli(argc, argv);
  const std::string workload = cli.get("workload", "");
  Options opt;
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opt.smoke = cli.get_bool("smoke", false);
  opt.workdir =
      cli.get("workdir", std::filesystem::temp_directory_path().string());
  const double seconds = cli.get_double("seconds", 20.0);
  const std::string json_path = cli.get("json", "");
  const bool traced = cli.get_bool("traced", false);
  const std::string spans_path = cli.get("spans", "");
  cli.enforce_usage_or_exit(
      "cbe_e2e --workload=NAME [--seed=S] [--seconds=T] [--json=FILE] "
      "[--traced] [--spans=FILE] [--workdir=DIR]\n"
      "       cbe_e2e --smoke [--workload=NAME] [--seed=S] [--workdir=DIR]\n"
      "workloads: mgps_sweep bootstrap_job jobsvc_openloop native_offload");

  try {
    if (opt.smoke && workload.empty()) {
      bool ok = true;
      for (const WorkloadDef& def : kWorkloads) {
        const RunOutcome o = run_one(def, opt, 0.0, 1, true, "");
        std::printf("%s\n", o.summary.c_str());
        ok = ok && o.correct;
      }
      return ok ? 0 : 1;
    }

    const auto it = std::find_if(
        std::begin(kWorkloads), std::end(kWorkloads),
        [&](const WorkloadDef& d) { return workload == d.name; });
    if (it == std::end(kWorkloads)) {
      std::fprintf(stderr, "cbe_e2e: unknown --workload '%s'\n",
                   workload.c_str());
      return 2;
    }
    const RunOutcome o =
        opt.smoke ? run_one(*it, opt, 0.0, 1, true, spans_path)
                  : run_one(*it, opt, seconds, kMinTimedPasses, traced,
                            spans_path);
    std::fprintf(stderr, "%s\n", o.summary.c_str());
    if (!json_path.empty()) {
      if (!write_text(json_path, o.json)) {
        std::fprintf(stderr, "cbe_e2e: cannot write %s\n", json_path.c_str());
        return 1;
      }
    } else {
      std::fputs(o.json.c_str(), stdout);
    }
    return o.correct ? 0 : 1;
  } catch (const std::exception& e) {
    // A workload that throws (an unreadable checkpoint, say) produces no
    // result at all.
    std::fprintf(stderr, "cbe_e2e: %s\n", e.what());
    return 3;
  }
}
