// Shared pieces of the end-to-end benchmark (cbe_e2e): the workload
// interface, the per-pass outcome record, and the outside-in span recorder
// the traced pass uses to split host time by layer.
//
// Every span is opened by the benchmark around a call into one layer's
// public API; nothing inside src/ is instrumented.  A span's layer is its
// name up to the first '.', and spans of the "bench" layer are the
// benchmark's own work, so their self time is what the layers leave
// unattributed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace cbe::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory span recorder for one traced pass (single-threaded: every span
/// is opened and closed on the benchmark's calling thread).
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint32_t request = 0;  ///< pass or leg id shared by a request's spans
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// Opens a child of the innermost open span; returns its id.
  int open(const char* name);
  void close(int id);

  /// Records a closed child of the innermost open span whose duration is the
  /// sum of many short intervals timed elsewhere (per-kernel trace
  /// generation), so the span count stays small.
  void add_summed(const char* name, std::int64_t start_ns,
                  std::int64_t total_ns);

  void set_request(std::uint32_t request) noexcept { request_ = request; }

  /// Self time (duration minus child durations) summed per span name, s.
  std::map<std::string, double> self_seconds() const;
  /// Duration of the first span called `name`, s (0 when absent).
  double duration_s(const std::string& name) const;

  /// Chrome trace_event JSON ("X" events, microsecond timestamps).
  std::string chrome_json() const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint32_t request_ = 0;
};

/// RAII span; a no-op when `spans` is null (the untraced passes).
class Scope {
 public:
  Scope(Spans* spans, const char* name)
      : spans_(spans), id_(spans ? spans->open(name) : -1) {}
  ~Scope() {
    if (spans_) spans_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

/// Outcome of one pass over a workload's fixed work.
struct PassResult {
  std::uint64_t attempted = 0;  ///< bootstraps, replicates, jobs or tasks
  std::uint64_t failed = 0;     ///< of those, failed, refused or wrong
  /// Units of work the pass executed: simulated off-load tasks, kernel
  /// calls, job steps or native tasks (task_us = pass time / tasks).
  std::uint64_t tasks = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
  /// Virtual-time and count results: deterministic per seed, so they must
  /// repeat bit-identically on every pass.
  std::map<std::string, double> exact;
  /// Host-time results measured inside the pass (medians over passes are
  /// reported).
  std::map<std::string, double> host;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Per-layer metrics filled by the traced pass (counts and simulated values;
/// the host-time shares come from the spans).
using Layers = std::map<std::string, double>;

/// Size divisor for --smoke (about 1/50 of a full pass).
inline constexpr int kSmokeDiv = 50;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed (timed as setup_s).
  virtual void setup(Spans* spans) = 0;
  /// Runs the fixed work once.  `spans`/`layers` are non-null only on the
  /// traced pass.
  virtual PassResult pass(Spans* spans, Layers* layers) = 0;
};

struct Options {
  std::uint64_t seed = 1;
  bool smoke = false;
  std::string workdir;  ///< where checkpoint files go
};

std::unique_ptr<Workload> make_mgps_sweep(const Options& opt);
std::unique_ptr<Workload> make_bootstrap_job(const Options& opt);
std::unique_ptr<Workload> make_jobsvc_openloop(const Options& opt);
std::unique_ptr<Workload> make_native_offload(const Options& opt);

/// An independent 64-bit stream seed derived from the workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ salt;
  return util::splitmix64(state);
}

/// %.17g: every double round-trips, so text equality is bit equality.
std::string fmt_num(double v);

}  // namespace cbe::e2e
