// native_offload: the MGPS idea on real threads.  A NativeRuntime with three
// pool workers plus the calling thread (four threads, one per core of the
// reference host) serves S closed-loop streams: each stream off-loads one
// task, waits for its future, and off-loads the next.  A task is a
// 228-iteration loop (the 42_SC pattern count) work-shared through
// parallel_for at the governor's current degree, about 96 us of serial work
// (the paper's task granularity).  Phases run S = 8, 1, 2, 8, so the
// governor must move between task-level and loop-level parallelism.
//
// This is the only workload on real threads and the only user of native.
#include <bit>
#include <deque>
#include <future>

#include "e2e.hpp"
#include "native/native_runtime.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cbe::e2e {
namespace {

constexpr int kStreams[] = {8, 1, 2, 8};
constexpr int kTasksPerPhase = 5000;
constexpr int kWorkers = 3;
constexpr std::int64_t kIters = 228;
constexpr std::int64_t kGrain = 19;  // 12 chunks
constexpr int kInner = 230;          // per-iteration work: ~96 us per task
constexpr std::size_t kBlockLen = 256;
constexpr int kBlocks = 64;          // distinct task inputs

double iteration(const double* in, std::int64_t i) {
  double x = in[i];
  for (int k = 0; k < kInner; ++k) {
    x = x * 0.9990234375 + in[(static_cast<std::size_t>(i) + k) % kBlockLen] *
                               0.0009765625;
  }
  return x;
}

std::uint64_t fold(const double* out) {
  std::uint64_t h = 0;
  for (std::int64_t i = 0; i < kIters; ++i) {
    h = (h ^ std::bit_cast<std::uint64_t>(out[i])) * 0x100000001b3ull;
  }
  return h;
}

// Host timestamps of one task, ns since the workload's epoch.
struct TaskTimes {
  std::int64_t submit = 0, start = 0, pf_end = 0, end = 0, ready = 0;
  int degree = 1;
};

class NativeOffload final : public Workload {
 public:
  explicit NativeOffload(const Options& opt)
      : seed_(opt.seed),
        tasks_(opt.smoke ? kTasksPerPhase / kSmokeDiv : kTasksPerPhase),
        rt_(kWorkers) {}

  // Inputs are seeded random blocks; the serial reference checksum of each
  // block is computed here, once, on the calling thread.
  void setup(Spans* spans) override {
    Scope s(spans, "bench.reference");
    util::Rng rng(seed_);
    blocks_.assign(kBlocks, std::vector<double>(kBlockLen));
    expected_.assign(kBlocks, 0);
    std::vector<double> out(kIters);
    for (int b = 0; b < kBlocks; ++b) {
      for (double& v : blocks_[b]) v = rng.uniform(-1.0, 1.0);
      for (std::int64_t i = 0; i < kIters; ++i) {
        out[static_cast<std::size_t>(i)] = iteration(blocks_[b].data(), i);
      }
      expected_[b] = fold(out.data());
    }
  }

  PassResult pass(Spans* spans, Layers* layers) override {
    PassResult r;
    const std::uint64_t steals0 = rt_.pool().steals();
    const auto pass_t0 = Clock::now();
    std::vector<TaskTimes> all;
    double degree_sum[9] = {}, degree_n[9] = {};
    std::uint32_t phase_id = 0;
    for (int streams : kStreams) {
      if (spans) spans->set_request(phase_id++);
      Scope s(spans, "bench.phase");
      const std::int64_t phase_start = spans ? spans->now_ns() : 0;
      std::int64_t offload_ns = 0, wait_ns = 0;
      std::vector<TaskTimes> times(static_cast<std::size_t>(tasks_));
      std::vector<std::vector<double>> outs(
          static_cast<std::size_t>(streams), std::vector<double>(kIters));
      std::vector<std::future<std::uint64_t>> fut(
          static_cast<std::size_t>(streams));
      std::vector<int> task_of(static_cast<std::size_t>(streams));
      std::deque<int> order;  // streams in submission order
      int next = 0;
      const auto submit = [&](int stream) {
        const int t = next++;
        TaskTimes& tt = times[static_cast<std::size_t>(t)];
        const double* in = blocks_[static_cast<std::size_t>(t % kBlocks)].data();
        double* out = outs[static_cast<std::size_t>(stream)].data();
        const auto t0 = Clock::now();
        tt.submit = ns_of(t0);
        tt.degree = rt_.governor().loop_degree();
        fut[static_cast<std::size_t>(stream)] = rt_.offload(
            stream,
            [this, &tt, in, out] {
              tt.start = ns_of(Clock::now());
              rt_.parallel_for(
                  0, kIters,
                  [in, out](std::int64_t b, std::int64_t e) {
                    for (std::int64_t i = b; i < e; ++i) out[i] = iteration(in, i);
                  },
                  kGrain);
              tt.pf_end = ns_of(Clock::now());
              const std::uint64_t h = fold(out);
              tt.end = ns_of(Clock::now());
              return h;
            },
            streams);
        offload_ns += ns_of(Clock::now()) - tt.submit;
        task_of[static_cast<std::size_t>(stream)] = t;
        order.push_back(stream);
      };
      for (int st = 0; st < streams && next < tasks_; ++st) submit(st);
      while (!order.empty()) {
        const int st = order.front();
        order.pop_front();
        const auto w0 = Clock::now();
        const std::uint64_t h = fut[static_cast<std::size_t>(st)].get();
        const auto w1 = Clock::now();
        wait_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(w1 - w0)
                       .count();
        const int t = task_of[static_cast<std::size_t>(st)];
        times[static_cast<std::size_t>(t)].ready = ns_of(w1);
        ++r.attempted;
        ++r.tasks;
        if (h != expected_[static_cast<std::size_t>(t % kBlocks)]) ++r.failed;
        if (next < tasks_) submit(st);
      }
      for (const TaskTimes& tt : times) {
        degree_sum[streams] += tt.degree;
        degree_n[streams] += 1.0;
      }
      all.insert(all.end(), times.begin(), times.end());
      if (spans) {
        spans->add_summed("native.offload", phase_start, offload_ns);
        spans->add_summed("native.wait", phase_start, wait_ns);
      }
    }
    const double wall_s = seconds_since(pass_t0);
    r.check(r.failed == 0, std::to_string(r.failed) +
                               " task checksums differ from the serial "
                               "reference");

    std::vector<double> latency, queue_wait, run, pf;
    double busy_ns = 0.0;
    for (const TaskTimes& tt : all) {
      latency.push_back(static_cast<double>(tt.ready - tt.submit) * 1e-3);
      queue_wait.push_back(static_cast<double>(tt.start - tt.submit) * 1e-3);
      run.push_back(static_cast<double>(tt.end - tt.start) * 1e-3);
      pf.push_back(static_cast<double>(tt.pf_end - tt.start) * 1e-3);
      busy_ns += static_cast<double>(tt.end - tt.start);
    }
    r.host["task_p50_us"] = util::percentile(latency, 50);
    r.host["task_p99_us"] = util::percentile(latency, 99);
    if (layers) {
      Layers& l = *layers;
      l["native.queue_wait_p50_us"] = util::percentile(queue_wait, 50);
      l["native.queue_wait_p99_us"] = util::percentile(queue_wait, 99);
      l["native.run_p50_us"] = util::percentile(run, 50);
      l["native.parallel_for_us"] = util::mean(pf);
      for (int s : {1, 2, 8}) {
        l["native.degree_mean.s" + std::to_string(s)] =
            degree_sum[s] / degree_n[s];
      }
      l["native.steals"] = static_cast<double>(rt_.pool().steals() - steals0);
      // Task bodies only: helper time inside parallel_for on other workers
      // is not visible from outside the pool.
      l["native.busy_share"] = busy_ns * 1e-9 / (wall_s * kWorkers);
    }
    return r;
  }

 private:
  std::int64_t ns_of(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  std::uint64_t seed_;
  int tasks_;
  native::NativeRuntime rt_;
  const Clock::time_point epoch_ = Clock::now();
  std::vector<std::vector<double>> blocks_;
  std::vector<std::uint64_t> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_native_offload(const Options& opt) {
  return std::make_unique<NativeOffload>(opt);
}

}  // namespace cbe::e2e
