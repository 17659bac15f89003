// Flight-recorder invariants (DESIGN.md §12): a bounded TraceSink keeps
// exactly the newest events in record order with exact loss accounting, it
// matches the tail of an unbounded run, spans ride along, dumps parse
// strictly, and per-thread ambient sinks stay separate under the TSan CI leg.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/trace_parse.hpp"
#include "jobsvc/service.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace {

using namespace cbe;
using trace::EventKind;

TEST(FlightRecorderTest, HoldsEverythingUnderCapacity) {
  trace::TraceSink rec(64);
  for (int i = 0; i < 50; ++i) {
    rec.record(i, EventKind::TaskDispatch, 0, i);
  }
  const std::vector<trace::Event> tail = rec.tail();
  ASSERT_EQ(tail.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(tail[static_cast<std::size_t>(i)].t_ns, i);
    EXPECT_EQ(tail[static_cast<std::size_t>(i)].pid, i);
  }
  EXPECT_EQ(rec.recorded(), 50u);
  EXPECT_EQ(rec.overwritten(), 0u);
}

// The load-bearing invariant: when the ring wraps, what survives is exactly
// the *newest* `capacity` events, in order, and the loss counter accounts
// for every event that fell off the back.
TEST(FlightRecorderTest, OverwriteKeepsExactlyTheNewestInOrder) {
  constexpr int kCapacity = 64;
  constexpr int kTotal = 5 * kCapacity + 17;
  trace::TraceSink rec(kCapacity);
  for (int i = 0; i < kTotal; ++i) {
    rec.record(i, EventKind::TaskDispatch, 0, i);
  }
  const std::vector<trace::Event> tail = rec.tail();
  ASSERT_EQ(tail.size(), static_cast<std::size_t>(kCapacity));
  for (int k = 0; k < kCapacity; ++k) {
    const int want = kTotal - kCapacity + k;
    EXPECT_EQ(tail[static_cast<std::size_t>(k)].t_ns, want);
    EXPECT_EQ(tail[static_cast<std::size_t>(k)].pid, want);
  }
  EXPECT_EQ(rec.recorded(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(rec.overwritten(),
            static_cast<std::uint64_t>(kTotal - kCapacity));
}

TEST(FlightRecorderTest, CapacityClampsToMinimum) {
  trace::TraceSink rec(1);
  for (int i = 0; i < 40; ++i) rec.record(i, EventKind::TaskDispatch, 0, i);
  EXPECT_EQ(rec.size(), trace::TraceSink::kMinCapacity);
  EXPECT_EQ(rec.tail().front().t_ns,
            40 - static_cast<int>(trace::TraceSink::kMinCapacity));
}

TEST(FlightRecorderTest, CapturesAmbientSpan) {
  trace::TraceSink rec(64);
  rec.record(1, EventKind::TaskDispatch, 0, 0);
  {
    trace::ScopedSpan span(trace::make_span(7, 2, 1, 3));
    rec.record(2, EventKind::TaskComplete, 0, 0);
  }
  const std::vector<trace::Event> tail = rec.tail();
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].span, trace::kNoSpan);
  const trace::SpanParts p = trace::span_parts(tail[1].span);
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.job, 7u);
  EXPECT_EQ(p.attempt, 2u);
  EXPECT_EQ(p.hop, 1u);
  EXPECT_EQ(p.task, 3u);
}

trace::TraceSink run_chaos_service(std::size_t capacity) {
  jobsvc::JobMixConfig mix;
  mix.jobs = 60;
  jobsvc::ServiceConfig cfg;
  cfg.fleet = platform::BladeFleetConfig::uniform(4, 4);
  cfg.seed = 2026;
  cfg.fault.seed = 7;
  cfg.fault.blade_fail_rate = 0.3;
  trace::TraceSink sink(capacity);
  cfg.trace = &sink;
  jobsvc::Service svc(cfg);
  svc.run(jobsvc::make_job_mix(mix));
  return sink;
}

// The bounded mode is the unbounded one with the front cut off: one seeded
// service run, recorded both ways, leaves the ring holding exactly the last
// `capacity` events of the full stream, in the same (time-monotone) order.
TEST(FlightRecorderTest, BoundedSinkHoldsTheUnboundedRunsNewestEvents) {
  constexpr std::size_t kCapacity = 256;
  const trace::TraceSink full = run_chaos_service(0);
  const trace::TraceSink ring = run_chaos_service(kCapacity);
  const std::vector<trace::Event>& all = full.events();
  EXPECT_EQ(ring.recorded(), all.size());
  EXPECT_EQ(ring.recorded() - ring.overwritten(), ring.size());
  ASSERT_GT(all.size(), kCapacity);
  EXPECT_EQ(ring.size(), kCapacity);
  const std::size_t kept = ring.size();
  const std::vector<trace::Event> newest(
      all.end() - static_cast<std::ptrdiff_t>(kept), all.end());
  const std::vector<trace::Event> tail = ring.tail();
  EXPECT_EQ(trace::to_text(tail), trace::to_text(newest));
  for (std::size_t i = 1; i < tail.size(); ++i) {
    EXPECT_LE(tail[i - 1].t_ns, tail[i].t_ns);
  }
}

// A sink has one writer: two threads record at once, each into the ambient
// sink it installed itself (one bounded, one unbounded), and each sink sees
// only its own thread's events and spans.  Run under TSan in CI.
TEST(FlightRecorderStressTest, EachThreadRecordsIntoItsOwnAmbientSink) {
  static constexpr int kEvents = 5000;
  trace::TraceSink sinks[2] = {trace::TraceSink(0), trace::TraceSink(128)};
  std::atomic<int> ready{0};
  auto writer = [&sinks, &ready](int t) {
    trace::ScopedTrace install(&sinks[t]);
    trace::ScopedSpan span(trace::make_span(static_cast<std::uint64_t>(t),
                                            0, 0, 0));
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (ready.load(std::memory_order_acquire) < 2) std::this_thread::yield();
    for (int i = 0; i < kEvents; ++i) {
      trace::current()->record(i, EventKind::TaskDispatch, t, i);
    }
  };
  std::thread a(writer, 0);
  std::thread b(writer, 1);
  a.join();
  b.join();

  for (int t = 0; t < 2; ++t) {
    const trace::TraceSink& sink = sinks[t];
    EXPECT_EQ(sink.recorded(), static_cast<std::uint64_t>(kEvents));
    const std::vector<trace::Event> tail = sink.tail();
    ASSERT_EQ(tail.size(), t == 0 ? std::size_t{kEvents} : std::size_t{128});
    const int first = kEvents - static_cast<int>(tail.size());
    for (std::size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(tail[i].spe, t);
      EXPECT_EQ(tail[i].pid, first + static_cast<int>(i));
      EXPECT_EQ(trace::span_parts(tail[i].span).job,
                static_cast<std::uint32_t>(t));
    }
  }
  EXPECT_EQ(trace::current(), nullptr);
}

// A span survives the full text round trip: tagged events render with a
// trailing ` s=<span>`, the strict parser restores the exact id, and
// untagged events stay byte-identical to the pre-span format.
TEST(SpanRoundTripTest, TextFormatPreservesSpans) {
  std::vector<trace::Event> events;
  events.push_back(
      trace::Event{100, 0, 1, 3, 0, EventKind::TaskDispatch, trace::kNoSpan});
  events.push_back(trace::Event{200, 4, 5, 8, 1, EventKind::TaskComplete,
                                trace::make_span(12, 3, 1, 8)});
  const std::string text = trace::to_text(events);
  EXPECT_EQ(text.find(" s="), text.rfind(" s="))
      << "untagged events must not grow a span field";

  std::vector<trace::Event> parsed;
  std::string err;
  ASSERT_TRUE(analysis::parse_text_trace(text, parsed, &err)) << err;
  ASSERT_EQ(parsed.size(), events.size());
  EXPECT_EQ(parsed[0].span, trace::kNoSpan);
  EXPECT_EQ(parsed[1].span, trace::make_span(12, 3, 1, 8));
  const trace::SpanParts p = trace::span_parts(parsed[1].span);
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.job, 12u);
  EXPECT_EQ(p.attempt, 3u);
  EXPECT_EQ(p.hop, 1u);
  EXPECT_EQ(p.task, 8u);
}

TEST(SpanRoundTripTest, MalformedSpanTailIsRejected) {
  std::vector<trace::Event> parsed;
  std::string err;
  EXPECT_FALSE(analysis::parse_text_trace(
      "# cbe-trace v1\n100 task_dispatch spe=0 pid=3 a=0 b=1 s=junk\n",
      parsed, &err));
  EXPECT_FALSE(analysis::parse_text_trace(
      "# cbe-trace v1\n100 task_dispatch spe=0 pid=3 a=0 b=1 s=5 extra\n",
      parsed, &err));
}

TEST(SpanPackingTest, SaturatesInsteadOfBleedingAcrossFields) {
  // job 0 is representable and distinct from "no span".
  EXPECT_NE(trace::make_span(0, 0, 0, 0), trace::kNoSpan);
  // Oversized narrow fields saturate instead of corrupting neighbours.
  const trace::SpanParts p =
      trace::span_parts(trace::make_span(5, 1u << 20, 1u << 20, 1u << 20));
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.job, 5u);
  EXPECT_EQ(p.attempt, 0xffu);
  EXPECT_EQ(p.hop, 0xffu);
  EXPECT_EQ(p.task, 0xffffu);
}

// The dump text is a strict `# cbe-trace v1` stream (comments carry the
// reason and loss counters), so every crash artifact feeds cell_profiler.
TEST(FlightDumpTest, DumpTextParsesStrictAndCarriesReason) {
  trace::TraceSink rec(32);
  trace::TraceSink full;
  {
    trace::ScopedSpan span(trace::make_span(3, 1, 0, 2));
    for (int i = 0; i < 40; ++i) {
      rec.record(i, EventKind::TaskDispatch, 0, i);
      full.record(i, EventKind::TaskDispatch, 0, i);
    }
  }
  const std::string text = trace::flight_dump_text(rec, 32, "test");
  EXPECT_NE(text.find("# flight-recorder reason=test recorded=40 "
                      "overwritten=8 capacity=32\n"),
            std::string::npos);
  // An unbounded sink dumped through the same window writes the same file
  // (cell_jobsvc --trace with --flight-recorder).
  EXPECT_EQ(trace::flight_dump_text(full, 32, "test"), text);
  std::vector<trace::Event> parsed;
  std::string err;
  ASSERT_TRUE(analysis::parse_text_trace(text, parsed, &err)) << err;
  ASSERT_EQ(parsed.size(), 32u);
  // The causal span tail survives the dump round trip.
  EXPECT_EQ(trace::span_parts(parsed.back().span).job, 3u);
}

TEST(FlightDumpTest, InstallDumpBudgetAndForce) {
  const std::string path =
      testing::TempDir() + "/flight_recorder_dump_test.trace";
  trace::TraceSink rec(32);
  rec.record(1, EventKind::TaskDispatch, 0, 0);
  const std::uint64_t before = trace::flight_dumps_written();
  trace::install_flight_recorder(&rec, 32, path, /*max_dumps=*/1);
  std::uint64_t recorded = 0;
  std::uint64_t overwritten = 1;
  ASSERT_TRUE(trace::flight_recorder_counts(recorded, overwritten));
  EXPECT_EQ(recorded, 1u);
  EXPECT_EQ(overwritten, 0u);
  EXPECT_TRUE(trace::dump_flight_recorder("first"));
  EXPECT_FALSE(trace::dump_flight_recorder("budget-exhausted"));
  EXPECT_TRUE(trace::dump_flight_recorder("forced", /*force=*/true));
  EXPECT_EQ(trace::flight_dumps_written(), before + 2);
  trace::install_flight_recorder(nullptr, 0, "");
  EXPECT_FALSE(trace::dump_flight_recorder("uninstalled"));
  EXPECT_FALSE(trace::flight_recorder_counts(recorded, overwritten));
  std::remove(path.c_str());
}

}  // namespace
