#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/callback.hpp"
#include "sim/fifo.hpp"
#include "sim/pool.hpp"

namespace cbe::sim {
namespace {

TEST(Time, ArithmeticAndConversions) {
  EXPECT_EQ((Time::us(1.0) + Time::us(2.0)).nanoseconds(), 3000);
  EXPECT_EQ((Time::ms(1.0) - Time::us(1.0)).nanoseconds(), 999000);
  EXPECT_DOUBLE_EQ(Time::sec(2.0).to_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(Time::us(5.0).to_us(), 5.0);
  EXPECT_DOUBLE_EQ(Time::sec(4.0) / Time::sec(2.0), 2.0);
  EXPECT_EQ((Time::us(10.0) * 0.5).nanoseconds(), 5000);
  EXPECT_LT(Time::us(1.0), Time::us(2.0));
}

TEST(Time, CyclesToTimeRoundsUpAndFloorsAtOneNs) {
  EXPECT_EQ(cycles_to_time(3.2, 3.2).nanoseconds(), 1);
  EXPECT_EQ(cycles_to_time(0.1, 3.2).nanoseconds(), 1);
  EXPECT_EQ(cycles_to_time(0.0, 3.2).nanoseconds(), 0);
  EXPECT_EQ(cycles_to_time(6.4, 3.2).nanoseconds(), 2);
  EXPECT_EQ(cycles_to_time(6.5, 3.2).nanoseconds(), 3);  // ceil
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(Time::us(3.0), [&] { order.push_back(3); });
  eng.schedule_at(Time::us(1.0), [&] { order.push_back(1); });
  eng.schedule_at(Time::us(2.0), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), Time::us(3.0));
}

TEST(Engine, TiesBreakInSchedulingOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(Time::us(1.0), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine eng;
  Time fired;
  eng.schedule_at(Time::us(5.0), [&] {
    eng.schedule_after(Time::us(2.0), [&] { fired = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(fired, Time::us(7.0));
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine eng;
  bool fired = false;
  eng.schedule_after(Time::us(-5.0), [&] { fired = true; });
  eng.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(eng.now(), Time());
}

TEST(Engine, SchedulingInPastThrows) {
  Engine eng;
  eng.schedule_at(Time::us(2.0), [&] {
    EXPECT_THROW(eng.schedule_at(Time::us(1.0), [] {}),
                 std::logic_error);
  });
  eng.run();
}

TEST(Engine, CancelPreventsExecution) {
  Engine eng;
  bool fired = false;
  const EventId id = eng.schedule_at(Time::us(1.0), [&] { fired = true; });
  EXPECT_TRUE(eng.pending(id));
  eng.cancel(id);
  EXPECT_FALSE(eng.pending(id));
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelIsIdempotentAndSafeOnFired) {
  Engine eng;
  const EventId id = eng.schedule_at(Time::us(1.0), [] {});
  eng.run();
  EXPECT_FALSE(eng.pending(id));
  EXPECT_NO_THROW(eng.cancel(id));
  EXPECT_NO_THROW(eng.cancel(EventId{}));
}

TEST(Engine, SlotReuseDoesNotResurrectOldId) {
  Engine eng;
  bool first = false, second = false;
  const EventId id1 = eng.schedule_at(Time::us(1.0), [&] { first = true; });
  eng.cancel(id1);
  const EventId id2 = eng.schedule_at(Time::us(2.0), [&] { second = true; });
  // id1's slot may have been recycled for id2; cancelling id1 again must
  // not kill id2.
  eng.cancel(id1);
  EXPECT_TRUE(eng.pending(id2));
  eng.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(Time::us(1.0), [&] { ++fired; });
  eng.schedule_at(Time::us(10.0), [&] { ++fired; });
  eng.run_until(Time::us(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.events_pending(), 1u);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, CallbackChainsAdvanceTime) {
  Engine eng;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) eng.schedule_after(Time::ns(10), chain);
  };
  eng.schedule_after(Time::ns(10), chain);
  eng.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(eng.now(), Time::ns(1000));
  EXPECT_EQ(eng.events_processed(), 100u);
}

TEST(Engine, ManyEventsStress) {
  Engine eng;
  std::uint64_t sum = 0;
  for (int i = 0; i < 100000; ++i) {
    eng.schedule_at(Time::ns(i % 997), [&sum] { ++sum; });
  }
  eng.run();
  EXPECT_EQ(sum, 100000u);
}

TEST(Engine, CancelInterleavedWithExecutionStress) {
  Engine eng;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(
        eng.schedule_at(Time::ns(i), [&fired] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) eng.cancel(ids[i]);
  eng.run();
  EXPECT_EQ(fired, 500);
}

TEST(Engine, ScheduleAfterOverflowThrows) {
  Engine eng;
  eng.schedule_at(Time::us(1.0), [] {});
  eng.run();  // now() > 0 so now() + max() would wrap
  EXPECT_THROW(eng.schedule_after(Time::max(), [] {}), std::overflow_error);
  // The largest non-overflowing delay is accepted.
  EXPECT_NO_THROW(eng.schedule_after(Time::max() - eng.now(), [] {}));
}

TEST(Engine, RunUntilAdvancesClockToWindowEnd) {
  Engine eng;
  eng.schedule_at(Time::us(1.0), [] {});
  eng.run_until(Time::us(5.0));
  // Idle tail: the caller simulated the whole window, so the clock lands on
  // its end even though the last event fired at 1us.
  EXPECT_EQ(eng.now(), Time::us(5.0));
  // An empty window still advances the clock.
  eng.run_until(Time::us(9.0));
  EXPECT_EQ(eng.now(), Time::us(9.0));
  // run() == drain semantics: the clock stays at the last event.
  eng.schedule_at(Time::us(12.0), [] {});
  eng.run();
  EXPECT_EQ(eng.now(), Time::us(12.0));
}

TEST(Engine, RunUntilFiresBoundaryEventAtExactlyLimit) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(Time::us(5.0), [&] { ++fired; });
  eng.schedule_at(Time::ns(5001), [&] { ++fired; });
  eng.run_until(Time::us(5.0));
  EXPECT_EQ(fired, 1);  // t == limit fires, t == limit + 1ns does not
  EXPECT_EQ(eng.events_pending(), 1u);
}

TEST(Engine, ReentrantSchedulingAcrossSlotReallocation) {
  // The callback schedules enough new events to force slots_ (and every
  // queue vector) to reallocate while cb() is on the stack; the engine must
  // not hold references across the call.
  Engine eng;
  int fired = 0;
  eng.schedule_at(Time::us(1.0), [&] {
    for (int i = 0; i < 4096; ++i) {
      eng.schedule_after(Time::ns(1 + i % 7), [&] { ++fired; });
    }
  });
  eng.run();
  EXPECT_EQ(fired, 4096);
}

TEST(Engine, CancelOfFiredIdInsideLaterCallback) {
  Engine eng;
  EventId first;
  bool second = false;
  first = eng.schedule_at(Time::us(1.0), [] {});
  eng.schedule_at(Time::us(2.0), [&] {
    eng.cancel(first);  // already fired: must be a no-op
    second = true;
  });
  eng.run();
  EXPECT_TRUE(second);
  EXPECT_EQ(eng.events_processed(), 2u);
}

// The leak regression (ISSUE 8): sustained schedule/cancel churn — the job
// service's per-dispatch watchdog pattern — must not accumulate dead
// entries.  Before the dead-entry compaction fix the queue retained one
// corpse per cancel, growing to ~1M resident entries here.
TEST(Engine, ChurnOnFewSlotsKeepsQueueBounded) {
  Engine eng;
  constexpr int kOutstanding = 64;
  constexpr int kChurn = 1200000;
  EventId watchdogs[kOutstanding];
  std::uint64_t fired = 0;
  std::int64_t t = 0;
  for (int i = 0; i < kChurn; ++i) {
    const int k = i % kOutstanding;
    eng.cancel(watchdogs[k]);  // mostly live: cancels a pending watchdog
    watchdogs[k] = eng.schedule_at(Time::ns(t + 1000 + i % 97),
                                   [&fired] { ++fired; });
    if (i % 256 == 0) {
      t += 10;
      eng.run_until(Time::ns(t));
    }
    // The heap never holds more corpses than live events (plus the small
    // compaction floor).
    ASSERT_LE(eng.events_dead(),
              std::max<std::size_t>(eng.events_pending(), 64));
    ASSERT_LE(eng.queue_size(), 2 * eng.events_pending() + 64);
  }
  eng.run();
  EXPECT_EQ(eng.events_pending(), 0u);
  EXPECT_EQ(eng.events_dead(), 0u);
  // Few slots: every cancelled slot is recycled, so the table stays small
  // even though >1M events passed through it.
  EXPECT_LE(eng.queue_peak(), 2u * kOutstanding + 64u);
  EXPECT_GT(fired, 0u);
  // Reuse-before-pop safety: the last generation of watchdogs is still
  // individually addressable — cancelling them hits exactly those events.
  const std::uint64_t before = fired;
  for (auto& id : watchdogs) eng.cancel(id);
  eng.run();
  EXPECT_EQ(fired, before);
}

TEST(Engine, TwoRunDeterminism) {
  // Identical schedules (including cancels and reentrant callbacks) must
  // fire in an identical order through the banded queue.
  const auto trace = [] {
    Engine eng;
    std::vector<std::uint64_t> log;
    std::vector<EventId> ids;
    for (int i = 0; i < 5000; ++i) {
      const std::int64_t t = (i * 2654435761u) % 100000;
      ids.push_back(eng.schedule_at(Time::ns(t), [&log, &eng, i] {
        log.push_back(static_cast<std::uint64_t>(i) * 131 +
                      static_cast<std::uint64_t>(eng.now().nanoseconds()));
        if (i % 17 == 0) {
          eng.schedule_after(Time::ns(i % 23), [&log] { log.push_back(7); });
        }
      }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) eng.cancel(ids[i]);
    eng.run();
    return log;
  };
  EXPECT_EQ(trace(), trace());
}

TEST(Engine, TimeNeverGoesBackwards) {
  Engine eng;
  Time last;
  for (int i = 0; i < 50; ++i) {
    eng.schedule_at(Time::ns(i * 7 % 100), [&, i] {
      EXPECT_GE(eng.now(), last);
      last = eng.now();
    });
  }
  eng.run();
}

TEST(InlineFn, SmallCapturesStayInlineAndWidenWithoutReboxing) {
  int hits = 0;
  auto bump = [&hits] { ++hits; };
  static_assert(InlineFn<void(), 32>::fits_inline<decltype(bump)>);
  InlineFn<void(), 32> narrow = bump;
  SmallFn wide = std::move(narrow);
  EXPECT_FALSE(narrow);
  ASSERT_TRUE(wide);
  wide();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFn, OversizedCapturesFallBackToTheHeap) {
  std::array<std::uint64_t, 8> big{};
  big[7] = 40;
  auto add = [big](int x) { return static_cast<int>(big[7]) + x; };
  static_assert(!InlineFn<int(int), 32>::fits_inline<decltype(add)>);
  InlineFn<int(int), 32> f = add;
  InlineFn<int(int), 64> g = std::move(f);
  EXPECT_EQ(g(2), 42);
}

TEST(InlineFn, ForwardsArgumentsAndDestroysCapturesOnce) {
  auto token = std::make_shared<int>(0);
  InlineFn<void(bool, bool), 32> f = [token](bool a, bool b) {
    *token = (a ? 1 : 0) + (b ? 2 : 0);
  };
  InlineFn<void(bool, bool), 32> g = std::move(f);
  g(true, true);
  EXPECT_EQ(*token, 3);
  EXPECT_EQ(token.use_count(), 2);
  g = nullptr;
  EXPECT_EQ(token.use_count(), 1);
}

struct PooledRecord : Pooled<PooledRecord> {
  int value = 0;
  int recycled = 0;
  void recycle() noexcept { ++recycled; }
};

TEST(RecordPool, RecyclesOnLastReleaseAndReusesTheRecord) {
  RecordPool<PooledRecord> pool;
  Ref<PooledRecord> a = pool.acquire();
  PooledRecord* first = a.get();
  Ref<PooledRecord> b = a;
  a.reset();
  EXPECT_EQ(first->recycled, 0);  // b still shares it
  b.reset();
  EXPECT_EQ(first->recycled, 1);
  Ref<PooledRecord> c = pool.acquire();
  EXPECT_EQ(c.get(), first);
  Ref<PooledRecord> d = pool.acquire();
  EXPECT_NE(d.get(), first);
}

TEST(RecordPool, LiveRecordsOutliveTheirPool) {
  Ref<PooledRecord> survivor;
  {
    RecordPool<PooledRecord> pool;
    survivor = pool.acquire();
    survivor->value = 5;
  }
  // Detached from the dead pool: still usable, and freed by its last
  // release (the sanitizer builds check both).
  EXPECT_EQ(survivor->value, 5);
  survivor.reset();
}

TEST(Fifo, KeepsOrderAcrossWrapAroundAndGrowth) {
  Fifo<int> q;
  int pushed = 0;
  int popped = 0;
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i <= round % 13; ++i) q.push_back(pushed++);
    for (int i = 0; i < round % 7 && !q.empty(); ++i) {
      EXPECT_EQ(q.front(), popped++);
      q.pop_front();
    }
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(pushed - popped));
  while (!q.empty()) {
    EXPECT_EQ(q.front(), popped++);
    q.pop_front();
  }
  EXPECT_EQ(popped, pushed);
}

}  // namespace
}  // namespace cbe::sim
