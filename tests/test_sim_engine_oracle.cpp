// Differential oracle for the DES engine.
//
// Seeded random scripts drive sim::Engine and a reference model side by
// side.  The reference keeps its pending events in a std::map ordered by
// (t, seq) -- the total order the engine promises -- and fires them one at a
// time.  A script schedules (ties, near and far futures, backlogs of a few
// thousand events), cancels (live, fired, stale, self and default ids),
// runs windows and drains; callbacks schedule and cancel reentrantly.  A
// second set of scripts opens with a pre-run backlog of several thousand
// events, the engine's sorted timeline (DESIGN.md §10): ties, cancels and a
// compaction before the run starts, windows that stop partway through it,
// and a compaction while it still holds live events.  Both
// sides consume one seeded stream in firing order, so any divergence in pop
// order shows up as a different log.  After every step the two must agree
// on the firing log, now(), events_processed() and events_pending(), and the
// engine must keep its dead-entry bound: dead <= max(live, 64).
//
// The second half pins the engine's slot lifetime rules: a callback runs
// where it was constructed, so it must keep reading its own capture while
// it grows the slot table, and a throwing callback must leave the engine
// consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace cbe::sim {
namespace {

class Reference {
 public:
  struct Id {
    std::uint64_t seq = UINT64_MAX;
  };

  Id schedule_at(Time t, std::function<void()> fn) {
    if (t < now_) throw std::logic_error("Reference: time in the past");
    queue_.emplace(Key{t, seq_}, std::move(fn));
    when_.emplace(seq_, t);
    return Id{seq_++};
  }
  Id schedule_after(Time dt, std::function<void()> fn) {
    return schedule_at(now_ + std::max(dt, Time()), std::move(fn));
  }
  void cancel(Id id) {
    const auto it = when_.find(id.seq);
    if (it == when_.end()) return;
    queue_.erase(Key{it->second, id.seq});
    when_.erase(it);
  }
  Time run_until(Time limit) {
    while (!queue_.empty() && queue_.begin()->first.first <= limit) {
      auto node = queue_.extract(queue_.begin());
      when_.erase(node.key().second);
      now_ = node.key().first;
      ++processed_;
      node.mapped()();
    }
    if (limit < Time::max() && now_ < limit) now_ = limit;
    return now_;
  }
  Time run() { return run_until(Time::max()); }

  Time now() const { return now_; }
  std::uint64_t events_processed() const { return processed_; }
  std::size_t events_pending() const { return queue_.size(); }
  /// Pending events among the first `n` ever scheduled.
  std::size_t pending_among_first(std::uint64_t n) const {
    return static_cast<std::size_t>(std::count_if(
        when_.begin(), when_.end(), [n](const auto& w) { return w.first < n; }));
  }

 private:
  using Key = std::pair<Time, std::uint64_t>;
  std::map<Key, std::function<void()>> queue_;
  std::unordered_map<std::uint64_t, Time> when_;
  Time now_;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
};

/// One scripted run against queue type Q.  Every random decision, the ones
/// callbacks make included, comes from `rng_`, in firing order.
template <class Q>
class Script {
 public:
  using Id = decltype(std::declval<Q&>().schedule_at(Time(), [] {}));

  explicit Script(std::uint64_t seed) : rng_(seed) {}

  /// One top-level step of the script.
  void step() {
    const Time now = q_.now();
    switch (pick(12)) {
      case 0:  // a burst of ties at one instant, possibly now()
        for (int n = 1 + pick(8), i = 0; i < n; ++i) {
          schedule(now + Time::ns(pick(3) == 0 ? 0 : 50));
        }
        break;
      case 1:
      case 2:  // scattered near future
        for (int n = 1 + pick(20), i = 0; i < n; ++i) {
          schedule(now + Time::ns(pick(2000)));
        }
        break;
      case 3:  // a backlog of 2,100-4,100 events, at coarse times
        for (int n = 2100 + pick(2000), i = 0; i < n; ++i) {
          schedule(now + Time::ns(100 * pick(3000)));
        }
        break;
      case 4:  // cancel most recent ids: corpses outnumber live events
        for (std::size_t i = ids_.size() - std::min<std::size_t>(
                                               ids_.size(), 3000);
             i < ids_.size(); ++i) {
          if (pick(10) < 8) q_.cancel(ids_[i]);
        }
        break;
      case 5:  // a few cancels of any id ever issued
        for (int n = 1 + pick(10), i = 0; i < n; ++i) cancel_any();
        q_.cancel(Id{});
        break;
      case 6:
      case 7:
      case 8:  // a window of varying width
        q_.run_until(now + Time::ns(pick(4) == 0 ? 0 : pick(5000)));
        break;
      case 9:  // a window ending exactly on a scheduled tie
        schedule(now + Time::ns(700));
        schedule(now + Time::ns(700));
        q_.run_until(now + Time::ns(700));
        break;
      case 10:  // relative schedule, negative delays clamp to now()
        ids_.push_back(q_.schedule_after(Time::ns(pick(200) - 50),
                                         fire_fn(next_label())));
        break;
      default:
        if (pick(4) == 0) q_.run();
        break;
    }
  }

  /// A backlog scheduled before the first window: 3,000-6,000 events at
  /// coarse times (many equal-t ties), then either a few cancels or a mass
  /// cancel that compacts the unsorted timeline.  Returns the number of
  /// events scheduled.
  std::size_t backlog() {
    for (int n = 3000 + pick(3000), i = 0; i < n; ++i) {
      schedule(Time::ns(100 * pick(2000)));
    }
    if (pick(2) == 0) {
      for (std::size_t i = 0; i < ids_.size(); ++i) {
        if (pick(10) < 8) q_.cancel(ids_[i]);
      }
    } else {
      for (int n = 1 + pick(200), i = 0; i < n; ++i) cancel_any();
    }
    return ids_.size();
  }
  /// Cancels seven in eight of the first `n` ids: with the backlog still
  /// pending, the compaction this triggers sweeps the timeline.
  void cancel_first(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 8 != 0) q_.cancel(ids_[i]);
    }
  }
  Q& queue() { return q_; }
  const std::vector<std::pair<std::size_t, std::int64_t>>& log() const {
    return log_;
  }

 private:
  int pick(int n) {
    return static_cast<int>(rng_() % static_cast<std::uint64_t>(n));
  }
  std::size_t next_label() { return ids_.size(); }

  std::function<void()> fire_fn(std::size_t label) {
    return [this, label] { on_fire(label); };
  }
  void schedule(Time t) {
    ids_.push_back(q_.schedule_at(t, fire_fn(next_label())));
  }
  void cancel_any() {
    if (!ids_.empty()) {
      q_.cancel(ids_[static_cast<std::size_t>(rng_() % ids_.size())]);
    }
  }

  /// A callback's reentrant reaction: children at now() (ties with the
  /// running instant), nearby or far away, and cancels of random ids, of
  /// its own id and of a child it has just scheduled.
  void on_fire(std::size_t label) {
    const Time now = q_.now();
    log_.emplace_back(label, now.nanoseconds());
    const bool grow = q_.events_pending() < 6000;
    switch (pick(16)) {
      case 0:
      case 1:
        if (grow) schedule(now);
        break;
      case 2:
      case 3:
        if (grow) schedule(now + Time::ns(1 + pick(8)));
        break;
      case 4:
        if (grow) schedule(now + Time::ns(1 + pick(100000)));
        break;
      case 5:
        if (grow) {
          const Time t = now + Time::ns(pick(30));
          schedule(t);
          schedule(t);
        }
        break;
      case 6:
        cancel_any();
        break;
      case 7:
        q_.cancel(ids_[label]);  // its own id: the event already fired
        break;
      case 8:
        if (grow) {
          schedule(now + Time::ns(pick(10)));
          q_.cancel(ids_.back());
        }
        break;
      default:
        break;
    }
  }

  Q q_;
  std::mt19937_64 rng_;
  std::vector<Id> ids_;
  std::vector<std::pair<std::size_t, std::int64_t>> log_;
};

/// The two sides agree on everything observable, and the engine keeps its
/// dead-entry bound.
void expect_agree(Script<Engine>& eng, Script<Reference>& ref,
                  std::size_t& checked, const std::string& where) {
  Engine& e = eng.queue();
  Reference& r = ref.queue();
  ASSERT_EQ(eng.log().size(), ref.log().size()) << where;
  const auto from = static_cast<std::ptrdiff_t>(checked);
  ASSERT_TRUE(std::equal(eng.log().begin() + from, eng.log().end(),
                         ref.log().begin() + from))
      << where;
  checked = eng.log().size();
  ASSERT_EQ(e.now(), r.now()) << where;
  ASSERT_EQ(e.events_processed(), r.events_processed()) << where;
  ASSERT_EQ(e.events_pending(), r.events_pending()) << where;
  ASSERT_LE(e.events_dead(), std::max<std::size_t>(e.events_pending(), 64))
      << where;
}

TEST(EngineOracle, RandomScriptsMatchTheOrderedReference) {
  constexpr int kSeeds = 12;
  constexpr int kSteps = 300;
  std::size_t fired = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Script<Engine> eng(seed);
    Script<Reference> ref(seed);
    std::size_t checked = 0;  // log prefix already compared
    for (int step = 0; step < kSteps; ++step) {
      eng.step();
      ref.step();
      ASSERT_NO_FATAL_FAILURE(expect_agree(
          eng, ref, checked,
          "seed " + std::to_string(seed) + " step " + std::to_string(step)));
    }
    eng.queue().run();
    ref.queue().run();
    ASSERT_EQ(eng.log(), ref.log()) << "seed " << seed << " drain";
    EXPECT_EQ(eng.queue().events_pending(), 0u);
    EXPECT_EQ(eng.queue().events_dead(), 0u);
    fired += eng.log().size();
  }
  EXPECT_GT(fired, 100000u);  // the scripts really exercise the queue
}

TEST(EngineOracle, PreRunBacklogMatchesTheOrderedReference) {
  constexpr int kSeeds = 12;
  constexpr int kSteps = 150;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Script<Engine> eng(seed);
    Script<Reference> ref(seed);
    std::size_t checked = 0;
    const std::string at = "seed " + std::to_string(seed);
    const std::size_t n = eng.backlog();
    ASSERT_EQ(ref.backlog(), n) << at;
    ASSERT_NO_FATAL_FAILURE(expect_agree(eng, ref, checked, at + " backlog"));
    // Windows that stop partway through the backlog, on a tie instant and
    // between two.
    for (const std::int64_t end : {0, 15000, 15050, 40000}) {
      eng.queue().run_until(Time::ns(end));
      ref.queue().run_until(Time::ns(end));
      ASSERT_NO_FATAL_FAILURE(expect_agree(
          eng, ref, checked, at + " window to " + std::to_string(end)));
    }
    const std::size_t resident = eng.queue().queue_size();
    eng.cancel_first(n);
    ref.cancel_first(n);
    ASSERT_NO_FATAL_FAILURE(
        expect_agree(eng, ref, checked, at + " mass cancel"));
    // A compaction ran (only compaction drops resident entries), and
    // backlog events outlived it on the timeline.
    EXPECT_LT(eng.queue().queue_size(), resident) << at;
    EXPECT_GT(ref.queue().pending_among_first(n), 0u) << at;
    for (int step = 0; step < kSteps; ++step) {
      eng.step();
      ref.step();
      ASSERT_NO_FATAL_FAILURE(expect_agree(
          eng, ref, checked, at + " step " + std::to_string(step)));
    }
    eng.queue().run();
    ref.queue().run();
    ASSERT_EQ(eng.log(), ref.log()) << at << " drain";
    EXPECT_EQ(eng.queue().events_pending(), 0u);
    EXPECT_EQ(eng.queue().events_dead(), 0u);
    EXPECT_EQ(eng.queue().queue_size(), 0u);
  }
}

TEST(EngineLifetime, CallbackThatGrowsTheSlotTableKeepsItsCapture) {
  Engine eng;
  std::array<std::uint64_t, 6> seen{};
  int children = 0;
  // A 64-byte capture (a full slot), read after 10,000 reentrant schedules
  // have grown the slot table by more than two chunks of 4096 slots.
  const std::array<std::uint64_t, 5> payload{11, 22, 33, 44, 55};
  auto grow = [&eng, &seen, &children, payload] {
    for (int i = 0; i < 10000; ++i) {
      eng.schedule_after(Time::ns(1 + i % 5), [&children] { ++children; });
    }
    for (std::size_t i = 0; i < payload.size(); ++i) seen[i] = payload[i];
    seen[5] = 1;
  };
  static_assert(SmallFn::fits_inline<decltype(grow)>);
  eng.schedule_at(Time::us(1.0), std::move(grow));
  eng.run();
  EXPECT_EQ(seen, (std::array<std::uint64_t, 6>{11, 22, 33, 44, 55, 1}));
  EXPECT_EQ(children, 10000);
  EXPECT_EQ(eng.events_pending(), 0u);
}

TEST(EngineLifetime, ThrowingCallbackLeavesTheEngineConsistent) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(Time::us(1.0), [&order] { order.push_back(1); });
  auto token = std::make_shared<int>(0);
  const EventId thrower = eng.schedule_at(Time::us(2.0), [&order, token] {
    order.push_back(2);
    throw std::runtime_error("callback failed");
  });
  eng.schedule_at(Time::us(3.0), [&order] { order.push_back(3); });
  eng.schedule_at(Time::us(3.0), [&order] { order.push_back(4); });
  EXPECT_THROW(eng.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now(), Time::us(2.0));
  EXPECT_EQ(eng.events_processed(), 2u);
  EXPECT_EQ(eng.events_pending(), 2u);
  EXPECT_EQ(token.use_count(), 1);  // the thrower's capture was destroyed
  // The thrower's slot is free again: free slots are reused last-in
  // first-out, so the next schedule takes it, and draining the queue leaves
  // the events still pending undisturbed.
  for (int i = 0; i < 8; ++i) {
    const EventId id = eng.schedule_at(
        Time::us(2.5), [&order, i] { order.push_back(10 + i); });
    if (i == 0) {
      EXPECT_EQ(id.slot, thrower.slot);
    }
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 11, 12, 13, 14, 15, 16, 17,
                                     3, 4}));
  EXPECT_EQ(eng.events_pending(), 0u);
  EXPECT_EQ(eng.events_dead(), 0u);
}

}  // namespace
}  // namespace cbe::sim
