// Discrete-event simulation engine.
//
// Deterministic: events at equal timestamps fire in scheduling order (a
// monotonically increasing sequence number breaks ties), so a given seed
// always produces the same makespan regardless of host behaviour.
//
// Event queue (DESIGN.md §10): a binary min-heap of 24-byte (t, seq, slot)
// entries, sifted by hand on a push, beside a sorted timeline.  Events
// scheduled before the first run_until go to the timeline, which that call
// sorts once (next event at the back); every later schedule goes to the
// heap, and a pop takes the smaller head.  So a backlog scheduled up front
// (the job service's arrivals) never sits in the heap the run sifts
// through.  The Cell model keeps a handful of events pending, so most sifts
// touch one or two levels.
//
// Slots: a callback is constructed in its slot (`InlineFn::emplace`) and
// runs there, so one event costs one construction and one call.  Slots live
// in address-stable chunks, so a callback may schedule any number of events
// while it runs; its slot is freed when it returns or throws.  A slot
// belongs to its queue entry until that entry is popped or compacted, so
// entries carry no generation.  cancel() marks the slot and destroys its
// callback; the queue skips the dead entry lazily.  A `dead_` counter bounds
// the corpses: when cancelled entries outnumber live ones the queue compacts
// in O(n), so sustained schedule/cancel churn (the job service's
// per-dispatch watchdogs) keeps memory proportional to *live* events.
// EventId generations are 64-bit, so a stale EventId can never alias a
// recycled slot within any physically reachable run length.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace cbe::sim {

/// Handle for a scheduled event; valid until the event fires or is cancelled.
struct EventId {
  std::uint32_t slot = UINT32_MAX;
  std::uint64_t generation = 0;
  bool valid() const noexcept { return slot != UINT32_MAX; }
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Schedules `fn` at absolute time `t` (must be >= now()).  `fn` is any
  /// callable convertible to SmallFn; it is constructed in its event slot.
  template <typename F>
  EventId schedule_at(Time t, F&& fn);
  /// Schedules `fn` at now() + dt.  Negative dt clamps to zero (documented:
  /// "no earlier than now"); a dt that would overflow now() + dt past
  /// Time::max() throws std::overflow_error instead of wrapping.
  template <typename F>
  EventId schedule_after(Time dt, F&& fn) {
    if (dt < Time()) dt = Time();
    if (dt > Time::max() - now_) throw_overflow();
    return schedule_at(now_ + dt, std::forward<F>(fn));
  }
  /// Cancels a pending event; no-op if it already fired or was cancelled.
  void cancel(EventId id) noexcept;

  Time now() const noexcept { return now_; }

  /// Runs until the event queue drains.  Returns the final time, which is
  /// the timestamp of the last event fired (now() does NOT jump to
  /// Time::max()).
  Time run();
  /// Simulates the window up to and including events at t == limit.  On
  /// return now() == limit even when the queue drained early or the next
  /// event lies beyond the window — the caller asked for the whole window,
  /// and downstream idle-tail attribution (src/analysis/) needs the window
  /// end, not the last-event time.  Exception: limit == Time::max() means
  /// "drain" (this is what run() calls) and leaves now() at the last event.
  Time run_until(Time limit);

  std::uint64_t events_processed() const noexcept { return processed_; }
  std::size_t events_pending() const noexcept { return live_; }
  /// Cancelled entries still resident in the queue.  Invariant (the leak
  /// fix): dead <= max(live, compaction minimum) after every mutation.
  std::size_t events_dead() const noexcept { return dead_; }
  /// Resident queue entries, live + dead.
  std::size_t queue_size() const noexcept {
    return heap_.size() + timeline_.size();
  }
  /// High-water marks, for bounded-memory assertions in long-running
  /// services: queue_peak() <= 2 * live_peak() + compaction minimum.
  std::size_t queue_peak() const noexcept { return queue_peak_; }
  std::size_t live_peak() const noexcept { return live_peak_; }

 private:
  struct Slot {
    SmallFn fn;
    std::uint64_t generation = 0;
    Slot* next_free = nullptr;
    std::uint32_t index = 0;  ///< EventId::slot
    bool live = false;
  };
  struct Entry {
    Time t;
    std::uint64_t seq;
    Slot* slot;  ///< owned by this entry until it is popped or compacted
    bool operator>(const Entry& o) const noexcept { return o < *this; }
    bool operator<(const Entry& o) const noexcept {
      if (t != o.t) return t < o.t;
      return seq < o.seq;
    }
  };
  /// Hands a fired event's slot back when its callback returns or throws.
  struct FiredSlot {
    Engine& eng;
    Slot* slot;
    ~FiredSlot() { eng.free_slot(slot); }
  };

  // Compaction fires when dead entries outnumber live ones and there are at
  // least kCompactMin of them (so tiny queues don't compact on every cancel).
  static constexpr std::size_t kCompactMin = 64;
  static constexpr std::uint32_t kSlotChunk = 4096;

  [[noreturn]] static void throw_past();
  [[noreturn]] static void throw_overflow();

  Slot* acquire_slot() {
    if (free_head_ == nullptr) return new_slot();
    Slot* s = free_head_;
    free_head_ = s->next_free;
    return s;
  }
  void free_slot(Slot* s) noexcept {
    s->next_free = free_head_;
    free_head_ = s;
  }
  /// Constructs a never-used slot.  Each chunk reserves its capacity up
  /// front, so a slot never moves, and holds only the slots ever needed.
  Slot* new_slot();
  static bool is_dead(const Entry& e) noexcept { return !e.slot->live; }
  /// Queues a new entry: on the timeline before the first run_until, else
  /// on the heap, sifted by hand so the new entry is never reloaded.
  void push(const Entry& e);
  void pop() noexcept;
  /// Skims the dead heads of the heap and the timeline, then pops the
  /// smaller of the two heads if it lies within `limit`, setting now().
  /// Returns its slot, or nullptr when no event is due.
  Slot* pop_next(Time limit) noexcept;
  /// Drops every dead entry in O(n); no allocation, so cancel() stays
  /// noexcept.
  void compact() noexcept;

  std::vector<Entry> heap_;      ///< min-heap on (t, seq)
  std::vector<Entry> timeline_;  ///< pre-run entries; sorted descending once
                                 ///< the run starts, next event at the back
  bool started_ = false;         ///< run_until has been called

  std::vector<std::vector<Slot>> chunks_;  ///< address-stable slots
  Slot* free_head_ = nullptr;              ///< intrusive free list
  Time now_;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
  std::size_t queue_peak_ = 0;
  std::size_t live_peak_ = 0;
};

template <typename F>
EventId Engine::schedule_at(Time t, F&& fn) {
  if (t < now_) throw_past();
  Slot* s = acquire_slot();
  try {
    s->fn.emplace(std::forward<F>(fn));
    push(Entry{t, seq_, s});
  } catch (...) {
    s->fn = nullptr;
    free_slot(s);
    throw;
  }
  ++seq_;
  s->live = true;
  if (++live_ > live_peak_) live_peak_ = live_;
  // Every live event and every corpse is one resident entry.
  if (live_ + dead_ > queue_peak_) queue_peak_ = live_ + dead_;
  return EventId{s->index, s->generation};
}

}  // namespace cbe::sim
