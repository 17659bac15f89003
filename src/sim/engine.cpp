#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <stdexcept>
#include <utility>

#include "trace/trace.hpp"

namespace cbe::sim {

void Engine::throw_past() {
  throw std::logic_error("Engine::schedule_at: time in the past");
}

void Engine::throw_overflow() {
  throw std::overflow_error("Engine::schedule_after: now() + dt overflows");
}

Engine::Slot* Engine::new_slot() {
  if (chunks_.empty() || chunks_.back().size() == kSlotChunk) {
    std::vector<Slot> chunk;
    chunk.reserve(kSlotChunk);
    chunks_.push_back(std::move(chunk));
  }
  std::vector<Slot>& chunk = chunks_.back();
  const auto index = static_cast<std::uint32_t>(
      (chunks_.size() - 1) * kSlotChunk + chunk.size());
  Slot& s = chunk.emplace_back();
  s.index = index;
  return &s;
}

void Engine::push(const Entry& e) {
  heap_.push_back(e);
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!(e < heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void Engine::pop() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>{});
  heap_.pop_back();
}

void Engine::cancel(EventId id) noexcept {
  const std::size_t c = id.slot / kSlotChunk;
  const std::size_t k = id.slot % kSlotChunk;
  if (!id.valid() || c >= chunks_.size() || k >= chunks_[c].size()) return;
  Slot& s = chunks_[c][k];
  if (s.live && s.generation == id.generation) {
    s.live = false;
    s.fn = nullptr;
    ++s.generation;
    --live_;
    // The queue entry stays behind as a corpse the pops skip, and keeps its
    // slot until then — but bounded: once corpses outnumber live events,
    // sweep them all in O(n).
    ++dead_;
    if (dead_ > live_ && dead_ >= kCompactMin) compact();
  }
}

void Engine::compact() noexcept {
  // remove_if applies the predicate exactly once per entry, so each dead
  // entry hands its slot back exactly once.
  const auto dead = [this](const Entry& e) {
    if (!is_dead(e)) return false;
    free_slot(e.slot);
    return true;
  };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), std::greater<Entry>{});
  dead_ = 0;
}

Time Engine::run() { return run_until(Time::max()); }

Time Engine::run_until(Time limit) {
  for (;;) {
    while (!heap_.empty() && is_dead(heap_.front())) {
      free_slot(heap_.front().slot);
      pop();
      --dead_;
    }
    if (heap_.empty() || heap_.front().t > limit) break;
    Slot* const s = heap_.front().slot;
    assert(heap_.front().t >= now_);
    now_ = heap_.front().t;
    pop();
    s->live = false;
    ++s->generation;
    --live_;
    ++processed_;
    const FiredSlot fired{*this, s};
    s->fn.consume();
  }
  // Window semantics: the caller simulated [now, limit], so the clock lands
  // on the window end — except for the drain sentinel (see header).
  if (limit < Time::max() && now_ < limit) now_ = limit;
  CBE_TRACE_EVENT(now_.nanoseconds(), trace::EventKind::EngineDrain, -1, -1,
                  static_cast<std::int64_t>(processed_),
                  static_cast<std::int64_t>(live_));
  return now_;
}

}  // namespace cbe::sim
