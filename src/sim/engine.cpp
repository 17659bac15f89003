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
  if (!started_) {
    timeline_.push_back(e);
    return;
  }
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

Engine::Slot* Engine::pop_next(Time limit) noexcept {
  while (!heap_.empty() && is_dead(heap_.front())) {
    free_slot(heap_.front().slot);
    pop();
    --dead_;
  }
  while (!timeline_.empty() && is_dead(timeline_.back())) {
    free_slot(timeline_.back().slot);
    timeline_.pop_back();
    --dead_;
  }
  const bool from_timeline =
      !timeline_.empty() &&
      (heap_.empty() || timeline_.back() < heap_.front());
  const Entry* next = from_timeline  ? &timeline_.back()
                      : heap_.empty() ? nullptr
                                      : &heap_.front();
  if (next == nullptr || next->t > limit) return nullptr;
  Slot* const s = next->slot;
  assert(next->t >= now_);
  now_ = next->t;
  if (from_timeline) {
    timeline_.pop_back();
  } else {
    pop();
  }
  return s;
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
  // remove_if is stable, so the timeline stays sorted.
  timeline_.erase(std::remove_if(timeline_.begin(), timeline_.end(), dead),
                  timeline_.end());
  dead_ = 0;
}

Time Engine::run() { return run_until(Time::max()); }

Time Engine::run_until(Time limit) {
  if (!started_) {
    started_ = true;
    // The one sort of the pre-run backlog; (t, seq) is a total order.
    std::sort(timeline_.begin(), timeline_.end(), std::greater<Entry>{});
  }
  while (Slot* const s = pop_next(limit)) {
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
