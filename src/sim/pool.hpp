// Recycled, reference-counted continuation records.
//
// A simulated off-load is a chain of engine callbacks that share one record
// (the attempt, the loop's join state).  Each pending callback holds a
// Ref<T>; the record goes back to its pool's free list when the last Ref
// drops — whether the callback ran or was discarded unrun (a completion
// suppressed by a fail-stop, a cancelled event, an engine torn down early).
// Records are reused as they are, so vectors inside them keep their
// capacity and a warmed-up pool serves every later acquire without the heap.
//
// Lifetime: a pool destroyed while records are still referenced detaches
// them, and each frees itself on its last release, so a callback that
// outlives its owner (e.g. an engine destroyed after the pool) stays safe.
#pragma once

#include <utility>

namespace cbe::sim {

template <typename T>
class RecordPool;
template <typename T>
class Ref;

/// Base of a pooled record: T derives from Pooled<T> and implements
/// `void recycle() noexcept`, which drops whatever the record holds (other
/// Refs, callbacks) when it returns to the pool, keeping its capacity.
template <typename T>
class Pooled {
  friend class RecordPool<T>;
  friend class Ref<T>;

  int refs_ = 0;
  RecordPool<T>* pool_ = nullptr;  ///< null once the pool is gone
  T* next_free_ = nullptr;
  T* next_all_ = nullptr;
};

/// Intrusive owning handle; copying shares the record.
template <typename T>
class Ref {
 public:
  Ref() noexcept = default;
  explicit Ref(T* p) noexcept : p_(p) {
    if (p_ != nullptr) ++p_->refs_;
  }
  Ref(const Ref& o) noexcept : Ref(o.p_) {}
  Ref(Ref&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  Ref& operator=(Ref o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~Ref() { reset(); }

  void reset() noexcept {
    T* p = std::exchange(p_, nullptr);
    if (p != nullptr && --p->refs_ == 0) RecordPool<T>::release(p);
  }

  T* get() const noexcept { return p_; }
  T* operator->() const noexcept { return p_; }
  T& operator*() const noexcept { return *p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }

 private:
  T* p_ = nullptr;
};

template <typename T>
class RecordPool {
 public:
  RecordPool() = default;
  RecordPool(const RecordPool&) = delete;
  RecordPool& operator=(const RecordPool&) = delete;
  ~RecordPool() {
    for (T* r = all_; r != nullptr;) {
      T* next = r->next_all_;
      if (r->refs_ == 0) {
        delete r;
      } else {
        r->pool_ = nullptr;  // detached: frees itself on its last release
      }
      r = next;
    }
  }

  /// A free record (fields as its last user left them), or a new one.
  Ref<T> acquire() {
    T* r = free_;
    if (r != nullptr) {
      free_ = r->next_free_;
    } else {
      r = new T();
      r->pool_ = this;
      r->next_all_ = all_;
      all_ = r;
    }
    return Ref<T>(r);
  }

 private:
  friend class Ref<T>;

  // Out of line: it runs once per record use, and inlined into a caller
  // that holds two Refs to one record, GCC's -Wuse-after-free mistakes the
  // shared record for a freed one.
  [[gnu::noinline]] static void release(T* r) noexcept {
    r->recycle();
    RecordPool* pool = r->pool_;
    if (pool == nullptr) {
      delete r;
      return;
    }
    r->next_free_ = pool->free_;
    pool->free_ = r;
  }

  T* free_ = nullptr;
  T* all_ = nullptr;
};

}  // namespace cbe::sim
