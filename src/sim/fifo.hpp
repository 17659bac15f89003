// FIFO queue on a power-of-two ring that keeps its storage.
//
// std::deque frees a block each time pop_front drains one and allocates a
// new one each time push_back fills one, so a queue that merely cycles (a
// PPE context's waiters, the runtime's off-load wait queue) touches the heap
// every few hundred operations forever.  Fifo grows by doubling and never
// shrinks: after its high-water mark it never allocates again.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace cbe::sim {

template <typename T>
class Fifo {
 public:
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  T& front() noexcept { return buf_[head_]; }
  const T& front() const noexcept { return buf_[head_]; }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
    ++size_;
  }
  /// Removes the front element (move it out of front() first to keep it).
  void pop_front() noexcept {
    buf_[head_] = T();
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.empty() ? 8 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;  ///< capacity is always a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace cbe::sim
