// Growable power-of-two ring buffer with FIFO semantics.
//
// Replaces std::deque on hot paths: a deque that oscillates around empty —
// exactly how completion queues behave — crosses chunk boundaries every few operations and allocates/frees a
// 512-byte node each time. The ring reuses one flat allocation that only
// grows (geometrically) to the high-water mark.
//
// Every slot always holds a live T, in its T{} state while free, so a
// producer can fill the next slot in place (emplace_back) instead of
// building a T and moving it in.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace pd::sim {

template <typename T>
class FifoRing {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& front() {
    PD_CHECK(size_ > 0, "front() on empty ring");
    return buf_[head_];
  }

  /// Append a slot and return it, in its T{} state, to be filled in
  /// place. The reference is valid until the ring next grows.
  T& emplace_back() {
    if (size_ == buf_.size()) grow();
    T& slot = buf_[(head_ + size_) & (buf_.size() - 1)];
    ++size_;
    return slot;
  }

  void push_back(T v) { emplace_back() = std::move(v); }

  /// Popped slots are reset to T{} so held state is released eagerly.
  void pop_front() {
    PD_CHECK(size_ > 0, "pop_front() on empty ring");
    buf_[head_] = T{};
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pd::sim
