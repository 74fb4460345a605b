// Bounded FIFO queue backed by a ring buffer.
//
// Models hardware queues (pending write-back buffers, set-sequencer queues)
// whose capacity is a physical resource: exceeding it is a model invariant
// violation, checked by PSLLC_ASSERT rather than silently growing.
#ifndef PSLLC_COMMON_FIXED_QUEUE_H_
#define PSLLC_COMMON_FIXED_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace psllc {

template <typename T>
class FixedQueue {
 public:
  explicit FixedQueue(int capacity)
      : slots_(static_cast<std::size_t>(capacity)) {
    PSLLC_ASSERT(capacity > 0, "queue capacity must be positive");
  }

  [[nodiscard]] int capacity() const {
    return static_cast<int>(slots_.size());
  }
  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == capacity(); }

  /// Enqueues at the tail. Precondition: !full().
  void push(T value) {
    PSLLC_ASSERT(!full(), "push to full queue (capacity " << capacity() << ")");
    slots_[tail_] = std::move(value);
    tail_ = next(tail_);
    ++size_;
  }

  /// Dequeues from the head. Precondition: !empty().
  T pop() {
    PSLLC_ASSERT(!empty(), "pop from empty queue");
    T value = std::move(slots_[head_]);
    head_ = next(head_);
    --size_;
    return value;
  }

  /// Head element without removing it. Precondition: !empty().
  [[nodiscard]] const T& front() const {
    PSLLC_ASSERT(!empty(), "front of empty queue");
    return slots_[head_];
  }

  [[nodiscard]] T& front() {
    PSLLC_ASSERT(!empty(), "front of empty queue");
    return slots_[head_];
  }

  /// Element at FIFO position i (0 == head). Precondition: i < size().
  [[nodiscard]] const T& at(int i) const {
    PSLLC_ASSERT(i >= 0 && i < size_, "queue index " << i << " size " << size_);
    return slots_[wrap(head_ + static_cast<std::size_t>(i))];
  }

  /// Mutable element at FIFO position i. Precondition: i < size().
  [[nodiscard]] T& at_mut(int i) {
    PSLLC_ASSERT(i >= 0 && i < size_, "queue index " << i << " size " << size_);
    return slots_[wrap(head_ + static_cast<std::size_t>(i))];
  }

  /// Removes the element at FIFO position i, preserving order of the rest.
  /// Models a CAM-style invalidate+compact; O(size).
  void erase_at(int i) {
    PSLLC_ASSERT(i >= 0 && i < size_, "queue index " << i << " size " << size_);
    for (int j = i; j + 1 < size_; ++j) {
      slots_[wrap(head_ + static_cast<std::size_t>(j))] =
          std::move(slots_[wrap(head_ + static_cast<std::size_t>(j) + 1)]);
    }
    tail_ = wrap(head_ + static_cast<std::size_t>(size_) - 1);
    --size_;
  }

  void clear() {
    head_ = tail_ = 0;
    size_ = 0;
  }

  /// First FIFO position whose element satisfies `pred`, or -1.
  template <typename Pred>
  [[nodiscard]] int find_if(Pred pred) const {
    for (int i = 0; i < size_; ++i) {
      if (pred(at(i))) {
        return i;
      }
    }
    return -1;
  }

 private:
  /// Ring index of `i` < 2 * capacity: every caller adds at most one
  /// in-range offset to an in-range index, so one compare replaces a modulo.
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    return i >= slots_.size() ? i - slots_.size() : i;
  }
  [[nodiscard]] std::size_t next(std::size_t i) const { return wrap(i + 1); }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  int size_ = 0;
};

}  // namespace psllc

#endif  // PSLLC_COMMON_FIXED_QUEUE_H_
