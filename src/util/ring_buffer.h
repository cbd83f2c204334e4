// Flat FIFO ring buffer: the allocation-free replacement for std::deque in
// the simulator's hot paths (channel delay lines, NIC source queues,
// live-id tables, the DQN n-step window).
//
// Capacity is a power of two and grows by doubling only when a push finds
// the ring full, so a buffer whose occupancy is bounded (credit-protocol
// FIFOs, fixed-latency channels) performs zero heap allocations in steady
// state. Popped slots keep their element constructed; a later push
// copy-assigns into the slot, which lets element types that own heap memory
// (e.g. rl::Transition's state vectors) reuse their capacity.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace drlnoc::util {

template <typename T>
class RingBuffer {
 public:
  /// `capacity_hint` pre-sizes the ring (rounded up to a power of two) so
  /// bounded-occupancy buffers never grow after construction.
  explicit RingBuffer(std::size_t capacity_hint = 0) {
    if (capacity_hint > 0) reserve(capacity_hint);
  }

  void reserve(std::size_t n) {
    if (n > slots_.size()) grow_to(std::bit_ceil(n));
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return slots_.size(); }

  T& front() {
    assert(count_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    assert(count_ > 0);
    return slots_[head_];
  }
  T& back() {
    assert(count_ > 0);
    return slots_[(head_ + count_ - 1) & mask_];
  }
  const T& back() const {
    assert(count_ > 0);
    return slots_[(head_ + count_ - 1) & mask_];
  }

  /// i-th element from the front (0 == front()).
  T& operator[](std::size_t i) {
    assert(i < count_);
    return slots_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    assert(i < count_);
    return slots_[(head_ + i) & mask_];
  }

  void push_back(const T& value) { push_back_slot() = value; }
  void push_back(T&& value) { push_back_slot() = std::move(value); }

  /// Appends a slot and returns it for in-place filling (single-copy
  /// receive paths). The slot holds a stale element the caller must
  /// overwrite.
  T& push_back_slot() {
    if (count_ == slots_.size()) {
      grow_to(slots_.empty() ? 8 : 2 * slots_.size());
    }
    T& slot = slots_[(head_ + count_) & mask_];
    ++count_;
    return slot;
  }

  void pop_front() {
    assert(count_ > 0);
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  /// Drops all elements; capacity (and slot-owned heap memory) is retained.
  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow_to(std::size_t cap) {
    assert(std::has_single_bit(cap) && cap > slots_.size());
    std::vector<T> bigger(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> slots_;
  std::size_t mask_ = 0;  ///< capacity - 1 (capacity is a power of two)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace drlnoc::util
