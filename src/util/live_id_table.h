// LiveIdTable: the map from live packet ids to per-packet data that
// injectors keep between on_packet_injected() and on_packet_delivered().
//
// The network hands out packet ids in increasing order, so the live ids of
// one injector form a narrow window. The table stores that window densely:
// slot i of a RingBuffer holds id `base + i`, ids the owner never inserted
// (other injectors' packets, gaps) are empty slots, and erasing the front
// id pops every empty slot in front of the next live one. Lookup and erase
// are O(1) with no hashing and no per-entry heap node, and memory is
// bounded by the id span from the oldest live id to the newest inserted
// one, not by how many ids have passed.
//
// take() of an id that is not live returns false and changes nothing, which
// is the "not ours" answer for deliveries of packets injected by someone
// else (ids below the window, or never inserted).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/ring_buffer.h"

namespace drlnoc::util {

template <typename V>
class LiveIdTable {
 public:
  /// Marks `id` live with `value`. Returns false (and keeps the existing
  /// value) when `id` is already live. Ids are expected in increasing order;
  /// an id below the window is still accepted, at O(span) cost.
  bool insert(std::uint64_t id, V value) {
    if (live_ == 0) {
      slots_.clear();
      base_ = id;
    } else if (id < base_) {
      prepend_gap(base_ - id);
    }
    const std::uint64_t offset = id - base_;
    while (slots_.size() <= offset) slots_.push_back_slot() = Slot{};
    Slot& slot = slots_[static_cast<std::size_t>(offset)];
    if (slot.live) return false;
    slot = Slot{std::move(value), true};
    ++live_;
    return true;
  }

  /// Moves the value of live `id` into `out`, erases the id and returns
  /// true; returns false when `id` is not live.
  bool take(std::uint64_t id, V& out) {
    if (id < base_ || id - base_ >= slots_.size()) return false;
    Slot& slot = slots_[static_cast<std::size_t>(id - base_)];
    if (!slot.live) return false;
    out = std::move(slot.value);
    slot.live = false;
    --live_;
    // Front compaction: drop the empty prefix so the window starts at the
    // oldest live id again.
    while (!slots_.empty() && !slots_.front().live) {
      slots_.pop_front();
      ++base_;
    }
    return true;
  }

  /// Live ids.
  std::size_t size() const { return live_; }
  /// Slots currently held: newest inserted id - oldest live id + 1 (0 when
  /// nothing is live).
  std::size_t span() const { return slots_.size(); }
  /// Allocated slots; the ring only grows, so this is the high-water mark
  /// of span() rounded up to a power of two.
  std::size_t capacity() const { return slots_.capacity(); }

  void clear() {
    slots_.clear();
    live_ = 0;
  }

 private:
  struct Slot {
    V value{};
    bool live = false;
  };

  /// Moves the window start down by `gap` slots (an insert below base_).
  void prepend_gap(std::uint64_t gap) {
    RingBuffer<Slot> grown(static_cast<std::size_t>(gap) + slots_.size());
    for (std::uint64_t i = 0; i < gap; ++i) grown.push_back_slot() = Slot{};
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      grown.push_back(std::move(slots_[i]));
    }
    slots_ = std::move(grown);
    base_ -= gap;
  }

  RingBuffer<Slot> slots_;
  std::uint64_t base_ = 0;  ///< id of slots_[0]
  std::size_t live_ = 0;
};

}  // namespace drlnoc::util
