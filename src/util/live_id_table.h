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
//
// Values are integers (trace record indices), and a slot is just the
// value: the largest V marks an empty slot, so an `int` or `uint32_t` table
// costs 4 bytes per id in its window, and that value cannot be stored.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "util/ring_buffer.h"

namespace drlnoc::util {

template <typename V>
class LiveIdTable {
  static_assert(std::is_integral_v<V>, "slots are integers with a sentinel");

 public:
  /// The empty-slot marker; insert() rejects it.
  static constexpr V kEmpty = std::numeric_limits<V>::max();

  /// Marks `id` live with `value`. Returns false (and keeps the existing
  /// value) when `id` is already live. Ids are expected in increasing order;
  /// an id below the window is still accepted, at O(span) cost. Throws
  /// std::invalid_argument when `value` is kEmpty.
  bool insert(std::uint64_t id, V value) {
    if (value == kEmpty) {
      throw std::invalid_argument(
          "LiveIdTable: the largest value marks an empty slot");
    }
    if (live_ == 0) {
      slots_.clear();
      base_ = id;
    } else if (id < base_) {
      prepend_gap(base_ - id);
    }
    const std::uint64_t offset = id - base_;
    while (slots_.size() <= offset) slots_.push_back(kEmpty);
    V& slot = slots_[static_cast<std::size_t>(offset)];
    if (slot != kEmpty) return false;
    slot = value;
    ++live_;
    return true;
  }

  /// Copies the value of live `id` into `out`, erases the id and returns
  /// true; returns false when `id` is not live.
  bool take(std::uint64_t id, V& out) {
    if (id < base_ || id - base_ >= slots_.size()) return false;
    V& slot = slots_[static_cast<std::size_t>(id - base_)];
    if (slot == kEmpty) return false;
    out = slot;
    slot = kEmpty;
    --live_;
    // Front compaction: drop the empty prefix so the window starts at the
    // oldest live id again.
    while (!slots_.empty() && slots_.front() == kEmpty) {
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
  /// Moves the window start down by `gap` slots (an insert below base_).
  void prepend_gap(std::uint64_t gap) {
    RingBuffer<V> grown(static_cast<std::size_t>(gap) + slots_.size());
    for (std::uint64_t i = 0; i < gap; ++i) grown.push_back(kEmpty);
    for (std::size_t i = 0; i < slots_.size(); ++i) grown.push_back(slots_[i]);
    slots_ = std::move(grown);
    base_ -= gap;
  }

  RingBuffer<V> slots_;
  std::uint64_t base_ = 0;  ///< id of slots_[0]
  std::size_t live_ = 0;
};

}  // namespace drlnoc::util
