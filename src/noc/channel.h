// Fixed-latency point-to-point delay lines. All inter-router (and
// router<->NIC) communication flows through channels, which is what makes the
// per-cycle router update order immaterial: nothing sent in cycle t can be
// observed before t + latency, latency >= 1.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "noc/types.h"
#include "util/ring_buffer.h"

namespace drlnoc::noc {

/// FIFO delay line carrying items of type T with a fixed latency in cycles.
///
/// Entries live in a ring buffer sized for the credit-protocol steady state
/// (at most one send per cycle, drained within `latency` cycles), so the
/// per-cycle send/receive path never touches the heap; the ring only grows
/// on bursts such as the bonus credits of a depth reconfiguration.
template <typename T>
class Channel {
 public:
  explicit Channel(Cycle latency = 1)
      : latency_(latency), entries_(static_cast<std::size_t>(latency) + 1) {
    assert(latency >= 1 && "zero-latency channels would create same-cycle "
                           "visibility between routers");
  }

  Cycle latency() const { return latency_; }

  /// Event-driven wake hook (see Network): registers the *receiving* node's
  /// activity flag and in-flight counter. Every send bumps the counter and
  /// re-arms the flag, every receive drops the counter, so a zero counter
  /// proves nothing is in flight toward that node — one leg of the
  /// network-level quiescence test. Unregistered channels behave as before.
  void set_sink(std::uint8_t* active, std::uint32_t* inflight) {
    sink_active_ = active;
    sink_inflight_ = inflight;
  }

  /// Inbound-pending hook (see Router::connect): registers the receiving
  /// router's pending mask and this channel's bit in it. The bit is set
  /// whenever the channel holds an item and cleared when it drains, so the
  /// router's receive phase visits only non-empty channels.
  void set_pending_bit(std::uint32_t* mask, std::uint32_t bit) {
    pending_mask_ = mask;
    pending_bit_ = bit;
    if (!entries_.empty()) *mask |= bit;
  }

  void send(T item, Cycle now) {
    entries_.push_back(Entry{now + latency_, std::move(item)});
    notify_sink();
  }

  /// True if an item is deliverable at `now`.
  bool ready(Cycle now) const {
    return !entries_.empty() && entries_.front().due <= now;
  }

  T receive([[maybe_unused]] Cycle now) {
    assert(ready(now));
    T item = std::move(entries_.front().item);
    pop_front();
    return item;
  }

  /// Single-copy variants of send/receive for the per-flit hot path.
  const T& peek([[maybe_unused]] Cycle now) const {
    assert(ready(now));
    return entries_.front().item;
  }
  void receive_into(T& dst, [[maybe_unused]] Cycle now) {
    assert(ready(now));
    dst = std::move(entries_.front().item);
    pop_front();
  }
  void send_from(const T& item, Cycle now) {
    auto& slot = entries_.push_back_slot();
    slot.due = now + latency_;
    slot.item = item;
    notify_sink();
  }

  bool empty() const { return entries_.empty(); }
  std::size_t in_flight() const { return entries_.size(); }

 private:
  void notify_sink() {
    if (sink_inflight_ != nullptr) {
      ++*sink_inflight_;
      *sink_active_ = 1;
    }
    if (pending_mask_ != nullptr) *pending_mask_ |= pending_bit_;
  }
  void pop_front() {
    entries_.pop_front();
    if (sink_inflight_ != nullptr) --*sink_inflight_;
    if (pending_mask_ != nullptr && entries_.empty()) {
      *pending_mask_ &= ~pending_bit_;
    }
  }

  struct Entry {
    Cycle due = 0;
    T item{};
  };
  Cycle latency_;
  util::RingBuffer<Entry> entries_;
  std::uint8_t* sink_active_ = nullptr;
  std::uint32_t* sink_inflight_ = nullptr;
  std::uint32_t* pending_mask_ = nullptr;
  std::uint32_t pending_bit_ = 0;
};

using FlitChannel = Channel<Flit>;
using CreditChannel = Channel<Credit>;

}  // namespace drlnoc::noc
