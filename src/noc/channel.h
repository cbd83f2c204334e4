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
  /// activity flag, which every send re-arms. Whether anything is still in
  /// flight toward that node is read off the channel itself (the router's
  /// pending masks, Nic::inbound_empty). Unregistered channels wake nobody.
  void set_wake(std::uint8_t* active) { wake_ = active; }
  /// The registered activity flag, or null (Network::audit_quiescence).
  const std::uint8_t* wake_flag() const { return wake_; }

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
    notify_receiver();
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
    notify_receiver();
  }

  bool empty() const { return entries_.empty(); }
  std::size_t in_flight() const { return entries_.size(); }

 private:
  void notify_receiver() {
    if (wake_ != nullptr) *wake_ = 1;
    if (pending_mask_ != nullptr) *pending_mask_ |= pending_bit_;
  }
  void pop_front() {
    entries_.pop_front();
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
  std::uint8_t* wake_ = nullptr;
  std::uint32_t* pending_mask_ = nullptr;
  std::uint32_t pending_bit_ = 0;
};

using FlitChannel = Channel<Flit>;
using CreditChannel = Channel<Credit>;

}  // namespace drlnoc::noc
