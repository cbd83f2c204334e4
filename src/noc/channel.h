// Fixed-latency point-to-point delay lines. All inter-router (and
// router<->NIC) communication flows through channels, which is what makes the
// per-cycle router update order immaterial: nothing sent in cycle t can be
// observed before t + latency, latency >= 1.
#pragma once

#include <cassert>
#include <cstdint>

#include "noc/packet_table.h"
#include "noc/types.h"
#include "util/ring_buffer.h"

namespace drlnoc::obs {
class FlightRecorder;
}  // namespace drlnoc::obs

namespace drlnoc::noc {

class FaultModel;
class RoutingAlgorithm;

/// FIFO delay line carrying items of type T with a fixed latency in cycles.
///
/// Entries live in a ring buffer sized for the credit-protocol steady state
/// (at most one send per cycle, drained within `latency` cycles), so the
/// per-cycle send/receive path never touches the heap; the ring only grows
/// on bursts such as the bonus credits of a depth reconfiguration.
///
/// A channel names its receiver by node index and, for router-bound
/// channels, by its port's bit in that router's pending masks (0 for
/// NIC-bound channels); FabricView::send re-arms both.
template <typename T>
class Channel {
 public:
  explicit Channel(Cycle latency = 1, NodeId to = kInvalidNode,
                   std::uint32_t pending_bit = 0)
      : latency_(latency), to_(to), pending_bit_(pending_bit),
        entries_(static_cast<std::size_t>(latency) + 1) {
    assert(latency >= 1 && "zero-latency channels would create same-cycle "
                           "visibility between routers");
  }

  Cycle latency() const { return latency_; }
  NodeId to() const { return to_; }
  std::uint32_t pending_bit() const { return pending_bit_; }

  /// Copies `item` straight into its delay-line slot.
  void send(const T& item, Cycle now) {
    auto& slot = entries_.push_back_slot();
    slot.due = now + latency_;
    slot.item = item;
  }

  /// True if an item is deliverable at `now`.
  bool ready(Cycle now) const {
    return !entries_.empty() && entries_.front().due <= now;
  }

  /// Pops the oldest item. The returned reference reads the popped slot in
  /// place (no copy) and stays valid until the next send.
  const T& receive([[maybe_unused]] Cycle now) {
    assert(ready(now));
    const T& item = entries_.front().item;
    entries_.pop_front();
    return item;
  }

  bool empty() const { return entries_.empty(); }
  std::size_t in_flight() const { return entries_.size(); }

  /// Calls `f` on every item in flight, oldest first (audits).
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) f(entries_[i].item);
  }

 private:
  struct Entry {
    Cycle due = 0;
    T item{};
  };
  Cycle latency_;
  NodeId to_;
  std::uint32_t pending_bit_;
  util::RingBuffer<Entry> entries_;
};

using FlitChannel = Channel<Flit>;
using CreditChannel = Channel<Credit>;

/// The fabric as one router or NIC step sees it. Network builds a view for
/// each step (and each reconfiguration); components name their channels by
/// index into `flits`/`credits`, their input-VC FIFOs by offset into `fifo`
/// and their packets by handle into `packets`, and hold no pointer into the
/// fabric.
struct FabricView {
  FlitChannel* flits;
  CreditChannel* credits;
  Flit* fifo;                     ///< every input-VC FIFO (Router::fifo_slot)
  PacketTable* packets;           ///< per-packet fields of flits in flight
  std::uint8_t* node_active;      ///< per node: stepped next cycle
  std::uint32_t* flit_pending;    ///< per node: ports with inbound flits
  std::uint32_t* credit_pending;  ///< per node: ports with inbound credits
  const RoutingAlgorithm* routing;
  const FaultModel* faults;       ///< null on a healthy fabric
  obs::FlightRecorder* recorder;  ///< null while tracing is off

  /// Sends on channel `ch` and re-arms its receiver: the node's activity
  /// flag and its port's pending bit. The receiver clears the bit when it
  /// empties the channel.
  void send(int ch, const Flit& flit, Cycle now) const {
    flits[ch].send(flit, now);
    node_active[flits[ch].to()] = 1;
    flit_pending[flits[ch].to()] |= flits[ch].pending_bit();
  }
  void send(int ch, Credit credit, Cycle now) const {
    credits[ch].send(credit, now);
    node_active[credits[ch].to()] = 1;
    credit_pending[credits[ch].to()] |= credits[ch].pending_bit();
  }
};

}  // namespace drlnoc::noc
