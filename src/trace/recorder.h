// TraceRecorder: captures a live simulation — synthetic, phased, or
// DRL-controlled — into a Trace for later bit-exact replay. It is a
// TrafficInjector that wraps the run's real injector (the source): every
// call is forwarded to the source, and every delivered-packet record the
// network reports through on_packet_delivered is kept. A null source
// generates nothing, so the same recorder keeps observing while the fabric
// drains; the run must be drained for the capture to be complete.
//
// The network keeps no record log of its own: driving the run through a
// recorder is the way to see every delivered packet, in ejection order.
//
// Replaying a capture with TraceWorkload on an identically-parameterised
// Network reproduces the identical delivered-packet stream, bit for bit:
// the capture preserves (source, destination, injection tick, length) and
// network packet ids are reassigned in the same (tick, node) order.
#pragma once

#include <vector>

#include "noc/network.h"
#include "trace/trace.h"

namespace drlnoc::trace {

class TraceRecorder : public noc::TrafficInjector {
 public:
  /// `nodes` must match the network being captured; `source` (may be null)
  /// is the injector the recorder forwards to; `default_length` seeds the
  /// trace header (captured records always carry explicit lengths).
  explicit TraceRecorder(int nodes, noc::TrafficInjector* source = nullptr,
                         int default_length = 4);

  /// Swaps the forwarded injector mid-run; null turns the recorder into a
  /// drain-only driver that still captures deliveries.
  void set_source(noc::TrafficInjector* source) { source_ = source; }

  noc::NodeId generate(noc::NodeId src, double core_time,
                       util::Rng& rng) override;
  int packet_length_for(noc::NodeId src, double core_time) const override;
  int tenant_for(noc::NodeId src, double core_time) const override;
  void on_packet_injected(noc::NodeId src, std::uint64_t packet_id,
                          double core_time) override;
  void on_packet_delivered(const noc::PacketRecord& rec) override;
  void on_packet_lost(const noc::PacketRecord& rec) override;
  std::string name() const override;

  /// Every delivered-packet record seen so far, in ejection order.
  const std::vector<noc::PacketRecord>& records() const { return records_; }

  /// Builds the trace: records sorted into injection order (network packet
  /// ids are assigned at injection, so sorting by id restores it), ids
  /// preserved, times absolute, no dependencies.
  Trace build() const;

 private:
  int nodes_;
  noc::TrafficInjector* source_;
  int default_length_;
  std::vector<noc::PacketRecord> records_;
};

}  // namespace drlnoc::trace
