// Network interface controller: packetizes traffic into flits, injects them
// into the router's local port under credit flow control, reassembles
// ejected packets, and records per-packet latency.
#pragma once

#include <cstdint>
#include <vector>

#include "noc/channel.h"
#include "noc/types.h"
#include "util/ring_buffer.h"

namespace drlnoc::noc {

/// A completed (ejected) packet, as recorded at the destination NIC.
struct PacketRecord {
  std::uint64_t packet_id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint16_t length = 1;       ///< flits
  double inject_time = 0.0;       ///< core-clock cycles at generation
  double eject_time = 0.0;        ///< core-clock cycles when the tail arrived
  std::uint32_t hops = 0;         ///< router traversals of the tail flit
  bool measured = false;
  std::uint16_t tenant = 0;       ///< originating tenant (0 outside
                                  ///< multi-tenant scenarios)
  /// True when any flit of the packet crossed a faulted link; the packet
  /// does not count as received (the fault model retries or drops it).
  bool corrupted = false;
};

struct NicParams {
  int max_vcs = 4;
  int max_depth = 8;
  int vc_classes = 1;
  int active_vcs = 4;      ///< mirrors the network configuration
  int flits_per_packet = 4;
};

class Nic {
 public:
  Nic(NodeId id, NicParams params);

  /// Wires the injection link (NIC -> router local input) and the ejection
  /// link (router local output -> NIC).
  void connect(FlitChannel* inject_flits, CreditChannel* inject_credits,
               FlitChannel* eject_flits, CreditChannel* eject_credits);

  /// Sets initial per-VC injection credits to the capacity advertised by the
  /// router's local input unit (its initial active depth).
  void init_credits(int per_vc);

  /// Queues a new packet for injection; timestamps are core-clock time.
  /// Latency therefore includes source-queue waiting time. `length` in
  /// flits; 0 uses the configured default flits_per_packet. `tenant` tags
  /// the packet for per-tenant attribution in multi-tenant scenarios.
  void offer_packet(NodeId dst, double core_time, bool measured,
                    std::uint64_t packet_id, int length = 0, int tenant = 0);

  /// One router-clock cycle: drain ejection link, then inject up to one flit.
  void step(Cycle cycle, double core_time);

  /// Tracks the network's active-VC configuration so injection only starts
  /// packets on VCs the routers will service.
  void set_active_vcs(int vcs) { params_.active_vcs = vcs; }

  // --- observability --------------------------------------------------------
  /// Packets completed this cycle; Network::step harvests and clears them.
  std::vector<PacketRecord>& records() { return records_; }
  std::size_t source_queue_len() const { return source_queue_.size(); }
  std::uint64_t injected_flits() const { return injected_flits_; }
  std::uint64_t ejected_flits() const { return ejected_flits_; }
  std::uint64_t received_packets() const { return received_packets_; }
  /// True when nothing is pending at this NIC (source queue, partial
  /// transmissions, reassembly).
  bool idle() const;
  /// True when nothing is queued on the two NIC-bound channels (ejected
  /// flits, injection credits) — a leg of the network's quiescence test.
  bool inbound_empty() const {
    return eject_flits_->empty() && inject_credits_->empty();
  }
  NodeId id() const { return id_; }

 private:
  struct PendingPacket {
    std::uint64_t packet_id;
    NodeId dst;
    double inject_time;
    bool measured;
    std::uint16_t length;
    std::uint16_t tenant;
  };

  /// In-progress transmission on one injection VC.
  struct TxState {
    bool active = false;
    PendingPacket packet{};
    std::uint16_t next_seq = 0;
    std::uint16_t length = 1;
  };

  /// Reassembly progress for the packet currently arriving on one
  /// ejection VC.
  struct RxState {
    bool active = false;
    bool corrupted = false;  ///< any flit so far carried a fault mark
    std::uint16_t expected_seq = 0;
  };

  int pick_injection_vc() const;

  NodeId id_;
  NicParams params_;
  FlitChannel* inject_flits_ = nullptr;
  CreditChannel* inject_credits_ = nullptr;
  FlitChannel* eject_flits_ = nullptr;
  CreditChannel* eject_credits_ = nullptr;

  util::RingBuffer<PendingPacket> source_queue_;
  std::vector<int> credits_;   ///< per injection VC
  std::vector<TxState> tx_;    ///< per injection VC
  std::vector<RxState> rx_;    ///< per ejection VC
  int rr_vc_ = 0;              ///< round-robin over active transmissions

  std::vector<PacketRecord> records_;
  std::uint64_t injected_flits_ = 0;
  std::uint64_t ejected_flits_ = 0;
  std::uint64_t received_packets_ = 0;
};

}  // namespace drlnoc::noc
