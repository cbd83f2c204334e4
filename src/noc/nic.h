// Network interface controller: packetizes traffic into flits, injects them
// into the router's local port under credit flow control, reassembles
// ejected packets, and records per-packet latency.
#pragma once

#include <cstdint>
#include <vector>

#include "noc/channel.h"
#include "noc/packet_table.h"
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

/// Channel indices of a NIC's two links (all four required), into
/// FabricView::flits and FabricView::credits: injection (NIC -> router local
/// input, credits back) and ejection (router local output -> NIC, credits
/// back).
struct NicChannels {
  int inject_flits = -1;
  int inject_credits = -1;
  int eject_flits = -1;
  int eject_credits = -1;
};

class Nic {
 public:
  Nic(NodeId id, NicParams params, NicChannels channels);

  /// Sets initial per-VC injection credits to the capacity advertised by the
  /// router's local input unit (its initial active depth).
  void init_credits(int per_vc);

  /// Queues a new packet for injection; timestamps are core-clock time.
  /// Latency therefore includes source-queue waiting time. `length` in
  /// flits; 0 uses the configured default flits_per_packet. `tenant` tags
  /// the packet for per-tenant attribution in multi-tenant scenarios.
  /// The queue keeps each field packed (see PendingPacket), so values it
  /// cannot hold throw std::out_of_range in every build: `packet_id` above
  /// kMaxPacketId, `core_time` that is not a whole core tick in
  /// [0, kMaxInjectTick], `dst` or `tenant` outside [0, 65535], or a
  /// `length` above 65535.
  void offer_packet(NodeId dst, double core_time, bool measured,
                    std::uint64_t packet_id, int length = 0, int tenant = 0);

  /// Largest packet id and inject tick a queued packet can hold.
  static constexpr std::uint64_t kMaxPacketId = (std::uint64_t{1} << 47) - 1;
  static constexpr std::uint64_t kMaxInjectTick = 0xffffffffu;

  /// One router-clock cycle over the fabric `view`: drain the ejection
  /// link, then inject up to one flit.
  void step(Cycle cycle, double core_time, const FabricView& view);

  /// Tracks the network's active-VC configuration so injection only starts
  /// packets on VCs the routers will service.
  void set_active_vcs(int vcs) { params_.active_vcs = vcs; }

  // --- observability --------------------------------------------------------
  /// Packets completed this cycle; Network::step harvests and clears them.
  std::vector<PacketRecord>& records() { return records_; }
  std::size_t source_queue_len() const { return source_queue_.size(); }
  /// Slots the source queue holds: its heap is this many PendingPackets.
  std::size_t source_queue_capacity() const {
    return source_queue_.capacity();
  }
  std::uint64_t injected_flits() const { return injected_flits_; }
  std::uint64_t ejected_flits() const { return ejected_flits_; }
  std::uint64_t received_packets() const { return received_packets_; }
  /// Packets whose transmission has started (head about to be injected);
  /// each holds a PacketTable slot until its tail ejects.
  std::uint64_t started_packets() const { return started_packets_; }
  /// Calls `f` on the PacketTable handle of every transmission still
  /// sending flits (audits).
  template <typename F>
  void for_each_transmitting(F&& f) const {
    for (const TxState& tx : tx_)
      if (tx.active) f(tx.packet);
  }
  /// True when nothing is pending at this NIC (source queue, partial
  /// transmissions, reassembly).
  bool idle() const;
  NodeId id() const { return id_; }
  const NicChannels& channels() const { return channels_; }

 private:
  /// A queued packet: 16 bytes, the bulk of a backlogged fabric's memory.
  /// `key` packs the packet id (bits 17-63), the tenant (bits 1-16) and the
  /// measured flag (bit 0); traffic is injected on whole core ticks, so the
  /// inject time is kept as its tick.
  struct PendingPacket {
    std::uint64_t key;
    std::uint32_t inject_tick;
    std::uint16_t dst;
    std::uint16_t length;

    std::uint64_t packet_id() const { return key >> 17; }
    std::uint16_t tenant() const {
      return static_cast<std::uint16_t>(key >> 1);
    }
    bool measured() const { return (key & 1u) != 0; }
  };
  static_assert(sizeof(PendingPacket) == 16);

  /// In-progress transmission on one injection VC; the packet's shared
  /// fields sit in the fabric's PacketTable under `packet`.
  struct TxState {
    bool active = false;
    std::uint16_t dst = 0;
    std::uint16_t next_seq = 0;
    std::uint16_t length = 1;
    PacketTable::Handle packet = 0;
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
  NicChannels channels_;

  util::RingBuffer<PendingPacket> source_queue_;
  std::vector<int> credits_;   ///< per injection VC
  std::vector<TxState> tx_;    ///< per injection VC
  std::vector<RxState> rx_;    ///< per ejection VC
  int rr_vc_ = 0;              ///< round-robin over active transmissions

  std::vector<PacketRecord> records_;
  std::uint64_t injected_flits_ = 0;
  std::uint64_t ejected_flits_ = 0;
  std::uint64_t received_packets_ = 0;
  std::uint64_t started_packets_ = 0;
};

}  // namespace drlnoc::noc
