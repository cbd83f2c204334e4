// Fundamental value types of the flit-level NoC simulator: flits, credits,
// and packet descriptors. Everything here is a plain value type; identity and
// ownership live in the router/NIC classes.
#pragma once

#include <cstdint>

namespace drlnoc::noc {

using NodeId = int;       ///< router / tile index
using PortId = int;       ///< router port index (0 is always the local port)
using VcId = int;         ///< virtual-channel index within a port
using Cycle = std::uint64_t;

inline constexpr PortId kLocalPort = 0;
inline constexpr NodeId kInvalidNode = -1;
inline constexpr VcId kInvalidVc = -1;

enum class FlitType : std::uint8_t {
  kHead,      ///< first flit of a multi-flit packet; carries routing info
  kBody,
  kTail,      ///< last flit; releases the virtual channel
  kHeadTail,  ///< single-flit packet
};

inline bool is_head(FlitType t) {
  return t == FlitType::kHead || t == FlitType::kHeadTail;
}
inline bool is_tail(FlitType t) {
  return t == FlitType::kTail || t == FlitType::kHeadTail;
}

/// One flow-control unit, 16 bytes. Copied by value through channels and
/// the input-VC FIFO arena. Fields every hop reads or writes live here; the
/// fields the flits of one packet share (id, length, inject time, tenant,
/// measured) live once per packet in the fabric's PacketTable, named by
/// `packet`. Node ids and hop counts fit 16 bits because
/// NetworkParams::validate caps a fabric at 65535 nodes.
struct Flit {
  std::uint32_t packet = 0;     ///< PacketTable handle
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
  std::uint16_t seq = 0;        ///< position within the packet
  std::uint16_t hops = 0;       ///< router traversals so far
  FlitType type = FlitType::kHeadTail;
  std::uint8_t vc = 0;          ///< VC on the link it currently occupies
  std::uint8_t vc_class = 0;    ///< dateline class (ring/torus deadlock)
  /// Set when the flit crossed a faulted link (see noc/faults.h). Corrupted
  /// flits keep flowing — credits and quiescence counters stay exact — and
  /// the packet is discarded end-to-end at the destination NIC.
  bool corrupted = false;
};
static_assert(sizeof(Flit) == 16, "a flit is four words");

/// Credit returned upstream when a buffer slot frees.
struct Credit {
  VcId vc = 0;
};

}  // namespace drlnoc::noc
