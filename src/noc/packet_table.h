// PacketTable: the fields the flits of one packet share, stored once per
// live packet and named by the 32-bit handle every flit carries.
//
// The source NIC allocates a slot when a packet's transmission starts; the
// destination NIC builds the PacketRecord from the slot and releases it when
// the tail ejects. Released slots are reused through a LIFO free list, so
// which slot a packet gets depends only on the fabric's event order, and the
// table copies with the Network that owns it. Handles never feed a
// simulation decision: they only say where the fields are kept.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace drlnoc::noc {

/// One packet's shared fields: 24 bytes.
struct PacketInfo {
  std::uint64_t packet_id = 0;
  double inject_time = 0.0;      ///< core-clock time at generation
  std::uint16_t packet_len = 1;  ///< total flits in the packet
  std::uint16_t tenant = 0;      ///< originating tenant (multi-tenant runs)
  bool measured = false;         ///< true if within the measurement window
  bool live = false;             ///< set by PacketTable while the slot is held
};

class PacketTable {
 public:
  using Handle = std::uint32_t;

  /// Pre-sizes for `expected` simultaneously live packets; more grow the
  /// table by doubling.
  explicit PacketTable(std::size_t expected = 0) {
    slots_.reserve(expected);
    free_.reserve(expected);
  }

  /// Stores `info` in the most recently released slot (or a new one).
  Handle allocate(const PacketInfo& info) {
    Handle h;
    if (!free_.empty()) {
      h = free_.back();
      free_.pop_back();
    } else {
      h = static_cast<Handle>(slots_.size());
      slots_.emplace_back();
    }
    PacketInfo& slot = slots_[h];
    slot = info;
    slot.live = true;
    ++live_;
    return h;
  }

  void release(Handle h) {
    assert(live(h) && "packet table release of a free slot");
    slots_[h].live = false;
    free_.push_back(h);
    --live_;
  }

  const PacketInfo& operator[](Handle h) const {
    assert(live(h) && "packet table lookup of a free slot");
    return slots_[h];
  }

  bool live(Handle h) const { return h < slots_.size() && slots_[h].live; }
  /// Slots currently held.
  std::size_t live_count() const { return live_; }
  /// Slots ever created (live or free): the high-water mark of live_count().
  std::size_t size() const { return slots_.size(); }

 private:
  std::vector<PacketInfo> slots_;
  std::vector<Handle> free_;  ///< released slots, most recent last
  std::size_t live_ = 0;
};

}  // namespace drlnoc::noc
