// Internal to src/trace: the id -> position index and the one validation
// pass that Trace::validate, build_dependents and the two readers share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/trace.h"

namespace drlnoc::trace::detail {

/// Dependency entries a trace may hold: the binary format's slice offsets
/// are 32 bits.
inline constexpr std::uint64_t kMaxEdges = UINT32_MAX;

/// Id -> position of the first record carrying that id. Ids spanning at
/// most four slots per record (the generators' and the recorder's 1..n
/// among them) index a flat table by offset from the smallest id; any other
/// spread goes through an open-addressed hash table whose empty slots hold
/// the reserved id 0.
class IdIndex {
 public:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  explicit IdIndex(const std::vector<TraceRecord>& records);

  std::uint32_t find(std::uint64_t id) const {
    if (!dense_.empty()) {
      const std::uint64_t offset = id - base_;
      return offset < dense_.size() ? dense_[offset] : kAbsent;
    }
    for (std::size_t s = home(id);; s = (s + 1) & mask_) {
      if (slots_[s].id == 0) return kAbsent;
      if (slots_[s].id == id) return slots_[s].pos;
    }
  }

 private:
  struct Slot {
    std::uint64_t id = 0;
    std::uint32_t pos = 0;
  };

  std::size_t home(std::uint64_t id) const {
    // splitmix64 finalizer: strided ids (e.g. multiples of 2^40) still
    // spread over every slot.
    id = (id ^ (id >> 30)) * 0xbf58476d1ce4e5b9ULL;
    id = (id ^ (id >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(id ^ (id >> 31)) & mask_;
  }

  std::uint64_t base_ = 0;
  std::vector<std::uint32_t> dense_;  ///< position by id - base_
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

/// What a reader decoded that a Trace cannot hold, so that validation
/// reports it where the rule order puts it: the first record whose length
/// did not fit 16 bits, and the first dependency entry (in record order)
/// whose id names no record, stored as IdIndex::kAbsent.
struct Undecoded {
  std::size_t long_record = SIZE_MAX;
  std::size_t unknown_entry = SIZE_MAX;  ///< index into Trace::deps
  std::uint64_t unknown_id = 0;
};

/// Throws std::invalid_argument for the first rule `t` breaks, in the
/// order Trace::validate documents. `index` is IdIndex(t.records).
void check(const Trace& t, const IdIndex& index, const Undecoded& undecoded);

}  // namespace drlnoc::trace::detail
