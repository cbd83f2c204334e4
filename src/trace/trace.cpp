#include "trace/trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace drlnoc::trace {

namespace {

/// Id -> position index, filled in declaration order so a lookup sees
/// exactly the records declared so far. Ids spanning at most four slots per
/// record (the generators' and the recorder's 1..n among them) index a flat
/// table by offset from the smallest id; any other spread goes through an
/// open-addressed hash table whose empty slots hold the reserved id 0.
class IdIndex {
 public:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  explicit IdIndex(const std::vector<TraceRecord>& records) {
    std::uint64_t lo = UINT64_MAX;
    std::uint64_t hi = 0;
    for (const TraceRecord& r : records) {
      lo = std::min(lo, r.id);
      hi = std::max(hi, r.id);
    }
    if (!records.empty() && hi - lo < 4 * records.size()) {
      base_ = lo;
      dense_.assign(static_cast<std::size_t>(hi - lo) + 1, kAbsent);
      return;
    }
    std::size_t capacity = 16;
    while (capacity < 2 * records.size()) capacity <<= 1;  // load <= 1/2
    slots_.resize(capacity);
    mask_ = capacity - 1;
  }

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

  /// False (and no change) when `id` is already present. `id` is nonzero
  /// and one of the records the index was built for.
  bool insert(std::uint64_t id, std::uint32_t pos) {
    if (!dense_.empty()) {
      std::uint32_t& slot = dense_[id - base_];
      if (slot != kAbsent) return false;
      slot = pos;
      return true;
    }
    for (std::size_t s = home(id);; s = (s + 1) & mask_) {
      if (slots_[s].id == id) return false;
      if (slots_[s].id == 0) {
        slots_[s] = Slot{id, pos};
        return true;
      }
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

[[noreturn]] void reject(const TraceRecord& r, const std::string& what) {
  throw std::invalid_argument("trace record " + std::to_string(r.id) + ": " +
                              what);
}

/// The one validation pass. Returns the id index it filled, which then
/// holds every record.
IdIndex check(const Trace& t) {
  if (t.nodes < 2) {
    throw std::invalid_argument("trace: needs >= 2 nodes, got " +
                                std::to_string(t.nodes));
  }
  if (t.default_length < 1 || t.default_length > 0xffff) {
    throw std::invalid_argument("trace: default_length out of range");
  }
  const std::size_t n = t.records.size();
  IdIndex index(t.records);
  // stamp[p] == i + 1 once record i has named record p: duplicate
  // dependencies are caught without a per-record set.
  std::vector<std::uint32_t> stamp(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& r = t.records[i];
    if (r.id == 0) throw std::invalid_argument("trace: record id 0 reserved");
    if (r.src < 0 || r.src >= t.nodes || r.dst < 0 || r.dst >= t.nodes) {
      reject(r, "endpoint outside [0, nodes)");
    }
    if (r.src == r.dst) reject(r, "self-send (src == dst)");
    if (!std::isfinite(r.time) || r.time < 0.0) {
      reject(r, "time must be finite and >= 0");
    }
    if (r.length < 0 || r.length > 0xffff) {
      reject(r, "length outside [0, 65535] flits");
    }
    const auto mark = static_cast<std::uint32_t>(i + 1);
    for (std::uint64_t dep : r.deps) {
      if (dep == r.id) reject(r, "depends on itself");
      // The index holds only earlier records, so "declared earlier" makes
      // the graph acyclic by construction.
      const std::uint32_t pos = index.find(dep);
      if (pos == IdIndex::kAbsent) {
        reject(r, "dependency " + std::to_string(dep) +
                      " not declared earlier in the trace");
      }
      if (stamp[pos] == mark) {
        reject(r, "duplicate dependency " + std::to_string(dep));
      }
      stamp[pos] = mark;
    }
    if (!index.insert(r.id, static_cast<std::uint32_t>(i))) {
      throw std::invalid_argument("trace: duplicate record id " +
                                  std::to_string(r.id));
    }
  }
  return index;
}

}  // namespace

void Trace::validate() const { check(*this); }

Dependents build_dependents(const Trace& trace) {
  const IdIndex index = check(trace);
  // Counting sort of the edges by predecessor. Filling from the last record
  // back leaves each record's dependents in ascending order and every
  // begin[p] at the start of p's run.
  const std::size_t n = trace.records.size();
  Dependents d;
  d.begin.assign(n + 1, 0);
  std::size_t edges = 0;
  for (const TraceRecord& r : trace.records) {
    for (std::uint64_t dep : r.deps) ++d.begin[index.find(dep)];
    edges += r.deps.size();
  }
  for (std::size_t p = 1; p <= n; ++p) d.begin[p] += d.begin[p - 1];
  d.targets.resize(edges);
  for (std::size_t i = n; i-- > 0;) {
    for (std::uint64_t dep : trace.records[i].deps) {
      d.targets[--d.begin[index.find(dep)]] = static_cast<std::uint32_t>(i);
    }
  }
  return d;
}

bool Trace::has_dependencies() const {
  return std::any_of(records.begin(), records.end(),
                     [](const TraceRecord& r) { return !r.deps.empty(); });
}

TraceSummary Trace::summary() const {
  TraceSummary s;
  s.records = records.size();
  for (const TraceRecord& r : records) {
    if (r.deps.empty()) {
      ++s.roots;
      s.span = std::max(s.span, r.time);
    }
    s.dep_edges += r.deps.size();
    s.total_flits +=
        static_cast<std::uint64_t>(r.length > 0 ? r.length : default_length);
  }
  if (nodes > 0 && s.span > 0.0) {
    s.offered_rate = static_cast<double>(s.roots) /
                     (static_cast<double>(nodes) * s.span);
  }
  return s;
}

}  // namespace drlnoc::trace
