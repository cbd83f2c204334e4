#include "trace/trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "trace/trace_check.h"

namespace drlnoc::trace {

namespace {

[[noreturn]] void too_many_edges(std::uint64_t edges) {
  throw std::invalid_argument("trace: " + std::to_string(edges) +
                              " dependency edges, more than 2^32 - 1");
}

[[noreturn]] void reject(const TraceRecord& r, const std::string& what) {
  throw std::invalid_argument("trace record " + std::to_string(r.id) + ": " +
                              what);
}

}  // namespace

namespace detail {

IdIndex::IdIndex(const std::vector<TraceRecord>& records) {
  std::uint64_t lo = UINT64_MAX;
  std::uint64_t hi = 0;
  for (const TraceRecord& r : records) {
    lo = std::min(lo, r.id);
    hi = std::max(hi, r.id);
  }
  if (!records.empty() && hi - lo < 4 * records.size()) {
    base_ = lo;
    dense_.assign(static_cast<std::size_t>(hi - lo) + 1, kAbsent);
    for (std::size_t i = records.size(); i-- > 0;) {
      dense_[records[i].id - lo] = static_cast<std::uint32_t>(i);
    }
    return;
  }
  std::size_t capacity = 16;
  while (capacity < 2 * records.size()) capacity <<= 1;  // load <= 1/2
  slots_.resize(capacity);
  mask_ = capacity - 1;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::uint64_t id = records[i].id;
    if (id == 0) continue;
    std::size_t s = home(id);
    while (slots_[s].id != 0 && slots_[s].id != id) s = (s + 1) & mask_;
    if (slots_[s].id == 0) slots_[s] = Slot{id, static_cast<std::uint32_t>(i)};
  }
}

void check(const Trace& t, const IdIndex& index, const Undecoded& undecoded) {
  if (t.nodes < 2) {
    throw std::invalid_argument("trace: needs >= 2 nodes, got " +
                                std::to_string(t.nodes));
  }
  if (t.default_length < 1 || t.default_length > 0xffff) {
    throw std::invalid_argument("trace: default_length out of range");
  }
  const std::size_t n = t.records.size();
  if (n >= IdIndex::kAbsent) {
    throw std::invalid_argument("trace: more than 2^32 - 2 records");
  }
  std::uint64_t edges = 0;
  for (const TraceRecord& r : t.records) edges += r.dep_count;
  if (edges > detail::kMaxEdges) too_many_edges(edges);

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
    if (i == undecoded.long_record) {
      reject(r, "length outside [0, 65535] flits");
    }
    const std::size_t end = std::size_t{r.dep_begin} + r.dep_count;
    if (end > t.deps.size()) {
      reject(r, "dependency slice past the end of the " +
                    std::to_string(t.deps.size()) + "-entry table");
    }
    const auto mark = static_cast<std::uint32_t>(i + 1);
    for (std::size_t e = r.dep_begin; e < end; ++e) {
      const std::uint32_t p = t.deps[e];
      if (p >= n) {
        if (e == undecoded.unknown_entry) {
          reject(r, "dependency " + std::to_string(undecoded.unknown_id) +
                        " not declared earlier in the trace");
        }
        reject(r, "dependency position " + std::to_string(p) +
                      " outside the trace");
      }
      const std::uint64_t dep = t.records[p].id;
      if (dep == r.id) reject(r, "depends on itself");
      // Only earlier records may be named, so the graph is acyclic by
      // construction.
      if (p >= i) {
        reject(r, "dependency " + std::to_string(dep) +
                      " not declared earlier in the trace");
      }
      if (stamp[p] == mark) {
        reject(r, "duplicate dependency " + std::to_string(dep));
      }
      stamp[p] = mark;
    }
    if (index.find(r.id) != i) {
      throw std::invalid_argument("trace: duplicate record id " +
                                  std::to_string(r.id));
    }
  }
}

}  // namespace detail

std::uint32_t Trace::add(TraceRecord r,
                         std::span<const std::uint32_t> predecessors) {
  if (predecessors.size() > 0xffff) {
    throw std::invalid_argument("trace record " + std::to_string(r.id) +
                                ": more than 65535 dependencies");
  }
  if (deps.size() + predecessors.size() > detail::kMaxEdges) {
    too_many_edges(deps.size() + predecessors.size());
  }
  r.dep_begin = static_cast<std::uint32_t>(deps.size());
  r.dep_count = static_cast<std::uint16_t>(predecessors.size());
  deps.insert(deps.end(), predecessors.begin(), predecessors.end());
  records.push_back(r);
  return static_cast<std::uint32_t>(records.size() - 1);
}

void Trace::validate() const {
  detail::check(*this, detail::IdIndex(records), {});
}

Dependents build_dependents(const Trace& trace) {
  trace.validate();
  // Counting sort of the edges by predecessor. Filling from the last record
  // back leaves each record's dependents in ascending order and every
  // begin[p] at the start of p's run.
  const std::size_t n = trace.records.size();
  Dependents d;
  d.begin.assign(n + 1, 0);
  std::uint32_t edges = 0;
  for (const TraceRecord& r : trace.records) {
    for (const std::uint32_t p : trace.deps_of(r)) ++d.begin[p];
    edges += r.dep_count;
  }
  for (std::size_t p = 1; p <= n; ++p) d.begin[p] += d.begin[p - 1];
  d.targets.resize(edges);
  for (std::size_t i = n; i-- > 0;) {
    for (const std::uint32_t p : trace.deps_of(trace.records[i])) {
      d.targets[--d.begin[p]] = static_cast<std::uint32_t>(i);
    }
  }
  return d;
}

bool Trace::has_dependencies() const {
  return std::any_of(records.begin(), records.end(),
                     [](const TraceRecord& r) { return r.dep_count != 0; });
}

TraceSummary Trace::summary() const {
  TraceSummary s;
  s.records = records.size();
  for (const TraceRecord& r : records) {
    if (r.dep_count == 0) {
      ++s.roots;
      s.span = std::max(s.span, r.time);
    }
    s.dep_edges += r.dep_count;
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
