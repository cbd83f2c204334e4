// Application-level trace & task-graph workload model. A Trace is an ordered
// list of packet records; each record either releases at an absolute core
// time (a *root*) or after all of its declared predecessor packets have been
// delivered plus a compute delay (a *task-graph node*, SET-ISCA2023-style).
// Traces are produced by TraceRecorder (capturing a live run), by the
// generators in trace/generators.h (DNN pipelines, MPI-style collectives), or
// read from `.drltrc` / `.drltrb` files (trace/trace_io.h); TraceWorkload
// (trace/trace_workload.h) replays them through any Network.
//
// In memory a trace has the `.drltrb` file's shape: fixed 32-byte records
// plus one CSR dependency table, except that the table holds predecessor
// *positions* in `records` (32 bits) where the file holds their ids.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "noc/types.h"

namespace drlnoc::trace {

/// One packet of a trace. `time` is the release core-time for roots
/// (`dep_count` 0); for dependent records it is the compute delay, in core
/// cycles, after the last predecessor packet is delivered. The record's
/// predecessors are `Trace::deps[dep_begin .. dep_begin + dep_count)`.
struct TraceRecord {
  std::uint64_t id = 0;  ///< unique within the trace, nonzero
  noc::NodeId src = 0;
  noc::NodeId dst = 0;
  double time = 0.0;          ///< release time (roots) or post-dependency delay
  std::uint16_t length = 0;   ///< flits; 0 = the trace's default_length
  std::uint16_t dep_count = 0;
  std::uint32_t dep_begin = 0;

  bool operator==(const TraceRecord&) const = default;
};
static_assert(sizeof(TraceRecord) == 32, "TraceRecord is the .drltrb stride");

/// Aggregate shape of a trace, used by `tracectl info` and for calibrating
/// replay-rate heuristics.
struct TraceSummary {
  std::size_t records = 0;
  std::size_t roots = 0;      ///< records with no dependencies
  std::size_t dep_edges = 0;  ///< total predecessor references
  double span = 0.0;          ///< latest root release time (core cycles)
  double offered_rate = 0.0;  ///< root packets / node / core cycle over span
  std::uint64_t total_flits = 0;  ///< 0-length records use default_length
};

/// A validated trace is a DAG by construction: every dependency must
/// reference a record declared *earlier* in `records`.
class Trace {
 public:
  int nodes = 0;           ///< number of endpoints the records address
  int default_length = 4;  ///< flits assumed for records with length 0
  std::vector<TraceRecord> records;
  std::vector<std::uint32_t> deps;  ///< predecessor positions in `records`

  bool operator==(const Trace&) const = default;

  /// Appends `r` with `predecessors` (positions in `records`) as its
  /// dependencies, overwriting its dep_count and dep_begin; returns the
  /// new record's position.
  std::uint32_t add(TraceRecord r, std::span<const std::uint32_t> predecessors);
  std::uint32_t add(const TraceRecord& r,
                    std::initializer_list<std::uint32_t> predecessors = {}) {
    return add(r, std::span(predecessors.begin(), predecessors.size()));
  }

  /// `r`'s predecessor positions. `r` is one of `records`, its slice in
  /// range (validate() checks it).
  std::span<const std::uint32_t> deps_of(const TraceRecord& r) const {
    return {deps.data() + r.dep_begin, r.dep_count};
  }

  /// Throws std::invalid_argument on malformed traces: nonpositive node
  /// count, zero/duplicate ids, out-of-range endpoints, self-sends,
  /// nonfinite/negative times, more than 2^32 - 1 dependency edges, slices
  /// past the end of `deps`, or dependencies that are out of range,
  /// forward, duplicated, or self-referential.
  void validate() const;

  bool has_dependencies() const;
  TraceSummary summary() const;
};

/// The records that depend on each record, as one CSR array: record i's
/// dependents, in ascending record order, are
/// `targets[begin[i] .. begin[i + 1])`.
struct Dependents {
  std::vector<std::uint32_t> begin;    ///< records + 1 offsets
  std::vector<std::uint32_t> targets;  ///< record positions
  bool operator==(const Dependents&) const = default;
};

/// Validates `trace` exactly as Trace::validate does, then inverts its
/// dependency table by counting sort: O(records + edges), no id lookups.
Dependents build_dependents(const Trace& trace);

}  // namespace drlnoc::trace
