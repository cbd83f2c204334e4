// Application-level trace & task-graph workload model. A Trace is an ordered
// list of packet records; each record either releases at an absolute core
// time (a *root*) or after all of its declared predecessor packets have been
// delivered plus a compute delay (a *task-graph node*, SET-ISCA2023-style).
// Traces are produced by TraceRecorder (capturing a live run), by the
// generators in trace/generators.h (DNN pipelines, MPI-style collectives), or
// read from `.drltrc` / `.drltrb` files (trace/trace_io.h); TraceWorkload
// (trace/trace_workload.h) replays them through any Network.
#pragma once

#include <cstdint>
#include <vector>

#include "noc/types.h"

namespace drlnoc::trace {

/// One packet of a trace. `time` is the release core-time for roots (empty
/// `deps`); for dependent records it is the compute delay, in core cycles,
/// after the last predecessor packet is delivered.
struct TraceRecord {
  std::uint64_t id = 0;  ///< unique within the trace, nonzero
  noc::NodeId src = 0;
  noc::NodeId dst = 0;
  double time = 0.0;  ///< release time (roots) or post-dependency delay
  int length = 0;     ///< flits; 0 = the trace's default_length
  std::vector<std::uint64_t> deps;  ///< predecessor record ids

  bool operator==(const TraceRecord&) const = default;
};

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

  bool operator==(const Trace&) const = default;

  /// Throws std::invalid_argument on malformed traces: nonpositive node
  /// count, zero/duplicate ids, out-of-range endpoints, self-sends,
  /// nonfinite/negative times, oversized lengths, or dependencies that are
  /// unknown, forward, duplicated, or self-referential.
  void validate() const;

  bool has_dependencies() const;
  TraceSummary summary() const;
};

/// The records that depend on each record, as one CSR array: record i's
/// dependents, in ascending record order, are
/// `targets[begin[i] .. begin[i + 1])`.
struct Dependents {
  std::vector<std::size_t> begin;      ///< records + 1 offsets
  std::vector<std::uint32_t> targets;  ///< record positions
  bool operator==(const Dependents&) const = default;
};

/// Validates `trace` exactly as Trace::validate does and builds its
/// dependents from the id index that validation filled, so the only
/// scratch is that index: O(records), whatever the number of edges.
Dependents build_dependents(const Trace& trace);

}  // namespace drlnoc::trace
