// NetworkMetrics: the fabric's per-epoch metrics table. Network feeds it
// through two entry points: sample_node() per router per epoch (before the
// router's activity counters reset; allocation-free) and commit_epoch() at
// the drain boundary, which appends one row — the four per-router families
// plus the aggregate series taken from EpochStats. The table exports to
// JSON and a per-router heatmap CSV; see docs/OBSERVABILITY.md for the
// catalogue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/stats.h"

namespace drlnoc::noc {
struct EpochStats;
}  // namespace drlnoc::noc

namespace drlnoc::obs {

class NetworkMetrics {
 public:
  explicit NetworkMetrics(int num_nodes);

  int num_nodes() const { return num_nodes_; }
  /// Committed epochs (rows of the table).
  std::size_t samples() const { return times_.size(); }

  /// Per-router sample for the closing epoch; called from
  /// Network::drain_epoch_stats before the router's activity counters reset.
  void sample_node(int node, std::uint64_t link_flits, int buffered_flits,
                   int max_vc_occupancy, std::uint64_t nic_queue_depth);

  /// Closes the epoch: appends one row (the per-router samples plus the
  /// epoch's aggregates) stamped with the epoch's end time.
  void commit_epoch(double time, const noc::EpochStats& stats);

  /// The whole table as JSON: a schema header around {"samples", "times",
  /// "series": [...], "histograms": [...]}.
  void write_json(std::ostream& os) const;
  /// Per-router link-utilization heatmap: header `time,i0,...,iN-1`, one
  /// row per epoch.
  void write_heatmap_csv(std::ostream& os) const;

 private:
  int num_nodes_;
  /// The closing epoch's per-router samples, family-major (family f, node
  /// n at f * num_nodes + n); a node not sampled keeps its last value.
  std::vector<double> nodes_;
  std::vector<double> times_;  ///< one end time per committed epoch
  /// Committed rows back to back, each a nodes_ copy then the aggregates.
  std::vector<double> rows_;
  /// Run-cumulative distribution of per-epoch average latency.
  util::Histogram latency_hist_{/*limit=*/4096.0, /*buckets=*/512};
};

}  // namespace drlnoc::obs
