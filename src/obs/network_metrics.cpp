#include "obs/network_metrics.h"

#include <iterator>
#include <ostream>
#include <stdexcept>

#include "noc/network.h"

namespace drlnoc::obs {
namespace {

/// The catalogue in export order: the per-router families first (one value
/// per node), then the aggregates commit_epoch takes from EpochStats.
/// Counters are per-epoch totals, gauges per-epoch levels; every series is
/// written once per epoch.
struct Series {
  const char* name;
  const char* kind;
};
constexpr Series kSeries[] = {
    {"router.link_flits", "gauge"},
    {"router.buffered_flits", "gauge"},
    {"router.max_vc_occupancy", "gauge"},
    {"nic.queue_depth", "gauge"},
    {"net.latency_avg", "gauge"},
    {"net.latency_p95", "gauge"},
    {"net.offered_rate", "gauge"},
    {"net.accepted_rate", "gauge"},
    {"net.avg_buffer_occupancy", "gauge"},
    {"net.avg_active_fraction", "gauge"},
    {"net.energy_pj", "gauge"},
    {"net.packets_offered", "counter"},
    {"net.packets_received", "counter"},
    {"fault.retries", "counter"},
    {"fault.packets_lost", "counter"},
    {"fault.rerouted_hops", "counter"},
    {"fault.flits_dropped", "counter"},
};
constexpr std::size_t kNodeFamilies = 4;
constexpr std::size_t kAggregates = std::size(kSeries) - kNodeFamilies;

}  // namespace

NetworkMetrics::NetworkMetrics(int num_nodes) : num_nodes_(num_nodes) {
  if (num_nodes < 1) {
    throw std::invalid_argument("NetworkMetrics: num_nodes must be >= 1");
  }
  nodes_.assign(kNodeFamilies * static_cast<std::size_t>(num_nodes), 0.0);
}

void NetworkMetrics::sample_node(int node, std::uint64_t link_flits,
                                 int buffered_flits, int max_vc_occupancy,
                                 std::uint64_t nic_queue_depth) {
  const auto n = static_cast<std::size_t>(num_nodes_);
  double* at = nodes_.data() + node;
  at[0] = static_cast<double>(link_flits);
  at[n] = static_cast<double>(buffered_flits);
  at[2 * n] = static_cast<double>(max_vc_occupancy);
  at[3 * n] = static_cast<double>(nic_queue_depth);
}

void NetworkMetrics::commit_epoch(double time, const noc::EpochStats& stats) {
  const double aggregates[] = {
      stats.avg_latency,
      stats.p95_latency,
      stats.offered_rate,
      stats.accepted_rate,
      stats.avg_buffer_occupancy,
      stats.avg_active_fraction,
      stats.total_energy_pj(),
      static_cast<double>(stats.packets_offered),
      static_cast<double>(stats.packets_received),
      static_cast<double>(stats.retries),
      static_cast<double>(stats.packets_lost),
      static_cast<double>(stats.rerouted_hops),
      static_cast<double>(stats.flits_dropped),
  };
  static_assert(sizeof(aggregates) / sizeof(double) == kAggregates);
  times_.push_back(time);
  rows_.insert(rows_.end(), nodes_.begin(), nodes_.end());
  rows_.insert(rows_.end(), std::begin(aggregates), std::end(aggregates));
  if (stats.packets_received > 0) latency_hist_.add(stats.avg_latency);
}

void NetworkMetrics::write_json(std::ostream& os) const {
  const auto n = static_cast<std::size_t>(num_nodes_);
  const std::size_t width = nodes_.size() + kAggregates;
  os << "{\n\"schema\": 1,\n\"kind\": \"drlnoc-metrics\",\n\"num_nodes\": "
     << num_nodes_ << ",\n\"registry\": ";
  os.precision(10);
  os << "{\n\"samples\": " << times_.size() << ",\n\"times\": [";
  for (std::size_t i = 0; i < times_.size(); ++i) {
    os << (i ? ", " : "") << times_[i];
  }
  os << "],\n\"series\": [\n";
  for (std::size_t s = 0; s < std::size(kSeries); ++s) {
    const bool per_node = s < kNodeFamilies;
    const std::size_t offset =
        per_node ? s * n : nodes_.size() + (s - kNodeFamilies);
    os << (s ? ",\n" : "") << "{\"name\": \"" << kSeries[s].name
       << "\", \"kind\": \"" << kSeries[s].kind
       << "\", \"instances\": " << (per_node ? num_nodes_ : 1)
       << ", \"values\": [";
    for (std::size_t r = 0; r < times_.size(); ++r) {
      const double* row = rows_.data() + r * width + offset;
      os << (r ? ", " : "");
      if (!per_node) {
        os << row[0];
        continue;
      }
      os << "[";
      for (std::size_t k = 0; k < n; ++k) os << (k ? ", " : "") << row[k];
      os << "]";
    }
    os << "]}";
  }
  const util::Histogram& h = latency_hist_;
  os << "\n],\n\"histograms\": [\n"
     << "{\"name\": \"net.epoch_latency_avg\", \"count\": " << h.count()
     << ", \"mean\": " << h.mean() << ", \"p50\": " << h.percentile(0.5)
     << ", \"p95\": " << h.percentile(0.95)
     << ", \"p99\": " << h.percentile(0.99)
     << ", \"overflow\": " << h.overflow() << ", \"buckets\": [";
  for (std::size_t i = 0; i < h.buckets().size(); ++i) {
    os << (i ? ", " : "") << h.buckets()[i];
  }
  os << "]}\n]\n}\n}\n";
}

void NetworkMetrics::write_heatmap_csv(std::ostream& os) const {
  const std::size_t width = nodes_.size() + kAggregates;
  os.precision(10);
  os << "time";
  for (int k = 0; k < num_nodes_; ++k) os << ",i" << k;
  os << "\n";
  for (std::size_t r = 0; r < times_.size(); ++r) {
    os << times_[r];
    // router.link_flits is the row's first family.
    const double* row = rows_.data() + r * width;
    for (int k = 0; k < num_nodes_; ++k) os << "," << row[k];
    os << "\n";
  }
}

}  // namespace drlnoc::obs
