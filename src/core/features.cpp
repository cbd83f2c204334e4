#include "core/features.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace drlnoc::core {

namespace {
double clamp01(double x) { return std::clamp(x, 0.0, 1.0); }
double soft(double x, double scale) { return x <= 0.0 ? 0.0 : x / (x + scale); }
}  // namespace

FeatureExtractor::FeatureExtractor(const ActionSpace& space, int num_nodes,
                                   FeatureParams params,
                                   std::vector<TenantQosSpec> tenant_qos)
    : space_(space), num_nodes_(num_nodes), params_(params),
      tenant_qos_(std::move(tenant_qos)),
      load_ewma_(params.ewma_alpha), latency_ewma_(params.ewma_alpha) {}

std::size_t FeatureExtractor::state_size() const {
  return 10 + space_.vc_options().size() + space_.depth_options().size() +
         space_.dvfs_options().size() + 3 * tenant_qos_.size();
}

std::vector<std::string> FeatureExtractor::feature_names() const {
  std::vector<std::string> names = {
      "offered_rate", "accepted_rate", "load_ewma",   "avg_latency",
      "p95_latency",  "latency_ewma",  "occupancy",   "hotspot_skew",
      "backlog",      "load_delta",
  };
  for (int v : space_.vc_options()) names.push_back("cfg_vc" + std::to_string(v));
  for (int d : space_.depth_options())
    names.push_back("cfg_depth" + std::to_string(d));
  for (int f : space_.dvfs_options())
    names.push_back("cfg_dvfs" + std::to_string(f));
  for (std::size_t i = 0; i < tenant_qos_.size(); ++i) {
    std::string p = "t";
    p += std::to_string(i);
    p += '_';
    names.push_back(p + "share");
    names.push_back(p + "p95");
    names.push_back(p + "shortfall");
  }
  return names;
}

void FeatureExtractor::reset() {
  load_ewma_.reset();
  latency_ewma_.reset();
  prev_offered_norm_ = 0.0;
}

rl::State FeatureExtractor::extract(const noc::EpochStats& stats) {
  rl::State s;
  s.reserve(state_size());

  const double offered = clamp01(stats.offered_rate / params_.rate_scale);
  const double accepted = clamp01(stats.accepted_rate / params_.rate_scale);
  load_ewma_.add(offered);
  const double lat = soft(stats.avg_latency, params_.latency_soft);
  const double p95 = soft(stats.p95_latency, params_.latency_soft);
  latency_ewma_.add(lat);
  const double backlog_per_node =
      static_cast<double>(stats.source_queue_total) /
      std::max(1, num_nodes_);

  s.push_back(offered);
  s.push_back(accepted);
  s.push_back(load_ewma_.value());
  s.push_back(lat);
  s.push_back(p95);
  s.push_back(latency_ewma_.value());
  s.push_back(clamp01(stats.avg_buffer_occupancy));
  s.push_back(soft(std::max(0.0, stats.hotspot_skew - 1.0), params_.skew_soft));
  s.push_back(soft(backlog_per_node, params_.backlog_soft));
  // Load trend, remapped from [-1, 1] to [0, 1].
  s.push_back(clamp01(0.5 + 0.5 * (offered - prev_offered_norm_)));
  prev_offered_norm_ = offered;

  for (int v : space_.vc_options())
    s.push_back(stats.config.active_vcs == v ? 1.0 : 0.0);
  for (int d : space_.depth_options())
    s.push_back(stats.config.active_depth == d ? 1.0 : 0.0);
  for (int f : space_.dvfs_options())
    s.push_back(stats.config.dvfs_level == f ? 1.0 : 0.0);

  if (!tenant_qos_.empty()) {
    if (stats.tenants.size() != tenant_qos_.size()) {
      throw std::invalid_argument(
          "features: QoS mode describes " +
          std::to_string(tenant_qos_.size()) +
          " tenants but the epoch carries " +
          std::to_string(stats.tenants.size()) + " tenant slices");
    }
    for (std::size_t i = 0; i < tenant_qos_.size(); ++i) {
      const TenantQosSpec& q = tenant_qos_[i];
      const noc::TenantEpochStats& ts = stats.tenants[i];
      // Share of the offered traffic this tenant accounts for.
      const double share =
          stats.packets_offered > 0
              ? static_cast<double>(ts.packets_offered) /
                    static_cast<double>(stats.packets_offered)
              : 0.0;
      s.push_back(clamp01(share));
      // Latency-critical tenants report p95 relative to the SLO (0.5 at the
      // target, saturating at 2x); others squash on the shared soft scale.
      if (q.cls == TenantQosClass::kLatencyCritical) {
        s.push_back(clamp01(ts.p95_latency / (2.0 * q.p95_target)));
      } else {
        s.push_back(soft(ts.p95_latency, params_.latency_soft));
      }
      // Delivery shortfall: offered-but-undelivered fraction this epoch.
      const double shortfall =
          ts.packets_offered > 0
              ? 1.0 - static_cast<double>(ts.packets_received) /
                          static_cast<double>(ts.packets_offered)
              : 0.0;
      s.push_back(clamp01(shortfall));
    }
  }
  return s;
}

}  // namespace drlnoc::core
