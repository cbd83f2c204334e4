// Epoch-state feature extraction: turns EpochStats + the current
// configuration into the normalized feature vector the agents consume.
// Every feature is squashed into [0, 1] (the tabular baseline bins on that
// range, and bounded inputs keep the MLP well-conditioned).
//
// Tenant-aware mode: constructed with per-tenant QoS specs, the extractor
// appends three features per tenant (traffic share, SLO-relative p95,
// delivery shortfall) read from EpochStats.tenants, so the agent sees *who*
// is suffering, not just that someone is. Without specs the vector is
// unchanged from the pre-QoS layout.
#pragma once

#include <string>
#include <vector>

#include "core/action_space.h"
#include "core/reward.h"
#include "noc/network.h"
#include "rl/env.h"
#include "util/stats.h"

namespace drlnoc::core {

struct FeatureParams {
  double rate_scale = 0.25;    ///< offered/accepted rates saturate here
  double latency_soft = 100.0; ///< soft-scale for latency squashing x/(x+s)
  double backlog_soft = 8.0;   ///< per-node source backlog soft-scale
  double skew_soft = 4.0;      ///< hotspot skew soft-scale
  double ewma_alpha = 0.35;    ///< smoothing across epochs
};

class FeatureExtractor {
 public:
  /// `tenant_qos` non-empty switches on the per-tenant slices; extract()
  /// then requires one EpochStats tenant entry per spec.
  FeatureExtractor(const ActionSpace& space, int num_nodes,
                   FeatureParams params = {},
                   std::vector<TenantQosSpec> tenant_qos = {});

  /// Feature vector length (fixed for a given action space).
  std::size_t state_size() const;
  /// Names, index-aligned with the vector (docs/debugging).
  std::vector<std::string> feature_names() const;

  /// Resets the across-epoch EWMAs (new episode).
  void reset();
  /// Consumes one epoch and produces the agent state.
  rl::State extract(const noc::EpochStats& stats);

 private:
  ActionSpace space_;
  int num_nodes_;
  FeatureParams params_;
  std::vector<TenantQosSpec> tenant_qos_;
  util::Ewma load_ewma_;
  util::Ewma latency_ewma_;
  double prev_offered_norm_ = 0.0;
};

}  // namespace drlnoc::core
