// The self-configuration reward: a negated weighted energy/latency objective
// with a saturation penalty. Normalizers are fixed references so rewards are
// comparable across epochs and configurations.
//
// Tenant-aware QoS mode: when `RewardParams::tenant_qos` is non-empty the
// reward additionally shapes over the per-tenant epoch slices
// (EpochStats.tenants, one spec per tenant) — latency-critical tenants add
// an SLO-violation penalty when their p95 exceeds its target, background
// tenants earn back part of the power objective when the fabric runs below
// the power reference while carrying their traffic ("squeeze background
// energy, protect latency-critical latency"). With `tenant_qos` empty the
// function is bit-identical to the pre-QoS aggregate objective.
#pragma once

#include <vector>

#include "noc/network.h"
#include "scenario/scenario.h"

namespace drlnoc::core {

/// QoS class of one tenant, as the reward sees it: kLatencyCritical adds an
/// SLO-violation penalty against p95_target, kBestEffort no extra term,
/// kBackground an energy credit for throttling.
using TenantQosClass = scenario::QosClass;

/// Per-tenant QoS spec; index-aligned with EpochStats.tenants.
struct TenantQosSpec {
  TenantQosClass cls = TenantQosClass::kBestEffort;
  /// p95 latency SLO in core cycles; required (> 0) for latency-critical
  /// tenants, must stay 0 for every other class.
  double p95_target = 0.0;
};

struct RewardParams {
  double w_latency = 1.0;
  double w_power = 1.0;
  double w_saturation = 4.0;
  double latency_ref = 60.0;   ///< core cycles; typical low-load latency
  double power_ref_mw = 0.0;   ///< 0 => auto-calibrated by the environment

  // Tenant-aware QoS mode (empty tenant_qos = aggregate objective).
  double w_slo = 4.0;  ///< weight of each tenant's SLO-violation penalty
  /// Weight of the background energy credit: earned in proportion to how
  /// far power runs below the reference and the background share of traffic.
  double w_background_energy = 0.5;
  std::vector<TenantQosSpec> tenant_qos;

  /// Throws std::invalid_argument on negative/nonfinite weights, refs, or
  /// QoS targets (checked by the RewardFunction constructor).
  void validate() const;
};

class RewardFunction {
 public:
  /// Validates `params` and `core_freq_ghz` (std::invalid_argument on bad
  /// weights/refs/targets or a nonpositive clock). Epoch power is read at
  /// `core_freq_ghz`, the fabric's core clock (noc::PowerParams), which the
  /// power reference is calibrated at too.
  explicit RewardFunction(
      RewardParams params,
      double core_freq_ghz = noc::PowerParams{}.core_freq_ghz);

  const RewardParams& params() const { return params_; }
  void set_power_ref(double mw) { params_.power_ref_mw = mw; }

  /// Reward for one epoch. Typically in [-w_lat - w_pow - w_sat, 0) in
  /// aggregate mode; QoS mode adds [-w_slo, 0] per latency-critical tenant
  /// and up to +w_background_energy of credit. In QoS mode the epoch must
  /// carry exactly one tenant slice per spec (std::invalid_argument).
  double compute(const noc::EpochStats& stats) const;

  /// Components, for inspection / reward-weight ablation (T3).
  struct TenantTerms {
    double slo_term = 0.0;       ///< already weighted, >= 0 (penalty)
    double energy_credit = 0.0;  ///< already weighted, >= 0 (credit)
  };
  struct Breakdown {
    double latency_term = 0.0;     ///< already weighted, >= 0
    double power_term = 0.0;
    double saturation_term = 0.0;
    /// One entry per tenant_qos spec (empty in aggregate mode). The scalar
    /// satisfies exactly:
    ///   reward == -(latency_term + power_term + saturation_term
    ///               + sum(slo_term) - sum(energy_credit))
    /// with the sums accumulated in tenant order.
    std::vector<TenantTerms> tenants;
    double reward = 0.0;
  };
  Breakdown breakdown(const noc::EpochStats& stats) const;

 private:
  RewardParams params_;
  double core_freq_ghz_;
};

}  // namespace drlnoc::core
