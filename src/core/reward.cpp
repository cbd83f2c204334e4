#include "core/reward.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace drlnoc::core {

namespace {

void check_weight(const char* name, double v, bool positive = false) {
  const bool ok = std::isfinite(v) && (positive ? v > 0.0 : v >= 0.0);
  if (!ok) {
    throw std::invalid_argument(
        std::string("reward: ") + name + " must be finite and " +
        (positive ? "> 0" : ">= 0") + " (got " + std::to_string(v) + ")");
  }
}

}  // namespace

void RewardParams::validate() const {
  check_weight("w_latency", w_latency);
  check_weight("w_power", w_power);
  check_weight("w_saturation", w_saturation);
  check_weight("w_slo", w_slo);
  check_weight("w_background_energy", w_background_energy);
  check_weight("latency_ref", latency_ref, /*positive=*/true);
  check_weight("power_ref_mw", power_ref_mw);
  for (std::size_t i = 0; i < tenant_qos.size(); ++i) {
    const TenantQosSpec& q = tenant_qos[i];
    const std::string who = "reward: tenant_qos[" + std::to_string(i) + "] ";
    if (q.cls == TenantQosClass::kLatencyCritical) {
      if (!(q.p95_target > 0.0) || !std::isfinite(q.p95_target)) {
        throw std::invalid_argument(
            who + "is latency_critical and requires a finite p95_target > 0 "
            "core cycles (got " + std::to_string(q.p95_target) + ")");
      }
    } else if (q.p95_target != 0.0) {
      throw std::invalid_argument(
          who + "has a p95_target but is not latency_critical (targets are "
          "only meaningful for latency_critical tenants)");
    }
  }
}

RewardFunction::RewardFunction(RewardParams params, double core_freq_ghz)
    : params_(std::move(params)), core_freq_ghz_(core_freq_ghz) {
  params_.validate();
  check_weight("core_freq_ghz", core_freq_ghz_, /*positive=*/true);
}

RewardFunction::Breakdown RewardFunction::breakdown(
    const noc::EpochStats& stats) const {
  Breakdown b;

  // Latency: squashed so saturated epochs don't dominate the scale; an
  // epoch with no completed packets is treated as fully saturated.
  double lat_norm;
  if (stats.packets_received == 0 && stats.packets_offered > 0) {
    lat_norm = 1.0;
  } else {
    const double l = stats.avg_latency / params_.latency_ref;
    lat_norm = l / (l + 1.0);  // in [0, 1)
  }
  b.latency_term = params_.w_latency * lat_norm;

  const double power = stats.avg_power_mw(core_freq_ghz_);
  const double ref = params_.power_ref_mw > 0.0 ? params_.power_ref_mw : 1.0;
  b.power_term = params_.w_power * std::min(2.0, power / ref);

  // Saturation: offered load the network failed to carry, plus standing
  // backlog (so the agent cannot park packets at the sources for free).
  double sat = 0.0;
  if (stats.offered_rate > 1e-9) {
    sat = std::max(0.0, stats.offered_rate - stats.accepted_rate) /
          stats.offered_rate;
  }
  const double backlog_pressure =
      static_cast<double>(stats.source_queue_total) /
      std::max<double>(1.0, static_cast<double>(stats.packets_offered) + 1.0);
  sat = std::min(1.0, sat + 0.5 * std::min(1.0, backlog_pressure));
  b.saturation_term = params_.w_saturation * sat;

  if (params_.tenant_qos.empty()) {
    // Aggregate mode: bit-identical to the pre-QoS objective.
    b.reward = -(b.latency_term + b.power_term + b.saturation_term);
    return b;
  }

  if (stats.tenants.size() != params_.tenant_qos.size()) {
    throw std::invalid_argument(
        "reward: QoS mode describes " +
        std::to_string(params_.tenant_qos.size()) +
        " tenants but the epoch carries " +
        std::to_string(stats.tenants.size()) +
        " tenant slices (was tenant tracking enabled?)");
  }

  // Background credit scale: how far the fabric runs below the power
  // reference. A tenant's credit is that saving times its share of the
  // delivered flits, so throttling only pays when background traffic is
  // actually what the fabric carries.
  const double power_saving = std::max(0.0, 1.0 - power / ref);
  std::uint64_t total_flits = 0;
  for (const noc::TenantEpochStats& ts : stats.tenants) {
    total_flits += ts.flits_ejected;
  }

  b.tenants.resize(params_.tenant_qos.size());
  double slo_sum = 0.0;
  double credit_sum = 0.0;
  for (std::size_t i = 0; i < params_.tenant_qos.size(); ++i) {
    const TenantQosSpec& q = params_.tenant_qos[i];
    const noc::TenantEpochStats& ts = stats.tenants[i];
    TenantTerms& terms = b.tenants[i];
    switch (q.cls) {
      case TenantQosClass::kLatencyCritical: {
        if (ts.packets_offered > 0 && ts.packets_measured == 0) {
          // Offered traffic, nothing delivered: a full violation, like the
          // aggregate latency term's zero-delivery convention.
          terms.slo_term = params_.w_slo;
        } else if (ts.packets_measured > 0) {
          const double excess =
              std::max(0.0, ts.p95_latency / q.p95_target - 1.0);
          terms.slo_term = params_.w_slo * (excess / (excess + 1.0));
        }
        slo_sum += terms.slo_term;
        break;
      }
      case TenantQosClass::kBackground: {
        const double share =
            total_flits > 0 ? static_cast<double>(ts.flits_ejected) /
                                  static_cast<double>(total_flits)
                            : 0.0;
        terms.energy_credit =
            params_.w_background_energy * power_saving * share;
        credit_sum += terms.energy_credit;
        break;
      }
      case TenantQosClass::kBestEffort:
        break;
    }
  }

  b.reward = -(b.latency_term + b.power_term + b.saturation_term + slo_sum -
               credit_sum);
  return b;
}

double RewardFunction::compute(const noc::EpochStats& stats) const {
  return breakdown(stats).reward;
}

}  // namespace drlnoc::core
