#include "core/env_noc.h"

#include <algorithm>
#include <stdexcept>

#include "noc/simulator.h"
#include "noc/workload.h"
#include "scenario/runtime.h"

namespace drlnoc::core {

namespace {
/// Validates `p` and fills in what it leaves implicit. Applied before member
/// construction: the scenario (the standard phased one when unset)
/// overrides the network section so the feature extractor and action-space
/// checks see the scenario's fabric. The traffic seed stays with
/// NocEnvParams — the RL evaluation protocol (per-replica seeds,
/// per-episode reseeding) owns it; the scenario's own seed governs
/// standalone scenarioctl-style runs.
NocEnvParams resolve(NocEnvParams p) {
  if (!p.scenario) {
    if (!p.reward.tenant_qos.empty()) {
      throw std::invalid_argument(
          "NocEnvParams: reward.tenant_qos requires a scenario that "
          "declares the tenants it describes");
    }
    p.scenario = std::make_shared<const scenario::Scenario>(
        scenario::phased_scenario(p.net));
  }
  p.scenario->validate();
  const std::uint64_t seed = p.net.seed;
  p.net = p.scenario->net;
  p.net.seed = seed;
  // QoS annotations switch reward + features into tenant-aware mode.
  // Explicitly provided reward.tenant_qos wins over the scenario's.
  if (p.scenario_qos && p.reward.tenant_qos.empty() &&
      p.scenario->has_qos()) {
    p.reward.tenant_qos.reserve(p.scenario->tenants.size());
    for (const scenario::TenantSpec& t : p.scenario->tenants) {
      TenantQosSpec q;
      q.cls = t.qos;
      q.p95_target = t.p95_target;
      p.reward.tenant_qos.push_back(q);
    }
  }
  if (!p.reward.tenant_qos.empty() &&
      p.reward.tenant_qos.size() != p.scenario->tenants.size()) {
    throw std::invalid_argument(
        "NocEnvParams: reward.tenant_qos describes " +
        std::to_string(p.reward.tenant_qos.size()) +
        " tenants but the scenario has " +
        std::to_string(p.scenario->tenants.size()));
  }
  // Validate the action space against the hardware limits.
  for (int a = 0; a < p.actions.size(); ++a) {
    const noc::NocConfig c = p.actions.decode(a);
    if (c.active_vcs > p.net.max_vcs || c.active_depth > p.net.max_depth) {
      throw std::invalid_argument(
          "action space exceeds physical resources: " + noc::to_string(c));
    }
  }
  return p;
}

/// power_ref_key of already-resolved params.
PowerRefKey key_of(const NocEnvParams& p) {
  PowerRefKey key;
  // Reference = power of the *most capable* configuration under the
  // scenario's peak load; "power saving" numbers are relative to it.
  key.net = p.net;
  key.net.initial_config = p.actions.decode(p.actions.max_action());
  key.power = p.power;
  key.peak_rate =
      std::clamp(scenario::peak_offered_rate(*p.scenario), 0.01, 0.5);
  return key;
}
}  // namespace

PowerRefKey power_ref_key(const NocEnvParams& params) {
  return key_of(resolve(params));
}

double calibrate_power_ref(const PowerRefKey& key) {
  noc::Network net(key.net, key.power);
  noc::SteadyWorkload workload =
      noc::SteadyWorkload::make(net.topology(), "uniform", key.peak_rate);
  net.run_epoch(&workload, 2000);  // warm-up, discard
  const noc::EpochStats stats = net.run_epoch(&workload, 2000);
  return std::max(1e-3, stats.avg_power_mw(key.power.core_freq_ghz));
}

NocConfigEnv::NocConfigEnv(NocEnvParams params)
    : params_(resolve(std::move(params))),
      features_(params_.actions, params_.net.width * params_.net.height,
                FeatureParams{}, params_.reward.tenant_qos),
      reward_(params_.reward, params_.power.core_freq_ghz) {
  power_ref_mw_ = params_.reward.power_ref_mw > 0.0
                      ? params_.reward.power_ref_mw
                      : calibrate_power_ref(key_of(params_));
  reward_.set_power_ref(power_ref_mw_);
}

NocConfigEnv::~NocConfigEnv() = default;

std::size_t NocConfigEnv::state_size() const {
  return features_.state_size();
}

void NocConfigEnv::build_network() {
  noc::NetworkParams np = params_.net;
  // Training episodes reseed the traffic so the agent cannot overfit one
  // arrival sequence, and start every phased tenant at a random point of
  // its phase sequence so every phase is seen at every episode position;
  // evaluation (see evaluate()) keeps the base seed and phase 0.
  double phase_start = 0.0;
  if (!eval_mode_) {
    np.seed = params_.net.seed + 0x9e3779b9ULL * static_cast<std::uint64_t>(episode_);
    phase_start = util::Rng(np.seed ^ 0xabcdef123456ULL).uniform();
  }
  workload_.reset();
  net_ = std::make_unique<noc::Network>(np, params_.power);
  // Observability taps survive episode resets: the rebuilt fabric re-attaches
  // the same recorder/metrics, so one trace spans a whole training run.
  if (params_.recorder != nullptr) net_->set_flight_recorder(params_.recorder);
  if (params_.metrics != nullptr) net_->set_metrics(params_.metrics);
  // Each episode gets its own fault model at the same seed, so fault
  // timing is reproducible per episode and independent of how many
  // episodes (or parallel experiment threads) ran before this one.
  if (params_.scenario->faults.enabled()) {
    net_->set_fault_model(params_.scenario->faults);
  }
  workload_ = scenario::build_workload(*params_.scenario, net_->topology(),
                                       phase_start);
  net_->set_tenant_tracking(params_.scenario->num_tenants());
}

rl::State NocConfigEnv::reset() {
  ++episode_;
  epoch_in_episode_ = 0;
  build_network();
  features_.reset();
  last_stats_ = net_->run_epoch(workload_.get(), params_.epoch_cycles);
  return features_.extract(last_stats_);
}

rl::StepResult NocConfigEnv::step(int action) {
  if (!net_) throw std::logic_error("step() before reset()");
  net_->apply_config(params_.actions.decode(action));
  last_stats_ = net_->run_epoch(workload_.get(), params_.epoch_cycles);
  ++epoch_in_episode_;

  rl::StepResult out;
  out.reward = reward_.compute(last_stats_);
  out.next_state = features_.extract(last_stats_);
  out.done = epoch_in_episode_ >= params_.epochs_per_episode;
  return out;
}

}  // namespace drlnoc::core
