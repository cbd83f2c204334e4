// NocConfigEnv: the epoch-level MDP over the cycle-accurate simulator.
// Each RL step = apply a configuration, simulate one epoch, observe features,
// receive the energy/latency reward. This is the glue between the RL
// substrate and the NoC substrate — the system the paper trains.
#pragma once

#include <memory>

#include "core/action_space.h"
#include "core/features.h"
#include "core/reward.h"
#include "noc/network.h"
#include "rl/env.h"
#include "scenario/scenario.h"

namespace drlnoc::obs {
class FlightRecorder;
class NetworkMetrics;
}  // namespace drlnoc::obs

namespace drlnoc::scenario {
class CompositeWorkload;
}  // namespace drlnoc::scenario

namespace drlnoc::core {

struct NocEnvParams {
  noc::NetworkParams net{};
  noc::PowerParams power{};
  ActionSpace actions = ActionSpace::standard();
  /// The workload of every episode; null = scenario::phased_scenario(net),
  /// the standard 4-phase mix. The fabric comes from the scenario, except
  /// the traffic seed, which stays with `net.seed` so the evaluation
  /// protocol's per-replica/per-episode seeding applies; epoch stats carry
  /// per-tenant slices.
  std::shared_ptr<const scenario::Scenario> scenario{};
  /// When true (default) a scenario's per-tenant QoS annotations switch the
  /// reward and feature extractor into tenant-aware mode (reward.tenant_qos
  /// is filled from the scenario unless already set). False ignores the
  /// annotations — the aggregate objective, i.e. the DRL-aggregate ablation
  /// in bench/table6_qos. QoS-free scenarios behave identically either way.
  bool scenario_qos = true;
  std::uint64_t epoch_cycles = 512;  ///< router cycles per epoch
  int epochs_per_episode = 48;
  RewardParams reward{};
  /// Non-owning observability taps, re-attached to the fabric on every
  /// episode reset. Never copied into parallel experiment workers (the
  /// recorder is not thread-safe); core/parallel strips them per task.
  obs::FlightRecorder* recorder = nullptr;
  obs::NetworkMetrics* metrics = nullptr;
};

/// Everything the power-reference calibration reads, and nothing else:
/// equal keys calibrate to bit-identical references. The defaulted
/// comparisons of NetworkParams and PowerParams mean a field added to either
/// enters the key without touching this struct.
struct PowerRefKey {
  /// The env's resolved fabric (a scenario's, with the env's traffic seed),
  /// with initial_config set to the action space's most capable config.
  noc::NetworkParams net{};
  noc::PowerParams power{};
  /// Uniform offered rate of the calibration run: the scenario's peak
  /// offered rate (a phased tenant's busiest phase), clamped to [0.01, 0.5].
  double peak_rate = 0.0;

  bool operator==(const PowerRefKey&) const = default;
};

/// The calibration key of the environment `params` would build. Validates
/// `params` exactly as the NocConfigEnv constructor does.
PowerRefKey power_ref_key(const NocEnvParams& params);

/// The reward's power normaliser: average power of `key.net` under uniform
/// traffic at `key.peak_rate`, over 2000 cycles after a 2000-cycle warm-up,
/// in mW. A pure function of the key.
double calibrate_power_ref(const PowerRefKey& key);

class NocConfigEnv : public rl::Environment {
 public:
  explicit NocConfigEnv(NocEnvParams params);
  ~NocConfigEnv() override;

  std::string name() const override { return "noc_config"; }
  std::size_t state_size() const override;
  int num_actions() const override { return params_.actions.size(); }
  rl::State reset() override;
  rl::StepResult step(int action) override;

  /// Evaluation mode: fixed traffic seed and phased tenants at phase 0, so
  /// controllers see byte-identical workloads (training episodes reseed and
  /// start at a random phase point). evaluate() toggles this.
  void set_eval_mode(bool eval) { eval_mode_ = eval; }

  const ActionSpace& actions() const { return params_.actions; }
  const RewardFunction& reward() const { return reward_; }
  const NocEnvParams& params() const { return params_; }
  /// Stats of the epoch the last step() simulated.
  const noc::EpochStats& last_stats() const { return last_stats_; }
  /// The episode's merged tenants; null before the first reset().
  const scenario::CompositeWorkload* workload() const {
    return workload_.get();
  }
  int episode() const { return episode_; }
  /// Positions the episode counter so the NEXT reset() runs global episode
  /// `episode` (0-based) of the serial seed stream: reset() pre-increments,
  /// so after seek_episode(g) + reset() the traffic seed is exactly what a
  /// serial trainer would use on its (g+1)-th episode. Parallel training
  /// lanes use this to interleave the one serial episode sequence.
  void seek_episode(int episode) { episode_ = episode; }
  /// The auto-calibrated power normalizer (max-config power at the
  /// scenario's peak offered rate), in mW.
  double power_ref_mw() const { return power_ref_mw_; }

 private:
  void build_network();

  NocEnvParams params_;
  FeatureExtractor features_;
  RewardFunction reward_;
  std::unique_ptr<noc::Network> net_;
  std::unique_ptr<scenario::CompositeWorkload> workload_;
  noc::EpochStats last_stats_{};
  int episode_ = 0;
  int epoch_in_episode_ = 0;
  double power_ref_mw_ = 0.0;
  bool eval_mode_ = false;
};

}  // namespace drlnoc::core
