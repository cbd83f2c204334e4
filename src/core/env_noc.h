// NocConfigEnv: the epoch-level MDP over the cycle-accurate simulator.
// Each RL step = apply a configuration, simulate one epoch, observe features,
// receive the energy/latency reward. This is the glue between the RL
// substrate and the NoC substrate — the system the paper trains.
#pragma once

#include <memory>
#include <vector>

#include "core/action_space.h"
#include "core/features.h"
#include "core/reward.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "rl/env.h"
#include "scenario/scenario.h"
#include "trace/trace.h"

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
  std::vector<noc::Phase> phases{};  ///< empty => PhasedWorkload::standard
  /// When set, episodes replay this application trace (dependency-aware,
  /// looping — see trace/trace_workload.h) instead of the phased workload.
  /// Trace replay ignores the traffic seed and phase offset: the arrival
  /// process is the trace itself, modulated only by simulated congestion.
  std::shared_ptr<const trace::Trace> trace{};
  double trace_rate_scale = 1.0;  ///< load knob for trace episodes
  /// When set, episodes run this multi-tenant scenario: the fabric comes
  /// from the scenario (`net` is overridden by scenario->net — except the
  /// traffic seed, which stays with `net.seed` so the evaluation protocol's
  /// per-replica/per-episode seeding applies to scenarios too), the
  /// workload is the deterministic composite of the scenario's tenants, and
  /// epoch stats carry per-tenant slices. Mutually exclusive with `trace`.
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
  std::uint64_t seed = 1;
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
  /// Uniform offered rate of the calibration run: the busiest of the
  /// scenario's peak, the scaled trace rate and the phases.
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

  /// Evaluation mode: fixed traffic seed and phase offset 0, so different
  /// controllers see byte-identical workloads. evaluate() toggles this.
  void set_eval_mode(bool eval) { eval_mode_ = eval; }
  bool eval_mode() const { return eval_mode_; }

  const ActionSpace& actions() const { return params_.actions; }
  const RewardFunction& reward() const { return reward_; }
  const NocEnvParams& params() const { return params_; }
  /// Stats of the epoch the last step() simulated.
  const noc::EpochStats& last_stats() const { return last_stats_; }
  /// The active episode's injector; null before the first reset().
  const noc::TrafficInjector* workload() const { return workload_.get(); }
  /// Non-null when the episode runs a PhasedWorkload (i.e. no trace set).
  const noc::PhasedWorkload* phased_workload() const { return phased_; }
  /// Non-null when the episode runs a multi-tenant scenario.
  const scenario::CompositeWorkload* composite_workload() const {
    return composite_;
  }
  int episode() const { return episode_; }
  /// Positions the episode counter so the NEXT reset() runs global episode
  /// `episode` (0-based) of the serial seed stream: reset() pre-increments,
  /// so after seek_episode(g) + reset() the traffic seed is exactly what a
  /// serial trainer would use on its (g+1)-th episode. Parallel training
  /// lanes use this to interleave the one serial episode sequence.
  void seek_episode(int episode) { episode_ = episode; }
  /// The auto-calibrated power normalizer (max-config power at the
  /// workload's busiest phase), in mW.
  double power_ref_mw() const { return power_ref_mw_; }

 private:
  void build_network();

  NocEnvParams params_;
  FeatureExtractor features_;
  RewardFunction reward_;
  std::unique_ptr<noc::Network> net_;
  std::unique_ptr<noc::TrafficInjector> workload_;
  noc::PhasedWorkload* phased_ = nullptr;  ///< non-null for phased episodes
  scenario::CompositeWorkload* composite_ = nullptr;  ///< scenario episodes
  noc::EpochStats last_stats_{};
  int episode_ = 0;
  int epoch_in_episode_ = 0;
  double power_ref_mw_ = 0.0;
  bool eval_mode_ = false;
};

}  // namespace drlnoc::core
