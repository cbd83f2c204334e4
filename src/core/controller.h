// Configuration controllers — the policies compared in the experiments.
// A controller maps the observed epoch (stats + feature vector) to an action
// index in the shared ActionSpace:
//   * StaticController     — any fixed configuration (static-max/min etc.)
//   * HeuristicController  — threshold escalation ladder with hysteresis,
//                            the classic hand-tuned baseline
//   * DrlController        — greedy policy of a trained Q-network
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/action_space.h"
#include "nn/layers.h"
#include "noc/network.h"
#include "rl/env.h"

namespace drlnoc::core {

class NocConfigEnv;

class Controller {
 public:
  virtual ~Controller() = default;
  virtual std::string name() const = 0;
  /// Chooses the next epoch's configuration (an ActionSpace index).
  virtual int decide(const noc::EpochStats& stats, const rl::State& state) = 0;
  /// Called at episode start.
  virtual void begin_episode() {}
};

/// Always the same configuration.
class StaticController : public Controller {
 public:
  StaticController(const ActionSpace& space, int action, std::string label);
  static std::unique_ptr<StaticController> maximal(const ActionSpace& space);
  static std::unique_ptr<StaticController> minimal(const ActionSpace& space);

  std::string name() const override { return label_; }
  int decide(const noc::EpochStats&, const rl::State&) override {
    return action_;
  }
  int action() const { return action_; }

 private:
  int action_;
  std::string label_;
};

/// Threshold rules with hysteresis over an escalation ladder: step the
/// configuration up under pressure (occupancy / backlog / latency high),
/// step it down after a streak of calm epochs. This is the hand-tuned
/// controller DRL must beat.
struct HeuristicParams {
  double occupancy_hi = 0.35;
  double occupancy_lo = 0.10;
  double latency_hi = 80.0;    ///< core cycles
  double backlog_hi = 2.0;     ///< packets per node
  int num_nodes = 64;          ///< normalizes the backlog threshold
  int calm_epochs_to_downshift = 3;
};

class HeuristicController : public Controller {
 public:
  HeuristicController(const ActionSpace& space, HeuristicParams params = {});

  std::string name() const override { return "heuristic"; }
  void begin_episode() override;
  int decide(const noc::EpochStats& stats, const rl::State& state) override;

  int ladder_position() const { return position_; }
  int ladder_size() const { return static_cast<int>(ladder_.size()); }

 private:
  const ActionSpace& space_;
  HeuristicParams params_;
  std::vector<int> ladder_;  ///< action indices, least -> most capable
  int position_ = 0;
  int calm_streak_ = 0;
};

/// Greedy policy of a trained Q-network, which the controller owns: built
/// from `agent.policy()` after training or from a checkpoint's network
/// (rl::read_policy) when serving. The constructor is the one dimension
/// check for a served policy: it throws std::invalid_argument, naming both
/// sides, when the network's input or output width differs from the env's
/// state size or action count. Greedy actions are bit-identical to
/// DqnAgent::act_greedy on the same weights.
class DrlController : public Controller {
 public:
  DrlController(const NocConfigEnv& env, nn::Mlp policy,
                std::string label = "drl");
  std::string name() const override { return label_; }
  int decide(const noc::EpochStats&, const rl::State& state) override;

 private:
  nn::Mlp policy_;
  std::string label_;
  nn::Matrix state_;  ///< 1×state input row, reused every decision
};

}  // namespace drlnoc::core
