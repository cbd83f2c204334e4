#include "core/controller.h"

#include <algorithm>
#include <stdexcept>

#include "core/env_noc.h"

namespace drlnoc::core {

StaticController::StaticController(const ActionSpace& space, int action,
                                   std::string label)
    : action_(action), label_(std::move(label)) {
  if (action < 0 || action >= space.size()) {
    throw std::out_of_range("static controller action out of range");
  }
}

std::unique_ptr<StaticController> StaticController::maximal(
    const ActionSpace& space) {
  return std::make_unique<StaticController>(space, space.max_action(),
                                            "static-max");
}

std::unique_ptr<StaticController> StaticController::minimal(
    const ActionSpace& space) {
  return std::make_unique<StaticController>(space, space.min_action(),
                                            "static-min");
}

HeuristicController::HeuristicController(const ActionSpace& space,
                                         HeuristicParams params)
    : space_(space), params_(params) {
  // Balanced escalation ladder: raise the cheap knobs (VCs, depth) before
  // the expensive one (DVFS). Built by walking option indices diagonally.
  const auto& vcs = space.vc_options();
  const auto& depths = space.depth_options();
  const auto& dvfs = space.dvfs_options();
  const int steps = static_cast<int>(
      std::max({vcs.size(), depths.size(), dvfs.size()}));
  auto pick = [](const std::vector<int>& v, int step, int steps) {
    const int idx = static_cast<int>(
        (static_cast<long long>(step) * (static_cast<long long>(v.size()) - 1)) /
        std::max(1, steps - 1));
    return v[static_cast<std::size_t>(idx)];
  };
  // Ladder rungs: min everything -> ... -> max everything, with buffers
  // leading DVFS by one step.
  const int rungs = 2 * steps;
  for (int r = 0; r < rungs; ++r) {
    noc::NocConfig c;
    const int buf_step = std::min(steps - 1, (r + 1) / 2);
    const int dvfs_step = std::min(steps - 1, r / 2);
    c.active_vcs = pick(vcs, buf_step, steps);
    c.active_depth = pick(depths, buf_step, steps);
    c.dvfs_level = pick(dvfs, dvfs_step, steps);
    const int action = space.index_of(c);
    if (ladder_.empty() || ladder_.back() != action) ladder_.push_back(action);
  }
  position_ = static_cast<int>(ladder_.size()) - 1;  // start fully provisioned
}

void HeuristicController::begin_episode() {
  position_ = static_cast<int>(ladder_.size()) - 1;
  calm_streak_ = 0;
}

int HeuristicController::decide(const noc::EpochStats& stats,
                                const rl::State& /*state*/) {
  // Pressure signals (raw stats; thresholds in natural units).
  const double backlog_per_node =
      static_cast<double>(stats.source_queue_total) /
      std::max(1, params_.num_nodes);
  const bool pressure =
      stats.avg_buffer_occupancy > params_.occupancy_hi ||
      stats.avg_latency > params_.latency_hi ||
      backlog_per_node > params_.backlog_hi;
  const bool calm = stats.avg_buffer_occupancy < params_.occupancy_lo &&
                    stats.avg_latency < 0.5 * params_.latency_hi &&
                    backlog_per_node < 0.2;

  if (pressure) {
    calm_streak_ = 0;
    position_ = std::min(position_ + 1, static_cast<int>(ladder_.size()) - 1);
  } else if (calm) {
    ++calm_streak_;
    if (calm_streak_ >= params_.calm_epochs_to_downshift) {
      calm_streak_ = 0;
      position_ = std::max(position_ - 1, 0);
    }
  } else {
    calm_streak_ = 0;
  }
  return ladder_[static_cast<std::size_t>(position_)];
}

DrlController::DrlController(const NocConfigEnv& env, nn::Mlp policy,
                             std::string label)
    : policy_(std::move(policy)), label_(std::move(label)) {
  const std::size_t actions = static_cast<std::size_t>(env.num_actions());
  if (policy_.input_size() != env.state_size() ||
      policy_.output_size() != actions) {
    throw std::invalid_argument(
        "DrlController: policy expects state " +
        std::to_string(policy_.input_size()) + " / actions " +
        std::to_string(policy_.output_size()) +
        " but the environment has state " + std::to_string(env.state_size()) +
        " / actions " + std::to_string(actions) +
        " (was the policy trained with the same QoS annotations?)");
  }
}

int DrlController::decide(const noc::EpochStats&, const rl::State& state) {
  state_.resize_fast(1, state.size());
  state_.set_row(0, state);
  return static_cast<int>(argmax_row(policy_.infer_ws(state_), 0));
}

}  // namespace drlnoc::core
