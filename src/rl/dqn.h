// Deep Q-Network agent (Mnih et al. 2015) with the standard stabilizers:
// experience replay (uniform or prioritized), a target network hard-synced
// every `target_sync_every` learn steps, Huber loss, gradient clipping,
// epsilon-greedy exploration, and an optional Double-DQN target (van Hasselt
// et al. 2016). The online and target Q-networks are nn::Mlp values, trained
// by one nn::Adam.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "rl/env.h"
#include "rl/policy_io.h"
#include "rl/replay.h"
#include "rl/schedule.h"
#include "util/ring_buffer.h"
#include "util/rng.h"

namespace drlnoc::rl {

struct DqnParams {
  std::vector<std::size_t> hidden = {64, 64};
  double gamma = 0.9;
  double lr = 1e-3;  ///< Adam learning rate
  std::size_t replay_capacity = 20000;
  std::size_t batch_size = 32;
  std::size_t min_replay = 256;        ///< learning starts after this many
  std::uint64_t target_sync_every = 250;  ///< learn steps between hard syncs
  double grad_clip = 10.0;
  bool double_dqn = true;
  bool dueling = false;       ///< dueling V/A head (Wang et al. 2016)
  int n_step = 1;             ///< n-step return aggregation
  bool prioritized = false;
  double per_alpha = 0.6;
  double per_beta = 0.4;
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  std::uint64_t epsilon_decay_steps = 4000;
  std::uint64_t seed = 7;

  /// Throws std::invalid_argument naming the offending field when a value is
  /// out of range. DqnAgent calls it before building any network, so a bad
  /// `hidden` width fails here rather than as an unreadable checkpoint.
  void validate() const;
};

class DqnAgent {
 public:
  DqnAgent(std::size_t state_size, int num_actions, DqnParams params);

  /// Epsilon-greedy action for training.
  int act(const State& state);
  /// Greedy action (evaluation).
  int act_greedy(const State& state);
  /// Greedy actions for a batch of states (one row per state): a single
  /// matmul through the online net instead of `rows` separate forwards.
  /// Row r of `states` yields `actions[r]`; bit-identical to calling
  /// act_greedy on each row.
  void act_greedy_batch(const nn::Matrix& states, std::vector<int>& actions);
  /// Q-values of a state (evaluation / inspection).
  std::vector<double> q_values(const State& state);

  /// Stores a transition and performs one learning step when ready.
  /// Returns the loss if a gradient step happened.
  std::optional<double> observe(const Transition& t);

  double epsilon() const;
  /// Exploration rate at an arbitrary env-step count. Parallel rollout
  /// collection uses this to evaluate the schedule at a lane's *global*
  /// step index without mutating the agent.
  double epsilon_at(std::uint64_t steps) const { return epsilon_.value(steps); }
  std::uint64_t steps() const { return env_steps_; }
  std::uint64_t learn_steps() const { return learn_steps_; }
  std::size_t replay_size() const;
  const DqnParams& params() const { return params_; }

  /// The online Q-network, whose greedy action act_greedy takes. Copy it
  /// into a core::DrlController to serve the trained policy.
  const nn::Mlp& policy() const { return online_; }

  /// Writes a versioned `drlpol 1` checkpoint: header (dims, architecture,
  /// optional training-scenario hash and git provenance) followed by the
  /// raw weight blob. Pass a default-constructed PolicyMeta for an
  /// anonymous checkpoint. rl::read_policy reads it back.
  void save(std::ostream& os, const PolicyMeta& meta = {}) const;

 private:
  /// Folds the n-step window into aggregated transitions pushed to replay.
  void push_n_step(const Transition& t);
  void store(const Transition& t);
  double learn();
  /// Regression target for one transition, per DQN / Double-DQN rule.
  double td_target(const Transition& t, const nn::Matrix& q_next_online,
                   const nn::Matrix& q_next_target, std::size_t row) const;

  std::size_t state_size_;
  int num_actions_;
  DqnParams params_;
  util::Rng rng_;
  nn::Mlp online_;
  nn::Mlp target_;
  nn::Adam optimizer_;
  LinearSchedule epsilon_;
  std::unique_ptr<ReplayBuffer> uniform_replay_;
  std::unique_ptr<PrioritizedReplayBuffer> prioritized_replay_;
  util::RingBuffer<Transition> n_step_window_;
  std::uint64_t env_steps_ = 0;
  std::uint64_t learn_steps_ = 0;

  // Persistent learn-step workspace: act(), q_values() and learn() reuse
  // these buffers so the steady-state hot path performs no heap allocation.
  nn::Matrix ws_state_;          ///< 1×state input for act / q_values
  nn::Matrix ws_states_;         ///< stacked batch states
  nn::Matrix ws_next_states_;    ///< stacked batch next-states
  nn::MaskedLossResult ws_loss_;
  SampledBatch ws_batch_;
  Transition ws_store_;          ///< discount-defaulted copy staged for push
  Transition ws_agg_;            ///< n-step aggregation scratch
  std::vector<int> ws_actions_;
  std::vector<double> ws_targets_;
};

}  // namespace drlnoc::rl
