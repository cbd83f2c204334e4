#include "rl/dqn.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "nn/loss.h"
#include "obs/profiler.h"

namespace drlnoc::rl {

namespace {
/// {in, hidden..., out} for the agent's Q-networks. Runs before either
/// network is built, so it is where the agent's own arguments are checked.
std::vector<std::size_t> layer_sizes(std::size_t in, const DqnParams& params,
                                     int out) {
  params.validate();
  if (out < 1) throw std::invalid_argument("need >= 1 action");
  const std::vector<std::size_t>& hidden = params.hidden;
  std::vector<std::size_t> sizes;
  sizes.push_back(in);
  for (std::size_t h : hidden) sizes.push_back(h);
  sizes.push_back(static_cast<std::size_t>(out));
  return sizes;
}

void to_matrix_into(nn::Matrix& m, const State& s) {
  m.resize_fast(1, s.size());
  m.set_row(0, s);
}

void stack_states_into(nn::Matrix& m, const std::vector<Transition>& batch,
                       bool next) {
  assert(!batch.empty());
  const std::size_t cols =
      next ? batch.front().next_state.size() : batch.front().state.size();
  m.resize_fast(batch.size(), cols);
  for (std::size_t r = 0; r < batch.size(); ++r) {
    m.set_row(r, next ? batch[r].next_state : batch[r].state);
  }
}

using nn::argmax_row;

[[noreturn]] void bad_param(const std::string& field, double value) {
  throw std::invalid_argument("DqnParams: " + field + " = " +
                              std::to_string(value) + " is out of range");
}
}  // namespace

void DqnParams::validate() const {
  if (!std::isfinite(gamma) || gamma <= 0.0 || gamma > 1.0) {
    bad_param("gamma (expected in (0, 1])", gamma);
  }
  if (!std::isfinite(lr) || lr <= 0.0) bad_param("lr (expected > 0)", lr);
  if (batch_size < 1) {
    bad_param("batch_size (expected >= 1)", static_cast<double>(batch_size));
  }
  if (replay_capacity < batch_size) {
    bad_param("replay_capacity (expected >= batch_size)",
              static_cast<double>(replay_capacity));
  }
  if (n_step < 1) bad_param("n_step (expected >= 1)", n_step);
  if (target_sync_every < 1) {
    bad_param("target_sync_every (expected >= 1)",
              static_cast<double>(target_sync_every));
  }
  // Two input/output layers join the hidden ones in the Mlp.
  if (hidden.size() + 2 > nn::kMaxLayers) {
    bad_param("hidden.size() (expected <= " +
                  std::to_string(nn::kMaxLayers - 2) + ")",
              static_cast<double>(hidden.size()));
  }
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    if (hidden[i] < 1 || hidden[i] > nn::kMaxLayerWidth) {
      bad_param("hidden[" + std::to_string(i) + "] (expected 1.." +
                    std::to_string(nn::kMaxLayerWidth) + ")",
                static_cast<double>(hidden[i]));
    }
  }
  if (!std::isfinite(grad_clip) || grad_clip <= 0.0) {
    bad_param("grad_clip (expected > 0)", grad_clip);
  }
  if (!std::isfinite(epsilon_start) || epsilon_start < 0.0 ||
      epsilon_start > 1.0) {
    bad_param("epsilon_start (expected in [0, 1])", epsilon_start);
  }
  if (!std::isfinite(epsilon_end) || epsilon_end < 0.0 || epsilon_end > 1.0) {
    bad_param("epsilon_end (expected in [0, 1])", epsilon_end);
  }
}

DqnAgent::DqnAgent(std::size_t state_size, int num_actions, DqnParams params)
    : state_size_(state_size), num_actions_(num_actions),
      params_(std::move(params)), rng_(params_.seed),
      online_(layer_sizes(state_size, params_, num_actions),
              nn::Activation::kReLU, rng_, params_.dueling),
      target_(online_),
      optimizer_(params_.lr),
      epsilon_(params_.epsilon_start, params_.epsilon_end,
               params_.epsilon_decay_steps) {
  if (params_.prioritized) {
    prioritized_replay_ = std::make_unique<PrioritizedReplayBuffer>(
        params_.replay_capacity, params_.per_alpha, params_.per_beta);
  } else {
    uniform_replay_ = std::make_unique<ReplayBuffer>(params_.replay_capacity);
  }
}

double DqnAgent::epsilon() const { return epsilon_.value(env_steps_); }

std::size_t DqnAgent::replay_size() const {
  return params_.prioritized ? prioritized_replay_->size()
                             : uniform_replay_->size();
}

int DqnAgent::act(const State& state) {
  assert(state.size() == state_size_);
  if (rng_.chance(epsilon())) {
    return static_cast<int>(rng_.below(static_cast<std::uint64_t>(num_actions_)));
  }
  return act_greedy(state);
}

int DqnAgent::act_greedy(const State& state) {
  to_matrix_into(ws_state_, state);
  const nn::Matrix& q = online_.infer_ws(ws_state_);
  return static_cast<int>(argmax_row(q, 0));
}

void DqnAgent::act_greedy_batch(const nn::Matrix& states,
                                std::vector<int>& actions) {
  assert(states.cols() == state_size_);
  const nn::Matrix& q = online_.infer_ws(states);
  actions.resize(states.rows());
  for (std::size_t r = 0; r < states.rows(); ++r) {
    actions[r] = static_cast<int>(argmax_row(q, r));
  }
}

std::vector<double> DqnAgent::q_values(const State& state) {
  to_matrix_into(ws_state_, state);
  return online_.infer_ws(ws_state_).row(0);
}

void DqnAgent::store(const Transition& t) {
  // Staged through a member copy (vector capacities are reused) so the
  // discount default can be applied without mutating the caller's object.
  ws_store_ = t;
  if (ws_store_.discount == 0.0) ws_store_.discount = params_.gamma;
  if (params_.prioritized) prioritized_replay_->push(ws_store_);
  else uniform_replay_->push(ws_store_);
}

void DqnAgent::push_n_step(const Transition& t) {
  n_step_window_.push_back(t);
  auto emit_front = [&] {
    // Aggregate from the window head: R = sum_i gamma^i r_i, bootstrapping
    // from the last reached state with discount gamma^k.
    Transition& agg = ws_agg_;
    agg = n_step_window_.front();
    double discount = params_.gamma;
    double reward = agg.reward;
    double g = params_.gamma;
    for (std::size_t i = 1; i < n_step_window_.size(); ++i) {
      const Transition& step = n_step_window_[i];
      reward += g * step.reward;
      g *= params_.gamma;
      discount *= params_.gamma;
      agg.next_state = step.next_state;
      agg.done = step.done;
      if (step.done) break;
    }
    agg.reward = reward;
    agg.discount = discount;
    store(agg);
    n_step_window_.pop_front();
  };
  if (t.done) {
    while (!n_step_window_.empty()) emit_front();
  } else if (n_step_window_.size() >=
             static_cast<std::size_t>(params_.n_step)) {
    emit_front();
  }
}

std::optional<double> DqnAgent::observe(const Transition& t) {
  assert(t.state.size() == state_size_ && t.next_state.size() == state_size_);
  if (params_.n_step > 1) push_n_step(t);
  else store(t);
  ++env_steps_;
  if (replay_size() < std::max<std::size_t>(params_.min_replay,
                                            params_.batch_size)) {
    return std::nullopt;
  }
  return learn();
}

double DqnAgent::td_target(const Transition& t,
                           const nn::Matrix& q_next_online,
                           const nn::Matrix& q_next_target,
                           std::size_t row) const {
  if (t.done) return t.reward;
  double bootstrap;
  if (params_.double_dqn) {
    // Online net selects, target net evaluates.
    const std::size_t a_star = argmax_row(q_next_online, row);
    bootstrap = q_next_target.at(row, a_star);
  } else {
    bootstrap = q_next_target.at(row, argmax_row(q_next_target, row));
  }
  const double discount = t.discount > 0.0 ? t.discount : params_.gamma;
  return t.reward + discount * bootstrap;
}

double DqnAgent::learn() {
  SampledBatch& batch = ws_batch_;
  {
    obs::ScopedPhase prof(obs::Phase::kReplaySample);
    if (params_.prioritized) {
      prioritized_replay_->sample_into(batch, params_.batch_size, rng_);
    } else {
      uniform_replay_->sample_into(batch, params_.batch_size, rng_);
    }
  }

  stack_states_into(ws_next_states_, batch.transitions, true);
  // Next-state values are inference-only. infer_ws and the training
  // forward below keep separate buffers, so both results are used by
  // reference. For Double-DQN the online net's values pick the action;
  // otherwise td_target never reads q_next_online.
  const nn::Matrix& q_next_target = target_.infer_ws(ws_next_states_);
  const nn::Matrix& q_next_online =
      params_.double_dqn ? online_.infer_ws(ws_next_states_) : q_next_target;

  ws_actions_.resize(batch.transitions.size());
  ws_targets_.resize(batch.transitions.size());
  for (std::size_t i = 0; i < batch.transitions.size(); ++i) {
    ws_actions_[i] = batch.transitions[i].action;
    ws_targets_[i] = td_target(batch.transitions[i], q_next_online,
                               q_next_target, i);
  }

  stack_states_into(ws_states_, batch.transitions, false);
  const nn::Matrix& q = online_.forward_ws(ws_states_);
  nn::masked_huber_loss_into(ws_loss_, q, ws_actions_, ws_targets_,
                             batch.weights);

  online_.zero_grads();
  online_.backward_params_ws(ws_loss_.grad);
  online_.clip_grad_norm(params_.grad_clip);
  optimizer_.step(online_);

  if (params_.prioritized) {
    prioritized_replay_->update_priorities(batch.indices, ws_loss_.td_abs);
  }

  ++learn_steps_;
  if (learn_steps_ % params_.target_sync_every == 0) {
    target_.copy_weights_from(online_);
  }
  return ws_loss_.loss;
}

void DqnAgent::save(std::ostream& os, const PolicyMeta& meta) const {
  write_policy(os, online_, meta);
}

}  // namespace drlnoc::rl
