// Shared helpers for the experiment harnesses in bench/. Each binary prints
// one paper table/figure; these helpers keep the training and evaluation
// protocol identical across experiments.
#pragma once

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/env_noc.h"
#include "core/parallel.h"
#include "core/trainer.h"
#include "obs/session.h"
#include "rl/dqn.h"
#include "scenario/runtime.h"
#include "util/config.h"
#include "util/table.h"

namespace drlnoc::bench {

/// Resolves the shared `--jobs N` flag (also accepted as `jobs=N`). The
/// default 0 means one worker per hardware thread. Every experiment is
/// bit-identical at any jobs value — the flag only buys wall-clock.
inline core::ExperimentRunner runner_from(const util::Config& cfg) {
  return core::ExperimentRunner(cfg.get("jobs", 0));
}

/// Clones a trained agent's policy network. Worker threads must not share
/// one DqnAgent (forward passes cache activations), so each parallel
/// evaluation task gets its own frozen copy; greedy actions are identical to
/// the original's because the weights are.
inline std::unique_ptr<rl::DqnAgent> clone_policy(const rl::DqnAgent& agent,
                                                  std::size_t state_size,
                                                  int num_actions) {
  std::stringstream weights;
  agent.save(weights);
  auto copy = std::make_unique<rl::DqnAgent>(state_size, num_actions,
                                             agent.params());
  copy->load_weights(weights);
  return copy;
}

/// DQN hyper-parameters used by every experiment (kept in one place so the
/// tables are comparable).
inline rl::DqnParams standard_dqn(std::uint64_t total_env_steps,
                                  std::uint64_t seed = 7) {
  rl::DqnParams dp;
  dp.hidden = {64, 64};
  dp.gamma = 0.9;
  dp.lr = 1e-3;
  dp.min_replay = 128;
  dp.batch_size = 32;
  dp.target_sync_every = 250;
  dp.double_dqn = true;
  dp.epsilon_decay_steps = total_env_steps * 3 / 4;
  dp.seed = seed;
  return dp;
}

/// Trains a fresh agent on `env` and returns it.
inline std::unique_ptr<rl::DqnAgent> train_agent(core::NocConfigEnv& env,
                                                 int episodes,
                                                 std::uint64_t seed = 7) {
  const auto steps =
      static_cast<std::uint64_t>(episodes) *
      static_cast<std::uint64_t>(env.params().epochs_per_episode);
  auto agent = std::make_unique<rl::DqnAgent>(
      env.state_size(), env.num_actions(), standard_dqn(steps, seed));
  core::TrainParams tp;
  tp.episodes = episodes;
  tp.eval_every = 0;
  core::train_dqn(env, *agent, tp);
  return agent;
}

/// Trains a fresh agent with the multi-actor collector
/// (core::train_dqn_parallel). `round` is part of the experiment definition
/// (changing it changes the curve, like a seed); `actors` only fans the
/// environment stepping across threads — results are bit-identical at any
/// value, so tables stay actors-invariant while training buys wall-clock.
inline std::unique_ptr<rl::DqnAgent> train_agent_parallel(
    const core::NocEnvParams& ep, int episodes, int round, int actors,
    std::uint64_t seed = 7) {
  const auto steps = static_cast<std::uint64_t>(episodes) *
                     static_cast<std::uint64_t>(ep.epochs_per_episode);
  // Calibrated once, for the probe and the trainer's lanes alike.
  const core::NocEnvParams calibrated = core::with_calibrated_power_ref(ep);
  core::NocConfigEnv probe(calibrated);  // observation/action dims only
  auto agent = std::make_unique<rl::DqnAgent>(
      probe.state_size(), probe.num_actions(), standard_dqn(steps, seed));
  core::ParallelTrainParams tp;
  tp.episodes = episodes;
  tp.round = round;
  tp.actors = actors;
  tp.eval_every = 0;
  core::train_dqn_parallel(calibrated, *agent, tp);
  return agent;
}

/// Honors `--trace-out=` / `--metrics-out=` / `--trace-sample=` on the table
/// benches: when any flag is set, runs `scenario` once more with the
/// observability taps attached and writes the artifacts. Runs AFTER the
/// measured comparisons so every timed/aggregated cell stays observer-free;
/// `duration_cap` bounds the extra run. Returns false when an artifact
/// could not be written (benches fold this into their exit code).
inline bool maybe_traced_run(const util::Config& cfg,
                             const scenario::Scenario& scenario,
                             double duration_cap = 20000.0) {
  obs::ObsSession session(obs::ObsOptions::from_config(cfg));
  if (!session.enabled()) return true;
  scenario::Scenario capped = scenario;
  capped.duration = scenario.duration > 0.0
                        ? std::min(scenario.duration, duration_cap)
                        : duration_cap;
  session.annotate_scenario(capped);
  scenario::run_scenario(capped, session.recorder(),
                         session.metrics(capped.net.width *
                                         capped.net.height));
  return session.finish();
}

/// Appends one controller-comparison row.
inline void result_row(util::Table& table, const core::EpisodeResult& r) {
  table.row()
      .cell(r.controller)
      .cell(r.total_reward, 2)
      .cell(r.mean_latency, 1)
      .cell(r.p95_latency, 1)
      .cell(r.mean_power_mw, 1)
      .cell(r.mean_edp / 1e6, 3)
      .cell(static_cast<long long>(r.backlog_end));
}

inline std::vector<std::string> result_headers() {
  return {"controller", "reward",       "latency", "p95",
          "power_mW",   "EDP(1e6pJcyc)", "backlog"};
}

}  // namespace drlnoc::bench
