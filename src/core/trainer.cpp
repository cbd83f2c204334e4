#include "core/trainer.h"

#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "core/parallel.h"
#include "obs/profiler.h"

namespace drlnoc::core {

rl::DqnParams standard_dqn(std::uint64_t total_env_steps, std::uint64_t seed) {
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

EpisodeResult evaluate(NocConfigEnv& env, Controller& controller,
                       bool keep_epochs) {
  obs::ScopedPhase prof(obs::Phase::kEvaluate);
  EpisodeResult out;
  out.controller = controller.name();
  controller.begin_episode();

  env.set_eval_mode(true);
  rl::State state = env.reset();
  noc::EpochStats stats = env.last_stats();
  const double core_freq = env.params().power.core_freq_ghz;

  double latency_weighted = 0.0;
  double power_time = 0.0;
  double edp_sum = 0.0;
  double time_sum = 0.0;
  std::uint64_t packets = 0, offered = 0;
  double node_cycles = 0.0;
  int epochs = 0;
  std::vector<double> tenant_latency_weighted;
  std::vector<std::uint64_t> tenant_measured;

  bool done = false;
  while (!done) {
    const int action = controller.decide(stats, state);
    const rl::StepResult r = env.step(action);
    stats = env.last_stats();
    state = r.next_state;
    done = r.done;

    out.total_reward += r.reward;
    latency_weighted +=
        stats.avg_latency * static_cast<double>(stats.packets_received);
    packets += stats.packets_received;
    offered += stats.packets_offered;
    power_time += stats.avg_power_mw(core_freq) * stats.core_cycles;
    time_sum += stats.core_cycles;
    edp_sum += stats.edp();
    node_cycles += stats.core_cycles *
                   static_cast<double>(env.params().net.width *
                                       env.params().net.height);
    out.p95_latency = std::max(out.p95_latency, stats.p95_latency);
    out.backlog_end = stats.source_queue_total;
    out.flits_dropped += stats.flits_dropped;
    out.retries += stats.retries;
    out.packets_lost += stats.packets_lost;
    out.rerouted_hops += stats.rerouted_hops;
    if (!stats.tenants.empty()) {
      out.tenants.resize(stats.tenants.size());
      tenant_latency_weighted.resize(stats.tenants.size(), 0.0);
      tenant_measured.resize(stats.tenants.size(), 0);
      const scenario::Scenario* scn = env.params().scenario.get();
      for (std::size_t i = 0; i < stats.tenants.size(); ++i) {
        const noc::TenantEpochStats& ts = stats.tenants[i];
        TenantEpisodeSummary& sum = out.tenants[i];
        sum.packets_offered += ts.packets_offered;
        sum.packets_received += ts.packets_received;
        sum.flits_ejected += ts.flits_ejected;
        sum.flits_dropped += ts.flits_dropped;
        sum.retries += ts.retries;
        sum.packets_lost += ts.packets_lost;
        sum.rerouted_hops += ts.rerouted_hops;
        sum.p95_latency = std::max(sum.p95_latency, ts.p95_latency);
        tenant_latency_weighted[i] +=
            ts.avg_latency * static_cast<double>(ts.packets_measured);
        tenant_measured[i] += ts.packets_measured;
        // SLO accounting against the scenario's declared target (if any) —
        // independent of whether the reward runs in QoS mode, so the
        // DRL-aggregate ablation reports hit rates too.
        const double target =
            scn && i < scn->tenants.size() ? scn->tenants[i].p95_target : 0.0;
        // An epoch counts when the tenant had traffic; starvation (offered
        // but nothing measured) is a miss, matching the reward path's
        // full-violation convention — only truly idle epochs are excused.
        if (target > 0.0 &&
            (ts.packets_measured > 0 || ts.packets_offered > 0)) {
          ++sum.slo_epochs;
          if (ts.packets_measured > 0 && ts.p95_latency <= target) {
            ++sum.slo_hits;
          }
        }
      }
    }
    if (keep_epochs) out.epochs.push_back(stats);
    out.actions.push_back(action);
    ++epochs;
  }

  env.set_eval_mode(false);
  out.mean_latency =
      packets > 0 ? latency_weighted / static_cast<double>(packets) : 0.0;
  out.mean_power_mw = time_sum > 0.0 ? power_time / time_sum : 0.0;
  out.mean_edp = epochs > 0 ? edp_sum / epochs : 0.0;
  out.offered_rate =
      node_cycles > 0.0 ? static_cast<double>(offered) / node_cycles : 0.0;
  out.accepted_rate =
      node_cycles > 0.0 ? static_cast<double>(packets) / node_cycles : 0.0;
  for (std::size_t i = 0; i < out.tenants.size(); ++i) {
    TenantEpisodeSummary& sum = out.tenants[i];
    sum.mean_latency =
        tenant_measured[i] > 0
            ? tenant_latency_weighted[i] /
                  static_cast<double>(tenant_measured[i])
            : 0.0;
    sum.accepted_rate =
        node_cycles > 0.0
            ? static_cast<double>(sum.packets_received) / node_cycles
            : 0.0;
    sum.slo_hit_rate =
        sum.slo_epochs > 0 ? static_cast<double>(sum.slo_hits) /
                                 static_cast<double>(sum.slo_epochs)
                           : 1.0;
  }
  return out;
}

TrainResult train_dqn(NocConfigEnv& env, rl::DqnAgent& agent,
                      const TrainParams& params) {
  TrainResult result;
  for (int ep = 0; ep < params.episodes; ++ep) {
    rl::State state = env.reset();
    double ep_return = 0.0;
    double loss_sum = 0.0;
    int loss_count = 0;
    bool done = false;
    while (!done) {
      int action;
      {
        obs::ScopedPhase rollout(obs::Phase::kRollout);
        action = agent.act(state);
      }
      rl::StepResult r;
      {
        obs::ScopedPhase env_step(obs::Phase::kEnvStep);
        r = env.step(action);
      }
      rl::Transition t;
      t.state = state;
      t.action = action;
      t.reward = r.reward;
      t.next_state = r.next_state;
      t.done = r.done;
      {
        obs::ScopedPhase learn(obs::Phase::kLearn);
        if (const auto loss = agent.observe(t)) {
          loss_sum += *loss;
          ++loss_count;
        }
      }
      ep_return += r.reward;
      state = r.next_state;
      done = r.done;
    }
    result.episode_returns.push_back(ep_return);
    result.episode_loss.push_back(loss_count ? loss_sum / loss_count : 0.0);

    if (params.eval_every > 0 && (ep + 1) % params.eval_every == 0) {
      DrlController greedy(env, agent.policy());
      const EpisodeResult eval = evaluate(env, greedy);
      result.eval_rewards.push_back(eval.total_reward);
      result.eval_episodes.push_back(ep + 1);
    }
  }
  return result;
}

TrainResult train_dqn_parallel(const NocEnvParams& base, rl::DqnAgent& agent,
                               const ParallelTrainParams& params) {
  if (params.episodes < 0) {
    throw std::invalid_argument("train_dqn_parallel: episodes must be >= 0");
  }
  if (params.round < 1) {
    throw std::invalid_argument("train_dqn_parallel: round must be >= 1");
  }
  TrainResult result;
  if (params.episodes == 0) return result;

  const NocEnvParams calibrated = with_calibrated_power_ref(base);
  const int max_lanes = std::min(params.round, params.episodes);
  const ExperimentRunner runner(params.actors);

  // Lane environments persist across rounds; seek_episode() re-pins each
  // onto the serial per-episode seed stream before every reset, so lane l
  // of round r replays exactly the traffic a serial trainer would see on
  // episode r*round + l.
  std::vector<std::unique_ptr<NocConfigEnv>> envs;
  envs.reserve(static_cast<std::size_t>(max_lanes));
  for (int l = 0; l < max_lanes; ++l) {
    envs.push_back(std::make_unique<NocConfigEnv>(calibrated));
  }
  NocConfigEnv eval_env(calibrated);

  const int steps = calibrated.epochs_per_episode;
  const int num_actions = envs[0]->num_actions();
  std::vector<rl::State> states(static_cast<std::size_t>(max_lanes));
  std::vector<std::vector<rl::Transition>> collected(
      static_cast<std::size_t>(max_lanes));
  std::vector<double> returns(static_cast<std::size_t>(max_lanes), 0.0);
  std::vector<util::Rng> lane_rng;
  nn::Matrix batch_states;
  std::vector<int> greedy_actions;
  std::vector<int> actions(static_cast<std::size_t>(max_lanes), 0);

  const int rounds = (params.episodes + params.round - 1) / params.round;
  for (int r = 0; r < rounds; ++r) {
    const int first = r * params.round;
    const int lanes = std::min(params.round, params.episodes - first);

    // Episode resets simulate a warm-up epoch each, so they fan out too.
    runner.for_each(lanes, [&](int l) {
      envs[l]->seek_episode(first + l);
      states[l] = envs[l]->reset();
    });
    lane_rng.clear();
    for (int l = 0; l < lanes; ++l) {
      // Per-episode exploration sub-seed: a pure function of the global
      // episode index, so the exploration sequence is independent of both
      // the actor count and the round size a lane happens to land in.
      lane_rng.emplace_back(agent.params().seed +
                            0x9e3779b97f4a7c15ULL *
                                (static_cast<std::uint64_t>(first + l) + 1));
      collected[l].clear();
      returns[l] = 0.0;
    }

    for (int s = 0; s < steps; ++s) {
      {
        // ONE batched forward selects greedy actions for every lane — the
        // workspace MLP turns N per-lane matmuls into one N-row matmul.
        // Greedy values are computed for exploring lanes too: the forward
        // consumes no randomness, so it cannot perturb determinism.
        obs::ScopedPhase rollout(obs::Phase::kRollout);
        batch_states.resize_fast(static_cast<std::size_t>(lanes),
                                 states[0].size());
        for (int l = 0; l < lanes; ++l) batch_states.set_row(l, states[l]);
        agent.act_greedy_batch(batch_states, greedy_actions);
        for (int l = 0; l < lanes; ++l) {
          // Epsilon at the lane's GLOBAL step index — fixed-length episodes
          // make the serial step count a closed form — with the draw order
          // of DqnAgent::act (chance, then below only when exploring).
          const std::uint64_t global_step =
              static_cast<std::uint64_t>(first + l) *
                  static_cast<std::uint64_t>(steps) +
              static_cast<std::uint64_t>(s);
          const double eps = agent.epsilon_at(global_step);
          actions[l] =
              lane_rng[l].chance(eps)
                  ? static_cast<int>(lane_rng[l].below(
                        static_cast<std::uint64_t>(num_actions)))
                  : greedy_actions[l];
        }
      }
      runner.for_each(lanes, [&](int l) {
        obs::ScopedPhase env_step(obs::Phase::kEnvStep);
        const rl::StepResult sr = envs[l]->step(actions[l]);
        rl::Transition t;
        t.state = states[l];
        t.action = actions[l];
        t.reward = sr.reward;
        t.next_state = sr.next_state;
        t.done = sr.done;
        collected[l].push_back(std::move(t));
        returns[l] += sr.reward;
        states[l] = sr.next_state;
      });
    }

    // Deterministic merge: transitions drain step-major / lane-minor, the
    // fixed round-robin order the design doc pins. Learn steps fire inside
    // observe() exactly as in serial training; the online net was frozen
    // through the rollout above, so which thread stepped which lane can
    // never leak into the weights.
    std::vector<double> loss_sum(static_cast<std::size_t>(lanes), 0.0);
    std::vector<int> loss_count(static_cast<std::size_t>(lanes), 0);
    {
      obs::ScopedPhase learn(obs::Phase::kLearn);
      for (int s = 0; s < steps; ++s) {
        for (int l = 0; l < lanes; ++l) {
          if (const auto loss = agent.observe(collected[l][s])) {
            loss_sum[l] += *loss;
            ++loss_count[l];
          }
        }
      }
    }
    for (int l = 0; l < lanes; ++l) {
      result.episode_returns.push_back(returns[l]);
      result.episode_loss.push_back(
          loss_count[l] ? loss_sum[l] / loss_count[l] : 0.0);
    }

    // Greedy evals at the same global-episode milestones as the serial
    // trainer, run after the round's drain so they see the updated policy.
    if (params.eval_every > 0) {
      for (int l = 0; l < lanes; ++l) {
        const int g = first + l;
        if ((g + 1) % params.eval_every != 0) continue;
        DrlController greedy(eval_env, agent.policy());
        const EpisodeResult eval = evaluate(eval_env, greedy);
        result.eval_rewards.push_back(eval.total_reward);
        result.eval_episodes.push_back(g + 1);
        if (params.verbose) {
          std::cout << "episode " << g + 1 << " return=" << returns[l]
                    << " eval=" << eval.total_reward
                    << " eps=" << agent.epsilon() << '\n';
        }
      }
    }
  }
  return result;
}

}  // namespace drlnoc::core
