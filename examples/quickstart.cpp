// Quickstart: build an 8x8 mesh NoC, run uniform traffic, print the basic
// statistics — then let a tiny DQN agent self-configure it on a phased
// workload and compare against the static worst-case configuration.
//
//   ./build/examples/quickstart            # defaults
//   ./build/examples/quickstart episodes=8 # trains a little longer
#include <iostream>

#include "core/env_noc.h"
#include "core/trainer.h"
#include "noc/simulator.h"
#include "util/config.h"

using namespace drlnoc;

int main(int argc, char** argv) {
  const util::Config cfg = util::Config::from_args(argc, argv);

  // --- 1. plain simulation -------------------------------------------------
  noc::NetworkParams np;
  np.topology = "mesh";
  np.width = np.height = 8;
  np.seed = 42;

  std::cout << "== steady-state simulation: 8x8 mesh, uniform 0.10 ==\n";
  const auto point = noc::measure_point(np, "uniform", 0.10);
  std::cout << "avg latency  : " << point.stats.avg_latency
            << " core cycles\np95 latency  : " << point.stats.p95_latency
            << "\naccepted rate: " << point.stats.accepted_rate
            << " pkt/node/cycle\navg power    : "
            << point.stats.avg_power_mw(2.0) << " mW\n\n";

  // --- 2. DRL self-configuration ------------------------------------------
  core::NocEnvParams ep;
  ep.net = np;
  ep.net.width = ep.net.height = cfg.get("size", 4);  // small & quick
  ep.epoch_cycles = 512;
  ep.epochs_per_episode = 24;

  core::NocConfigEnv env(ep);
  const int episodes = cfg.get("episodes", 40);
  rl::DqnParams dp;
  dp.hidden = {32, 32};
  dp.min_replay = 128;
  dp.epsilon_decay_steps =
      static_cast<std::uint64_t>(episodes) * 24 * 3 / 4;
  rl::DqnAgent agent(env.state_size(), env.num_actions(), dp);

  std::cout << "== training DQN self-configuration (" << episodes
            << " episodes) ==\n";
  core::TrainParams tp;
  tp.episodes = episodes;
  tp.eval_every = 0;
  const auto train = core::train_dqn(env, agent, tp);
  std::cout << "first episode return: " << train.episode_returns.front()
            << "\nlast episode return : " << train.episode_returns.back()
            << "\n\n";

  // --- 3. compare against static-max ---------------------------------------
  core::DrlController drl(env, agent.policy());
  auto stat = core::StaticController::maximal(env.actions());
  const auto drl_result = core::evaluate(env, drl);
  const auto max_result = core::evaluate(env, *stat);
  std::cout << "== greedy DRL vs static-max (one episode) ==\n";
  std::cout << "DRL    : latency=" << drl_result.mean_latency
            << " power=" << drl_result.mean_power_mw
            << "mW reward=" << drl_result.total_reward << '\n';
  std::cout << "static : latency=" << max_result.mean_latency
            << " power=" << max_result.mean_power_mw
            << "mW reward=" << max_result.total_reward << '\n';
  return 0;
}
