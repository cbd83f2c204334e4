// Example: build a custom phased workload (the motivating scenario of the
// paper — applications with distinct traffic phases), train a DRL controller
// on it, and print the configuration it chooses in each phase.
//
//   ./build/examples/phased_workload
//   ./build/examples/phased_workload episodes=200 size=8
#include <iostream>
#include <memory>
#include <vector>

#include "core/env_noc.h"
#include "core/trainer.h"
#include "rl/dqn.h"
#include "scenario/scenario.h"
#include "util/config.h"
#include "util/table.h"

using namespace drlnoc;

int main(int argc, char** argv) {
  const util::Config cfg = util::Config::from_args(argc, argv);
  const int size = cfg.get("size", 4);
  const int episodes = cfg.get("episodes", 120);

  // A hand-written application profile: long idle stretches, a compute
  // phase with all-to-all (uniform) communication, a reduction phase that
  // hammers one node (hotspot), and a stencil-like neighbor phase.
  core::NocEnvParams ep;
  ep.net.width = ep.net.height = size;
  ep.net.seed = 7;
  const std::vector<noc::Phase> profile = {
      {"uniform", 0.002, 5e3, "bernoulli"},   // idle / barrier wait
      {"uniform", 0.09, 5e3, "bernoulli"},    // all-to-all compute
      {"hotspot", 0.04, 5e3, "burst"},        // bursty reduction
      {"neighbor", 0.10, 5e3, "bernoulli"},   // stencil exchange
  };
  ep.scenario = std::make_shared<scenario::Scenario>(
      scenario::phased_scenario(ep.net, profile));
  ep.epoch_cycles = 512;
  ep.epochs_per_episode = 44;
  core::NocConfigEnv env(ep);

  std::cout << "training DQN on the custom 4-phase application profile ("
            << episodes << " episodes, " << size << "x" << size
            << " mesh)...\n";
  rl::DqnParams dp;
  dp.epsilon_decay_steps =
      static_cast<std::uint64_t>(episodes) * 44 * 3 / 4;
  rl::DqnAgent agent(env.state_size(), env.num_actions(), dp);
  core::TrainParams tp;
  tp.episodes = episodes;
  tp.eval_every = 0;
  core::train_dqn(env, agent, tp);

  core::DrlController drl(env, agent.policy());
  const auto result = core::evaluate(env, drl, /*keep_epochs=*/true);

  // Aggregate the chosen configuration per load regime.
  struct Bucket {
    const char* label;
    double lo, hi;
    double vcs = 0, depth = 0, dvfs = 0, power = 0, lat = 0;
    int n = 0;
  };
  std::vector<Bucket> buckets = {
      {"idle (<0.01)", 0.0, 0.01},
      {"moderate (0.01-0.06)", 0.01, 0.06},
      {"heavy (>0.06)", 0.06, 10.0},
  };
  for (const auto& s : result.epochs) {
    for (auto& b : buckets) {
      if (s.offered_rate >= b.lo && s.offered_rate < b.hi) {
        b.vcs += s.config.active_vcs;
        b.depth += s.config.active_depth;
        b.dvfs += s.config.dvfs_level;
        b.power += s.avg_power_mw(2.0);
        b.lat += s.avg_latency;
        ++b.n;
      }
    }
  }

  util::Table t({"load regime", "epochs", "mean_vcs", "mean_depth",
                 "mean_dvfs", "mean_power_mW", "mean_latency"});
  for (const auto& b : buckets) {
    if (b.n == 0) continue;
    t.row()
        .cell(b.label)
        .cell(static_cast<long long>(b.n))
        .cell(b.vcs / b.n, 2)
        .cell(b.depth / b.n, 2)
        .cell(b.dvfs / b.n, 2)
        .cell(b.power / b.n, 1)
        .cell(b.lat / b.n, 1);
  }
  std::cout << '\n';
  t.print(std::cout);
  std::cout << "\nepisode reward: " << result.total_reward
            << ", mean power: " << result.mean_power_mw << " mW\n"
            << "A well-trained controller provisions less in the idle "
               "regime than in the heavy one.\n";
  return 0;
}
