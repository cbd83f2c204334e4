// F3: the DQN learning curve on the standard phased workload — training
// return and mean TD loss per episode, with periodic greedy evaluations.
// Expected shape: return rises from the random-policy level and plateaus
// near (or above) the best static configuration's return.
#include <iostream>

#include "bench_common.h"
#include "util/config.h"

using namespace drlnoc;

int main(int argc, char** argv) {
  const util::Config cfg = util::Config::from_args(argc, argv);
  const int episodes = cfg.get("episodes", 150);

  core::NocEnvParams ep;
  ep.net.width = ep.net.height = cfg.get("size", 4);
  ep.net.seed = 42;
  ep.epoch_cycles = 512;
  ep.epochs_per_episode = 48;
  core::NocConfigEnv env(ep);

  std::cout << "F3: DQN learning curve (mesh " << ep.net.width << "x"
            << ep.net.height << ", standard phased workload, " << episodes
            << " episodes)\n"
            << "power_ref = " << env.power_ref_mw() << " mW\n\n";

  const auto steps = static_cast<std::uint64_t>(episodes) * 48;
  rl::DqnAgent agent(env.state_size(), env.num_actions(),
                     bench::standard_dqn(steps));
  core::TrainParams tp;
  tp.episodes = episodes;
  tp.eval_every = 10;
  const core::TrainResult tr = core::train_dqn(env, agent, tp);

  util::Table t({"episode", "return(ma5)", "td_loss", "greedy_eval"});
  std::size_t eval_idx = 0;
  for (std::size_t i = 0; i < tr.episode_returns.size(); ++i) {
    if ((i + 1) % 10 != 0) continue;
    // 5-episode moving average of the training return.
    double ma = 0.0;
    int n = 0;
    for (std::size_t j = i >= 4 ? i - 4 : 0; j <= i; ++j, ++n) {
      ma += tr.episode_returns[j];
    }
    ma /= n;
    std::string eval = "-";
    if (eval_idx < tr.eval_episodes.size() &&
        static_cast<std::size_t>(tr.eval_episodes[eval_idx]) == i + 1) {
      eval = util::fmt(tr.eval_rewards[eval_idx], 2);
      ++eval_idx;
    }
    t.row()
        .cell(static_cast<long long>(i + 1))
        .cell(ma, 2)
        .cell(tr.episode_loss[i], 4)
        .cell(eval);
  }
  t.print(std::cout);

  // Reference lines: the static extremes and the oracle.
  auto smax = core::StaticController::maximal(env.actions());
  auto smin = core::StaticController::minimal(env.actions());
  const auto rx = core::evaluate(env, *smax);
  const auto rn = core::evaluate(env, *smin);
  const auto sweep = core::sweep_static_parallel(
      env.params(), core::ExperimentRunner(cfg.get("jobs", 0)));
  core::DrlController drl(env, agent.policy());
  const auto rd = core::evaluate(env, drl);
  std::cout << "\nreference returns:  static-max " << util::fmt(rx.total_reward, 2)
            << "   static-min " << util::fmt(rn.total_reward, 2)
            << "   oracle-static " << util::fmt(sweep[0].total_reward, 2)
            << " (" << sweep[0].controller << ")"
            << "\nfinal greedy DRL:   " << util::fmt(rd.total_reward, 2)
            << "\nshape check: curve rises and plateaus; final DRL beats "
               "static-max and approaches/beats oracle-static.\n";
  return 0;
}
