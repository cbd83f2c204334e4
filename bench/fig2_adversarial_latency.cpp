// F2: controller behaviour under adversarial spatial patterns (transpose,
// hotspot) across the load range, including the heuristic baseline.
// Expected shape: same ordering as F1 but with earlier saturation; DRL keeps
// tracking static-max latency and stays ahead of the heuristic on power.
#include <iostream>

#include "bench_common.h"
#include "util/cli.h"
#include "util/config.h"

using namespace drlnoc;

int run(const util::Config& cfg) {
  const int episodes = cfg.get("episodes", 120);
  const int size = cfg.get("size", 4);
  util::reject_unknown_args(cfg);

  // Train once on a pattern-and-load ladder.
  core::NocEnvParams train_ep;
  train_ep.net.width = train_ep.net.height = size;
  train_ep.net.seed = 33;
  train_ep.epoch_cycles = 512;
  train_ep.epochs_per_episode = 36;
  train_ep.scenario = std::make_shared<scenario::Scenario>(
      scenario::phased_scenario(train_ep.net,
                                {{"transpose", 0.02, 4e3, "bernoulli"},
                                 {"transpose", 0.08, 4e3, "bernoulli"},
                                 {"hotspot", 0.03, 4e3, "burst"},
                                 {"hotspot", 0.07, 4e3, "burst"},
                                 {"uniform", 0.005, 4e3, "bernoulli"}}));
  core::NocConfigEnv train_env(train_ep);
  auto agent = bench::train_agent(train_env, episodes);
  const double power_ref = train_env.power_ref_mw();

  std::cout << "F2: adversarial-pattern latency (mesh " << size << "x" << size
            << ")\n\n";

  for (const char* pattern : {"transpose", "hotspot"}) {
    std::cout << "pattern: " << pattern << "\n";
    util::Table t({"offered", "drl_lat", "drl_mW", "heur_lat", "heur_mW",
                   "max_lat", "max_mW", "min_lat"});
    for (double rate : {0.02, 0.05, 0.08}) {
      core::NocEnvParams ep = train_ep;
      ep.scenario = std::make_shared<scenario::Scenario>(
          scenario::phased_scenario(
              ep.net, {{pattern, rate, 1e6,
                        std::string(pattern) == "hotspot" ? "burst"
                                                          : "bernoulli"}}));
      ep.epochs_per_episode = 20;
      ep.reward.power_ref_mw = power_ref;
      core::NocConfigEnv env(ep);

      core::DrlController drl(env, agent->policy());
      core::HeuristicParams hp;
      hp.num_nodes = size * size;
      core::HeuristicController heuristic(env.actions(), hp);
      auto smax = core::StaticController::maximal(env.actions());
      auto smin = core::StaticController::minimal(env.actions());

      const auto rd = core::evaluate(env, drl);
      const auto rh = core::evaluate(env, heuristic);
      const auto rx = core::evaluate(env, *smax);
      const auto rn = core::evaluate(env, *smin);
      t.row()
          .cell(rate, 2)
          .cell(rd.mean_latency, 1)
          .cell(rd.mean_power_mw, 1)
          .cell(rh.mean_latency, 1)
          .cell(rh.mean_power_mw, 1)
          .cell(rx.mean_latency, 1)
          .cell(rx.mean_power_mw, 1)
          .cell(rn.mean_latency, 1);
    }
    t.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "shape check: DRL latency ~ static-max at lower power; "
               "heuristic lags on power or latency; static-min saturates "
               "first.\n";
  return 0;
}

int main(int argc, char** argv) { return util::run_cli(argc, argv, run); }
