// T1: per-pattern power & EDP savings of DRL self-configuration vs the
// static worst-case configuration, and the latency penalty vs static-min.
// One agent is trained on a pattern-mixed workload, then evaluated on each
// pattern separately.
// Expected shape: double-digit power savings vs static-max at small latency
// cost; static-min's latency is orders of magnitude worse.
#include <iostream>

#include "bench_common.h"
#include "util/cli.h"
#include "util/config.h"

using namespace drlnoc;

int run(const util::Config& cfg) {
  const int episodes = cfg.get("episodes", 150);
  const int size = cfg.get("size", 4);
  const double rate = cfg.get("rate", 0.06);
  util::reject_unknown_args(cfg);

  // Train on a mix so the agent generalizes across spatial patterns. Each
  // phase alternates with an idle window (the saving opportunity).
  core::NocEnvParams ep;
  ep.net.width = ep.net.height = size;
  ep.net.seed = 42;
  ep.epoch_cycles = 512;
  ep.epochs_per_episode = 48;
  ep.scenario = std::make_shared<scenario::Scenario>(
      scenario::phased_scenario(ep.net,
                                {{"uniform", 0.005, 4e3, "bernoulli"},
                                 {"uniform", rate, 4e3, "bernoulli"},
                                 {"transpose", rate, 4e3, "bernoulli"},
                                 {"hotspot", rate * 0.8, 4e3, "burst"},
                                 {"bitcomp", rate, 4e3, "bernoulli"}}));
  core::NocConfigEnv train_env(ep);
  auto agent = bench::train_agent(train_env, episodes);
  const double power_ref = train_env.power_ref_mw();

  std::cout << "T1: power & EDP savings per traffic pattern (mesh " << size
            << "x" << size << ", rate " << rate << ")\n\n";
  util::Table t({"pattern", "drl_lat", "max_lat", "min_lat", "drl_mW",
                 "max_mW", "power_save%", "drl_reward", "max_reward",
                 "min_lat_penalty_x"});

  for (const char* pattern : {"uniform", "transpose", "bitcomp", "hotspot"}) {
    core::NocEnvParams eval_ep = ep;
    // Alternate the pattern with idle windows: self-configuration's value
    // is exactly in riding that variation.
    eval_ep.scenario = std::make_shared<scenario::Scenario>(
        scenario::phased_scenario(eval_ep.net,
                                  {{"uniform", 0.005, 4e3, "bernoulli"},
                                   {pattern, rate, 4e3, "bernoulli"}}));
    eval_ep.reward.power_ref_mw = power_ref;
    core::NocConfigEnv env(eval_ep);

    core::DrlController drl(env, agent->policy());
    auto smax = core::StaticController::maximal(env.actions());
    auto smin = core::StaticController::minimal(env.actions());
    const auto rd = core::evaluate(env, drl);
    const auto rx = core::evaluate(env, *smax);
    const auto rn = core::evaluate(env, *smin);

    const double power_save =
        100.0 * (1.0 - rd.mean_power_mw / rx.mean_power_mw);
    const double min_penalty =
        rn.mean_latency / std::max(1.0, rd.mean_latency);
    t.row()
        .cell(pattern)
        .cell(rd.mean_latency, 1)
        .cell(rx.mean_latency, 1)
        .cell(rn.mean_latency, 1)
        .cell(rd.mean_power_mw, 1)
        .cell(rx.mean_power_mw, 1)
        .cell(power_save, 1)
        .cell(rd.total_reward, 1)
        .cell(rx.total_reward, 1)
        .cell(min_penalty, 1);
  }
  t.print(std::cout);
  std::cout << "\nshape check: positive double-digit power savings and a "
               "better reward than static-max on every pattern (the reward "
               "tolerates a bounded latency increase in exchange); "
               "static-min latency penalty >> 1x.\n";
  return 0;
}

int main(int argc, char** argv) { return util::run_cli(argc, argv, run); }
