// F1: load-latency on an 8x8 mesh under uniform traffic.
// Part A (substrate): the classic VC sensitivity — the saturation knee moves
// right as VCs increase. Part B (controllers): a DRL agent trained on a
// load-ladder workload matches static-max latency below saturation while
// spending less power, and avoids static-min's early collapse.
//
// Every measured point is an independent simulation, so the whole figure
// fans out over the experiment engine; pass --jobs N to bound the worker
// count (results are identical at any N).
#include <iostream>

#include "bench_common.h"
#include "noc/simulator.h"
#include "util/cli.h"
#include "util/config.h"

using namespace drlnoc;

int run(const util::Config& cfg) {
  const int size = cfg.get("size", 8);
  const int episodes = cfg.get("episodes", 60);
  const core::ExperimentRunner runner(cfg.get("jobs", 0));
  util::reject_unknown_args(cfg);

  std::cout << "F1: load-latency, " << size << "x" << size
            << " mesh, uniform traffic (jobs=" << runner.jobs() << ")\n\n";

  // ---- Part A: VC sensitivity (pure substrate) ----------------------------
  std::cout << "Part A: average latency vs offered load per VC count\n";
  const std::vector<int> vc_options = {1, 2, 4};
  std::vector<double> rates;
  for (double rate = 0.02; rate <= 0.145; rate += 0.02) rates.push_back(rate);

  std::vector<noc::SweepPoint> points;
  for (double rate : rates) {
    for (int vcs : vc_options) {
      noc::SweepPoint pt;
      pt.net.width = pt.net.height = size;
      pt.net.seed = 11;
      pt.net.initial_config = {vcs, 8, 3};
      pt.pattern = "uniform";
      pt.rate = rate;
      pt.run.warmup_cycles = 1500;
      pt.run.measure_cycles = 4000;
      pt.run.drain_limit = 40000;
      points.push_back(pt);
    }
  }
  const auto part_a = noc::measure_points(points, runner.jobs());

  util::Table a({"offered", "lat_vc1", "lat_vc2", "lat_vc4"});
  for (std::size_t r = 0; r < rates.size(); ++r) {
    util::Table& row = a.row();
    row.cell(rates[r], 3);
    for (std::size_t v = 0; v < vc_options.size(); ++v) {
      const auto& res = part_a[r * vc_options.size() + v];
      row.cell(res.saturated ? 9999.0 : res.stats.avg_latency, 1);
    }
  }
  a.print(std::cout);
  std::cout << "(9999 marks saturation)\n\n";

  // The knee shift is easiest to read off the saturation throughput: the
  // accepted rate under deep overload grows with the VC count.
  std::cout << "saturation throughput (accepted pkt/node/cycle @ offered "
               "0.30):\n";
  std::vector<noc::SweepPoint> sat_points;
  for (int vcs : vc_options) {
    noc::SweepPoint pt;
    pt.net.width = pt.net.height = size;
    pt.net.seed = 13;
    pt.net.initial_config = {vcs, 8, 3};
    pt.pattern = "uniform";
    pt.rate = 0.30;
    pt.run.warmup_cycles = 2000;
    pt.run.measure_cycles = 4000;
    pt.run.drain_limit = 1;  // no need to drain a deeply saturated network
    sat_points.push_back(pt);
  }
  const auto sat_res = noc::measure_points(sat_points, runner.jobs());
  util::Table sat({"vcs", "sat_throughput"});
  for (std::size_t v = 0; v < vc_options.size(); ++v) {
    sat.row()
        .cell(static_cast<long long>(vc_options[v]))
        .cell(sat_res[v].stats.accepted_rate, 4);
  }
  sat.print(std::cout);
  std::cout << '\n';

  // ---- Part B: controllers across the load range --------------------------
  std::cout << "Part B: DRL vs static configurations (latency | power mW)\n";
  // Train on a ladder of uniform loads so the agent sees the whole range.
  core::NocEnvParams train_ep;
  train_ep.net.width = train_ep.net.height = size;
  train_ep.net.seed = 21;
  train_ep.scenario = std::make_shared<scenario::Scenario>(
      scenario::phased_scenario(train_ep.net,
                                {{"uniform", 0.01, 4e3, "bernoulli"},
                                 {"uniform", 0.04, 4e3, "bernoulli"},
                                 {"uniform", 0.07, 4e3, "bernoulli"},
                                 {"uniform", 0.10, 4e3, "bernoulli"}}));
  train_ep.epoch_cycles = 512;
  train_ep.epochs_per_episode = 32;
  core::NocConfigEnv train_env(train_ep);
  auto agent = bench::train_agent(train_env, episodes);
  const double power_ref = train_env.power_ref_mw();

  // One task per offered rate: each evaluates the three controllers against
  // its own private environments, with its own copy of the trained network.
  struct RateRow {
    core::EpisodeResult drl, smax, smin;
  };
  const std::vector<double> eval_rates = {0.02, 0.05, 0.08, 0.11};
  const auto part_b = runner.map<RateRow>(
      static_cast<int>(eval_rates.size()), [&](int i) {
        core::NocEnvParams ep = train_ep;
        ep.scenario = std::make_shared<scenario::Scenario>(
            scenario::phased_scenario(
                ep.net, {{"uniform", eval_rates[static_cast<std::size_t>(i)],
                          1e6, "bernoulli"}}));
        ep.epochs_per_episode = 20;
        ep.reward.power_ref_mw = power_ref;
        core::NocConfigEnv env(ep);
        core::DrlController drl(env, agent->policy());
        auto smax = core::StaticController::maximal(env.actions());
        auto smin = core::StaticController::minimal(env.actions());
        RateRow row;
        row.drl = core::evaluate(env, drl);
        row.smax = core::evaluate(env, *smax);
        row.smin = core::evaluate(env, *smin);
        return row;
      });

  util::Table b({"offered", "drl_lat", "drl_mW", "max_lat", "max_mW",
                 "min_lat", "min_mW"});
  for (std::size_t i = 0; i < eval_rates.size(); ++i) {
    const RateRow& r = part_b[i];
    b.row()
        .cell(eval_rates[i], 2)
        .cell(r.drl.mean_latency, 1)
        .cell(r.drl.mean_power_mw, 1)
        .cell(r.smax.mean_latency, 1)
        .cell(r.smax.mean_power_mw, 1)
        .cell(r.smin.mean_latency, 1)
        .cell(r.smin.mean_power_mw, 1);
  }
  b.print(std::cout);
  std::cout << "\nshape check: knee moves right with VCs; DRL tracks "
               "static-max latency at lower power; static-min collapses "
               "first.\n";
  return 0;
}

int main(int argc, char** argv) { return util::run_cli(argc, argv, run); }
