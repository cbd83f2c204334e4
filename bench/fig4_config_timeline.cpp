// F4: self-configuration in action — the configuration a trained agent picks
// at every epoch across the phased workload, next to the load it observed.
// Expected shape: minimal resources + low DVFS during the idle phase,
// escalation (VCs/depth up, DVFS up) on the moderate/burst phases, and
// relaxation afterwards.
#include <iostream>

#include "bench_common.h"
#include "util/cli.h"
#include "util/config.h"

using namespace drlnoc;

int run(const util::Config& cfg) {
  const int episodes = cfg.get("episodes", 150);

  core::NocEnvParams ep;
  ep.net.width = ep.net.height = cfg.get("size", 4);
  util::reject_unknown_args(cfg);
  ep.net.seed = 42;
  ep.epoch_cycles = 512;
  ep.epochs_per_episode = 48;
  core::NocConfigEnv env(ep);

  std::cout << "F4: configuration timeline (trained DRL, standard 4-phase "
               "workload: idle -> uniform 0.08 -> hotspot burst -> "
               "structured 0.06)\n\n";

  auto agent = bench::train_agent(env, episodes);
  core::DrlController drl(env, agent->policy());
  const auto result = core::evaluate(env, drl, /*keep_epochs=*/true);

  util::Table t({"epoch", "offered", "accepted", "latency", "occup",
                 "backlog", "vcs", "depth", "dvfs", "power_mW"});
  for (std::size_t i = 0; i < result.epochs.size(); ++i) {
    const auto& s = result.epochs[i];
    t.row()
        .cell(static_cast<long long>(i))
        .cell(s.offered_rate, 3)
        .cell(s.accepted_rate, 3)
        .cell(s.avg_latency, 1)
        .cell(s.avg_buffer_occupancy, 2)
        .cell(static_cast<long long>(s.source_queue_total))
        .cell(static_cast<long long>(s.config.active_vcs))
        .cell(static_cast<long long>(s.config.active_depth))
        .cell(static_cast<long long>(s.config.dvfs_level))
        .cell(s.avg_power_mw(2.0), 1);
  }
  t.print(std::cout);

  // Aggregate the chosen DVFS level per workload intensity bucket.
  double idle_dvfs = 0.0, busy_dvfs = 0.0;
  int idle_n = 0, busy_n = 0;
  for (const auto& s : result.epochs) {
    if (s.offered_rate < 0.02) {
      idle_dvfs += s.config.dvfs_level;
      ++idle_n;
    } else if (s.offered_rate > 0.05) {
      busy_dvfs += s.config.dvfs_level;
      ++busy_n;
    }
  }
  if (idle_n && busy_n) {
    std::cout << "\nmean DVFS level: idle epochs "
              << util::fmt(idle_dvfs / idle_n, 2) << " vs busy epochs "
              << util::fmt(busy_dvfs / busy_n, 2)
              << "\nshape check: busy-phase capability >= idle-phase "
                 "capability; no persistent backlog.\n";
  }
  return 0;
}

int main(int argc, char** argv) { return util::run_cli(argc, argv, run); }
