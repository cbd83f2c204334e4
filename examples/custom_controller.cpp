// Example: plugging a user-defined controller into the evaluation harness.
// Implements a simple "clairvoyant schedule" controller (switches on a fixed
// timetable) and compares it with the built-in heuristic and statics —
// demonstrating the Controller extension point of the public API.
#include <iostream>

#include "core/controller.h"
#include "core/env_noc.h"
#include "core/trainer.h"
#include "util/cli.h"
#include "util/config.h"
#include "util/table.h"

using namespace drlnoc;

namespace {

// A controller that escalates when the epoch's p95 latency exceeds a budget
// and de-escalates when it is far below — a latency-SLO controller, a shape
// the Controller interface supports but the library does not ship.
class SloController : public core::Controller {
 public:
  SloController(const core::ActionSpace& space, double p95_budget)
      : space_(space), budget_(p95_budget) {}

  std::string name() const override { return "slo-p95"; }

  void begin_episode() override { action_ = space_.max_action(); }

  int decide(const noc::EpochStats& stats, const rl::State&) override {
    const noc::NocConfig cur = space_.decode(action_);
    noc::NocConfig next = cur;
    if (stats.p95_latency > budget_ || stats.source_queue_total > 32) {
      next.dvfs_level = std::min(next.dvfs_level + 1, 3);
      next.active_vcs = 4;
      next.active_depth = 8;
    } else if (stats.p95_latency < 0.3 * budget_) {
      // Cheap knobs first, then the clock.
      if (next.active_depth > 2) next.active_depth /= 2;
      else if (next.active_vcs > 1) next.active_vcs /= 2;
      else if (next.dvfs_level > 0) --next.dvfs_level;
    }
    action_ = space_.index_of(next);
    return action_;
  }

 private:
  const core::ActionSpace& space_;
  double budget_;
  int action_ = 0;
};

}  // namespace

int run(const util::Config& cfg) {

  core::NocEnvParams ep;
  ep.net.width = ep.net.height = cfg.get("size", 4);
  const double p95_budget = cfg.get("p95_budget", 120.0);
  util::reject_unknown_args(cfg);
  ep.net.seed = 11;
  ep.epoch_cycles = 512;
  ep.epochs_per_episode = 48;
  core::NocConfigEnv env(ep);

  SloController slo(env.actions(), p95_budget);
  core::HeuristicParams hp;
  hp.num_nodes = env.params().net.width * env.params().net.height;
  core::HeuristicController heuristic(env.actions(), hp);
  auto smax = core::StaticController::maximal(env.actions());
  auto smin = core::StaticController::minimal(env.actions());

  util::Table t({"controller", "reward", "latency", "p95", "power_mW",
                 "backlog"});
  for (core::Controller* c :
       std::initializer_list<core::Controller*>{&slo, &heuristic, smax.get(),
                                                smin.get()}) {
    const auto r = core::evaluate(env, *c);
    t.row()
        .cell(r.controller)
        .cell(r.total_reward, 2)
        .cell(r.mean_latency, 1)
        .cell(r.p95_latency, 1)
        .cell(r.mean_power_mw, 1)
        .cell(static_cast<long long>(r.backlog_end));
  }
  t.print(std::cout);
  std::cout << "\nWriting a controller = subclass core::Controller and "
               "override decide(); evaluate() handles the rest.\n";
  return 0;
}

int main(int argc, char** argv) { return util::run_cli(argc, argv, run); }
