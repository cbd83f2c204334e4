// T3: agent & reward ablation on the standard phased workload:
//   * DQN vs Double-DQN vs prioritized replay vs tabular Q-learning
//   * reward weight sweep (power weight 0.5 / 1.0 / 2.0)
// Expected shape: all deep variants land in the same band and beat tabular;
// raising the power weight trades latency for lower power.
#include <iostream>

#include "bench_common.h"
#include "rl/qtable.h"
#include "util/config.h"

using namespace drlnoc;

namespace {

core::NocEnvParams base_env(int size) {
  core::NocEnvParams ep;
  ep.net.width = ep.net.height = size;
  ep.net.seed = 42;
  ep.epoch_cycles = 512;
  ep.epochs_per_episode = 32;
  return ep;
}

/// Tabular Q-learning baseline with the same interaction protocol.
class QTableController : public core::Controller {
 public:
  explicit QTableController(rl::QTableAgent& agent) : agent_(agent) {}
  std::string name() const override { return "tabular-q"; }
  int decide(const noc::EpochStats&, const rl::State& state) override {
    return agent_.act_greedy(state);
  }

 private:
  rl::QTableAgent& agent_;
};

void train_qtable(core::NocConfigEnv& env, rl::QTableAgent& agent,
                  int episodes) {
  for (int ep = 0; ep < episodes; ++ep) {
    rl::State s = env.reset();
    bool done = false;
    while (!done) {
      const int a = agent.act(s);
      const rl::StepResult r = env.step(a);
      agent.observe(rl::Transition{s, a, r.reward, r.next_state, r.done});
      s = r.next_state;
      done = r.done;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Config cfg = util::Config::from_args(argc, argv);
  const int episodes = cfg.get("episodes", 120);
  const int size = cfg.get("size", 4);

  std::cout << "T3: ablation (mesh " << size << "x" << size << ", " << episodes
            << " training episodes each)\n\n";

  util::Table t(bench::result_headers());

  // --- agent variants -------------------------------------------------------
  struct Variant {
    std::string label;
    bool double_dqn;
    bool prioritized;
    bool dueling = false;
    int n_step = 1;
  };
  for (const Variant& v :
       {Variant{"dqn", false, false}, Variant{"double-dqn", true, false},
        Variant{"ddqn+per", true, true},
        Variant{"ddqn+dueling", true, false, true},
        Variant{"ddqn+3step", true, false, false, 3}}) {
    core::NocConfigEnv env(base_env(size));
    rl::DqnParams dp = bench::standard_dqn(
        static_cast<std::uint64_t>(episodes) * 32);
    dp.double_dqn = v.double_dqn;
    dp.prioritized = v.prioritized;
    dp.dueling = v.dueling;
    dp.n_step = v.n_step;
    rl::DqnAgent agent(env.state_size(), env.num_actions(), dp);
    core::TrainParams tp;
    tp.episodes = episodes;
    tp.eval_every = 0;
    core::train_dqn(env, agent, tp);
    core::DrlController drl(env, agent.policy(), v.label);
    bench::result_row(t, core::evaluate(env, drl));
  }

  // --- tabular baseline -----------------------------------------------------
  {
    core::NocConfigEnv env(base_env(size));
    rl::QTableParams qp;
    qp.bins_per_feature = 3;
    qp.epsilon_decay_steps = static_cast<std::uint64_t>(episodes) * 24;
    rl::QTableAgent agent(env.state_size(), env.num_actions(), qp);
    train_qtable(env, agent, episodes);
    QTableController controller(agent);
    bench::result_row(t, core::evaluate(env, controller));
  }

  t.print(std::cout);

  // --- reward weight sweep --------------------------------------------------
  std::cout << "\nreward-weight sweep (Double-DQN):\n";
  util::Table w({"w_power", "latency", "power_mW", "EDP(1e6pJcyc)"});
  for (double w_power : {0.5, 1.0, 2.0}) {
    core::NocEnvParams ep = base_env(size);
    ep.reward.w_power = w_power;
    core::NocConfigEnv env(ep);
    auto agent = bench::train_agent(env, episodes);
    core::DrlController drl(env, agent->policy());
    const auto r = core::evaluate(env, drl);
    w.row()
        .cell(w_power, 1)
        .cell(r.mean_latency, 1)
        .cell(r.mean_power_mw, 1)
        .cell(r.mean_edp / 1e6, 3);
  }
  w.print(std::cout);
  std::cout << "\nshape check: deep variants cluster together and beat "
               "tabular; higher power weight lowers power at some latency "
               "cost.\n";
  return 0;
}
