// Golden determinism tests: fixed-seed runs must reproduce exact bit
// patterns across refactors (README "Determinism contract"). The golden
// hashes below were captured from the pre-PR2 (allocation-heavy) build; the
// allocation-free hot paths must not move a single bit.
//
// Everything hashed here avoids libm transcendentals (only +,-,*,/ and the
// exactly-rounded sqrt reach the hashed values), so the goldens are stable
// across compilers, optimisation levels, and libc versions on IEEE-754
// platforms.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "core/trainer.h"
#include "golden_hash.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "rl/dqn.h"
#include "rl/policy_io.h"
#include "trace/recorder.h"
#include "util/rng.h"

namespace drlnoc {
namespace {

TEST(GoldenDeterminism, Mesh8x8UniformWithReconfig) {
  noc::NetworkParams p;
  p.width = p.height = 8;
  p.seed = 42;
  noc::Network net(p);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.10);
  trace::TraceRecorder rec(net.num_nodes(), &w);

  GoldenHash h;
  mix_stats(h, net.run_epoch(&rec, 1500));
  // Mid-run reconfiguration: fewer VCs, shallower buffers, slower clock —
  // exercises credit withholding and VC gating on live traffic.
  net.apply_config(noc::NocConfig{2, 4, 2});
  mix_stats(h, net.run_epoch(&rec, 1500));
  mix_records(h, rec.records());
  mix_router_state(h, net);

  EXPECT_EQ(h.value(), 11893662481098957864ULL);
}

TEST(GoldenDeterminism, Mesh6x6OddEvenTranspose) {
  noc::NetworkParams p;
  p.width = p.height = 6;
  p.routing = "oddeven";  // adaptive: multiple candidates per route
  p.seed = 7;
  noc::Network net(p);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "transpose", 0.12);
  trace::TraceRecorder rec(net.num_nodes(), &w);

  GoldenHash h;
  mix_stats(h, net.run_epoch(&rec, 2000));
  mix_records(h, rec.records());
  mix_router_state(h, net);

  EXPECT_EQ(h.value(), 634678814998183288ULL);
}

TEST(GoldenDeterminism, Mesh16x16UniformLowLoadWithReconfig) {
  // Low load on the large mesh: most routers are idle most cycles, which is
  // exactly the regime the event-driven network core skips — the hash pins
  // that skipping provably idle work never changes simulated behavior.
  noc::NetworkParams p;
  p.width = p.height = 16;
  p.seed = 21;
  noc::Network net(p);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.02);
  trace::TraceRecorder rec(net.num_nodes(), &w);

  GoldenHash h;
  mix_stats(h, net.run_epoch(&rec, 1200));
  net.apply_config(noc::NocConfig{2, 4, 2});
  mix_stats(h, net.run_epoch(&rec, 1200));
  mix_records(h, rec.records());
  mix_router_state(h, net);

  EXPECT_EQ(h.value(), 10559580170762473702ULL);
}

TEST(GoldenDeterminism, Torus4x4DatelineClasses) {
  noc::NetworkParams p;
  p.topology = "torus";
  p.width = p.height = 4;
  p.seed = 13;
  noc::Network net(p);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.15);
  trace::TraceRecorder rec(net.num_nodes(), &w);

  GoldenHash h;
  mix_stats(h, net.run_epoch(&rec, 2000));
  mix_records(h, rec.records());
  mix_router_state(h, net);

  EXPECT_EQ(h.value(), 375709662462404824ULL);
}

TEST(GoldenDeterminism, DqnLearningTrajectory) {
  rl::DqnParams dp;
  dp.hidden = {32, 32};
  dp.min_replay = 64;
  dp.batch_size = 16;
  dp.replay_capacity = 512;
  dp.n_step = 3;
  dp.dueling = true;
  dp.double_dqn = true;
  dp.seed = 11;
  rl::DqnAgent agent(10, 6, dp);

  util::Rng rng(99);
  rl::Transition t;
  t.state.assign(10, 0.0);
  t.next_state.assign(10, 0.0);
  GoldenHash h;
  double loss_sum = 0.0;
  for (int i = 0; i < 600; ++i) {
    for (double& v : t.state) v = rng.uniform();
    for (double& v : t.next_state) v = rng.uniform();
    t.action = static_cast<int>(rng.below(6));
    t.reward = -rng.uniform();
    t.done = (i % 50) == 49;
    if (const auto loss = agent.observe(t)) loss_sum += *loss;
  }
  h.mix(loss_sum);
  h.mix(agent.learn_steps());

  std::vector<double> probe(10);
  for (int k = 0; k < 3; ++k) {
    for (std::size_t i = 0; i < probe.size(); ++i) {
      probe[i] = 0.25 * (k + 1) + 0.01 * static_cast<double>(i);
    }
    for (double q : agent.q_values(probe)) h.mix(q);
    h.mix(agent.act_greedy(probe));
  }

  EXPECT_EQ(h.value(), 8150709562051516707ULL);
}

TEST(GoldenDeterminism, SerialTrainDqnTrajectory) {
  // The serial trainer end to end: NocConfigEnv episodes (per-episode
  // reseed, random phase offset), epsilon-greedy exploration from the
  // agent's RNG interleaved with replay sampling, mid-episode learning and
  // periodic greedy evals. Pins the returns curve and the checkpoint bytes
  // the run leaves behind (captured before the single-record Network
  // accounting refactor).
  core::NocEnvParams ep;
  ep.net.width = ep.net.height = 4;
  ep.net.seed = 3;
  ep.epoch_cycles = 256;
  ep.epochs_per_episode = 6;
  ep.reward.power_ref_mw = 300.0;  // fixed reference, no calibration run
  core::NocConfigEnv env(ep);

  rl::DqnParams dp;
  dp.hidden = {16};
  dp.min_replay = 16;
  dp.batch_size = 8;
  dp.epsilon_decay_steps = 24;
  dp.seed = 5;
  rl::DqnAgent agent(env.state_size(), env.num_actions(), dp);
  core::TrainParams tp;
  tp.episodes = 5;
  tp.eval_every = 2;
  const core::TrainResult r = core::train_dqn(env, agent, tp);

  GoldenHash h;
  for (double v : r.episode_returns) h.mix(v);
  for (double v : r.episode_loss) h.mix(v);
  for (double v : r.eval_rewards) h.mix(v);
  for (int e : r.eval_episodes) h.mix(e);
  h.mix(agent.learn_steps());
  ASSERT_GT(agent.learn_steps(), 0u);
  ASSERT_EQ(r.eval_rewards.size(), 2u);
  EXPECT_EQ(h.value(), 17175365790991851270ULL);

  std::ostringstream blob;
  agent.save(blob);
  EXPECT_EQ(rl::policy_fingerprint(blob.str()), "c8797c9c04d03868");
}

}  // namespace
}  // namespace drlnoc
