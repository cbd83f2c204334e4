// F6: microbenchmarks (google-benchmark) for the substrate hot paths:
// simulator cycle throughput vs mesh size / VC count, NN forward/backward,
// replay buffer operations, and the DQN learn step.
#include <benchmark/benchmark.h>

#include "nn/layers.h"
#include "nn/loss.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "rl/dqn.h"
#include "rl/replay.h"

using namespace drlnoc;

namespace {

void BM_NetworkStep(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  const int vcs = static_cast<int>(state.range(1));
  noc::NetworkParams p;
  p.width = p.height = size;
  p.initial_config.active_vcs = vcs;
  p.seed = 1;
  noc::Network net(p);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.08);
  for (auto _ : state) {
    net.step(&w);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(net.num_nodes()));
  state.counters["flits"] = static_cast<double>(net.total_flits_ejected());
}
BENCHMARK(BM_NetworkStep)
    ->Args({4, 4})
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({16, 4});

void BM_MlpForward(benchmark::State& state) {
  util::Rng rng(1);
  nn::Mlp mlp({20, 64, 64, 36}, nn::Activation::kReLU, rng);
  nn::Matrix x(static_cast<std::size_t>(state.range(0)), 20);
  for (double& v : x.raw()) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.infer_ws(x).data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MlpForward)->Arg(1)->Arg(32);

void BM_MlpTrainStep(benchmark::State& state) {
  util::Rng rng(2);
  nn::Mlp mlp({20, 64, 64, 36}, nn::Activation::kReLU, rng);
  nn::Adam opt(1e-3);
  nn::Matrix x(32, 20), t(32, 36);
  for (double& v : x.raw()) v = rng.normal();
  for (double& v : t.raw()) v = rng.normal();
  for (auto _ : state) {
    mlp.zero_grads();
    const nn::LossResult lr = nn::mse_loss(mlp.forward_ws(x), t);
    mlp.backward_ws(lr.grad);
    opt.step(mlp.params(), mlp.grads());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_MlpTrainStep);

void BM_ReplayPushSample(benchmark::State& state) {
  const bool prioritized = state.range(0) != 0;
  util::Rng rng(3);
  rl::Transition t;
  t.state.assign(20, 0.5);
  t.next_state.assign(20, 0.5);
  if (prioritized) {
    rl::PrioritizedReplayBuffer buf(20000);
    for (int i = 0; i < 1000; ++i) buf.push(t);
    for (auto _ : state) {
      buf.push(t);
      auto batch = buf.sample(32, rng);
      buf.update_priorities(batch.indices,
                            std::vector<double>(batch.indices.size(), 1.0));
      benchmark::DoNotOptimize(batch);
    }
  } else {
    rl::ReplayBuffer buf(20000);
    for (int i = 0; i < 1000; ++i) buf.push(t);
    for (auto _ : state) {
      buf.push(t);
      auto batch = buf.sample(32, rng);
      benchmark::DoNotOptimize(batch);
    }
  }
}
BENCHMARK(BM_ReplayPushSample)->Arg(0)->Arg(1);

void BM_DqnObserve(benchmark::State& state) {
  rl::DqnParams p;
  p.hidden = {64, 64};
  p.min_replay = 64;
  rl::DqnAgent agent(20, 36, p);
  util::Rng rng(4);
  rl::Transition t;
  t.state.assign(20, 0.0);
  t.next_state.assign(20, 0.0);
  for (auto _ : state) {
    for (double& v : t.state) v = rng.uniform();
    for (double& v : t.next_state) v = rng.uniform();
    t.action = static_cast<int>(rng.below(36));
    t.reward = -rng.uniform();
    benchmark::DoNotOptimize(agent.observe(t));
  }
}
BENCHMARK(BM_DqnObserve);

}  // namespace

BENCHMARK_MAIN();
