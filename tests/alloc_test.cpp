// Steady-state allocation audit: a counting global operator new pins the
// "zero heap allocations in the hot loops" property — Network::step, the
// Mlp workspace paths, and the DQN observe/learn step must not allocate
// once their buffers are warm. The same hooks track live heap bytes, which
// pins that a long RL run does not retain memory per delivered packet.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/env_noc.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "rl/dqn.h"
#include "util/rng.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted(std::malloc(size)); }
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted(std::aligned_alloc(
      static_cast<std::size_t>(align),
      (size + static_cast<std::size_t>(align) - 1) &
          ~(static_cast<std::size_t>(align) - 1)));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace drlnoc {
namespace {

std::uint64_t alloc_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

TEST(SteadyStateAllocations, NetworkStepIsAllocationFree) {
  noc::NetworkParams p;
  p.width = p.height = 8;
  p.seed = 3;
  noc::Network net(p);
  // Well below saturation (~0.0625 for 8×8 uniform) so source-queue
  // high-water marks stop moving after warm-up.
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.04);
  const int kWindow = 2000;
  // Warm-up: reach steady state and establish every buffer capacity.
  for (int i = 0; i < 2 * kWindow; ++i) net.step(&w);
  (void)net.drain_epoch_stats();
  for (int i = 0; i < kWindow; ++i) net.step(&w);
  (void)net.drain_epoch_stats();

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < kWindow; ++i) net.step(&w);
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u) << "Network::step allocated in steady state";
}

TEST(SteadyStateAllocations, NetworkKeepsNoRunHistory) {
  // A Network holds no per-packet history: stepped for 20k cycles with no
  // drain call of any kind, its heap footprint must not grow with the
  // packets it delivers (about 51k here).
  noc::NetworkParams p;
  p.width = p.height = 8;
  p.seed = 3;
  noc::Network net(p);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.04);
  for (int i = 0; i < 2000; ++i) net.step(&w);  // buffer capacities settle

  const std::int64_t before = live_bytes();
  for (int i = 0; i < 20000; ++i) net.step(&w);
  EXPECT_EQ(live_bytes() - before, 0)
      << "Network::step retained memory across "
      << net.total_packets_received() << " deliveries";
}

TEST(SteadyStateAllocations, NetworkStepAfterReconfigIsAllocationFree) {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 5;
  noc::Network net(p);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "transpose", 0.06);
  for (int i = 0; i < 3000; ++i) net.step(&w);
  net.apply_config(noc::NocConfig{2, 4, 2});
  for (int i = 0; i < 3000; ++i) net.step(&w);
  (void)net.drain_epoch_stats();
  for (int i = 0; i < 1500; ++i) net.step(&w);

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 1000; ++i) net.step(&w);
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u);
}

TEST(SteadyStateAllocations, MlpWorkspacePathsAreAllocationFree) {
  util::Rng rng(7);
  nn::Mlp mlp({20, 64, 64, 36}, nn::Activation::kReLU, rng);
  nn::Adam opt(1e-3);
  nn::Matrix x(32, 20), target(32, 36);
  for (double& v : x.raw()) v = rng.uniform(-1.0, 1.0);
  for (double& v : target.raw()) v = rng.uniform(-1.0, 1.0);
  nn::LossResult loss;

  auto one_step = [&] {
    const nn::Matrix& y = mlp.forward_ws(x);
    (void)mlp.infer_ws(x);
    loss = nn::mse_loss(y, target);  // loss result reuses its capacity? no —
    // mse_loss allocates; keep it OUT of the audited window below.
    mlp.zero_grads();
    mlp.backward_ws(loss.grad);
    opt.step(mlp.params(), mlp.grads());
  };
  one_step();
  one_step();

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 50; ++i) {
    (void)mlp.forward_ws(x);
    (void)mlp.infer_ws(x);
    mlp.zero_grads();
    mlp.backward_ws(loss.grad);
    mlp.backward_params_ws(loss.grad);
    (void)mlp.clip_grad_norm(10.0);
    opt.step(mlp.params(), mlp.grads());
  }
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u) << "Mlp workspace path allocated";
}

TEST(SteadyStateAllocations, DqnObserveIsAllocationFree) {
  rl::DqnParams dp;
  dp.hidden = {32, 32};
  dp.replay_capacity = 256;  // small: warm-up fills it completely
  dp.min_replay = 64;
  dp.batch_size = 16;
  rl::DqnAgent agent(12, 8, dp);
  util::Rng rng(9);
  rl::Transition t;
  t.state.assign(12, 0.0);
  t.next_state.assign(12, 0.0);
  auto observe_one = [&] {
    for (double& v : t.state) v = rng.uniform();
    for (double& v : t.next_state) v = rng.uniform();
    t.action = static_cast<int>(rng.below(8));
    t.reward = -rng.uniform();
    (void)agent.act(t.state);
    (void)agent.observe(t);
  };
  // Fill the replay buffer past capacity and warm every workspace,
  // including a hard target sync (every 250 learn steps).
  for (int i = 0; i < 600; ++i) observe_one();

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 200; ++i) observe_one();
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u) << "DQN observe/learn allocated";
}

TEST(SteadyStateAllocations, PrioritizedDqnObserveIsAllocationFree) {
  rl::DqnParams dp;
  dp.hidden = {32, 32};
  dp.replay_capacity = 256;
  dp.min_replay = 64;
  dp.batch_size = 16;
  dp.prioritized = true;
  dp.n_step = 3;
  rl::DqnAgent agent(12, 8, dp);
  util::Rng rng(11);
  rl::Transition t;
  t.state.assign(12, 0.0);
  t.next_state.assign(12, 0.0);
  auto observe_one = [&] {
    for (double& v : t.state) v = rng.uniform();
    for (double& v : t.next_state) v = rng.uniform();
    t.action = static_cast<int>(rng.below(8));
    t.reward = -rng.uniform();
    t.done = (rng.below(50) == 0);
    (void)agent.observe(t);
  };
  for (int i = 0; i < 600; ++i) observe_one();

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 200; ++i) observe_one();
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u) << "prioritized DQN observe/learn allocated";
}

TEST(SteadyStateMemory, NocEnvDoesNotRetainDeliveredPackets) {
  // One long episode on the most capable configuration (no backlog, so
  // source queues stop growing after warm-up). Each epoch delivers a few
  // hundred packets; the env must not keep anything per delivered packet.
  core::NocEnvParams p;
  p.net.width = p.net.height = 4;
  p.epoch_cycles = 512;
  p.epochs_per_episode = 1000;
  p.seed = 5;
  core::NocConfigEnv env(p);
  (void)env.reset();
  const int action = env.actions().max_action();
  for (int i = 0; i < 20; ++i) (void)env.step(action);

  const std::int64_t before = live_bytes();
  std::uint64_t delivered = 0;
  for (int i = 0; i < 200; ++i) {
    (void)env.step(action);
    delivered += env.last_stats().packets_received;
  }
  const std::int64_t growth = live_bytes() - before;
  ASSERT_GT(delivered, 20000u);
  EXPECT_LT(growth, 16 * 1024) << "bytes retained over " << delivered
                               << " delivered packets";
}

}  // namespace
}  // namespace drlnoc
