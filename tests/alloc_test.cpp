// Steady-state allocation audit: a counting global operator new pins the
// "zero heap allocations in the hot loops" property — Network::step, the
// Mlp workspace paths, and the DQN observe/learn step must not allocate
// once their buffers are warm. The same hooks track live heap bytes, which
// pins that a long RL run does not retain memory per delivered packet.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "core/env_noc.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "rl/dqn.h"
#include "scenario/runtime.h"
#include "trace/generators.h"
#include "trace/trace_io.h"
#include "trace/trace_workload.h"
#include "util/live_id_table.h"
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
    opt.step(mlp);
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
    opt.step(mlp);
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

// Heap a freshly built default fabric holds: routers, NICs, channels, the
// FIFO arena and the packet table. Eight 8x8 lanes are T6 training's
// working set, and a 16x16 fabric is the serve and replay size.
TEST(SteadyStateMemory, FabricFootprint) {
  const auto footprint = [](int side) {
    noc::NetworkParams p;
    p.width = p.height = side;
    const std::int64_t before = live_bytes();
    const noc::Network net(p);
    return static_cast<double>(live_bytes() - before) / (1024.0 * 1024.0);
  };
  const double mib16 = footprint(16);
  const double mib8 = footprint(8);
  RecordProperty("mib_16x16", std::to_string(mib16));
  RecordProperty("mib_8x8", std::to_string(mib8));
  EXPECT_LE(mib16, 2.0);
  EXPECT_LE(mib8, 0.6);
}

// Heap a trace holds, on the graph the end-to-end replay benchmark reads
// (256 nodes, 8 layers x 16 tiles, 24 batches: 43,008 records and 589,824
// dependency edges). Flat, it is 32 bytes a record plus 4 bytes an edge:
// 1.31 + 2.25 = 3.56 MiB, whether generated or read from a .drltrb file.
// Replaying it adds the dependents index (4 bytes an edge and a record)
// and the per-record replay state.
TEST(SteadyStateMemory, TraceFootprint) {
  const auto mib_since = [](std::int64_t before) {
    return static_cast<double>(live_bytes() - before) / (1024.0 * 1024.0);
  };
  trace::DnnPipelineParams dp;
  dp.nodes = 256;
  dp.layers = 8;
  dp.tiles_per_layer = 16;
  dp.batches = 24;
  std::int64_t before = live_bytes();
  const trace::Trace generated = trace::generate_dnn_pipeline(dp);
  const double generated_mib = mib_since(before);
  ASSERT_EQ(generated.records.size(), 43008u);
  ASSERT_EQ(generated.summary().dep_edges, 589824u);

  const std::string path = ::testing::TempDir() + "alloc_footprint.drltrb";
  trace::TraceWriter::write_file(path, generated);
  before = live_bytes();
  const auto read = std::make_shared<const trace::Trace>(
      trace::TraceReader::read_file(path));
  const double read_mib = mib_since(before);
  std::remove(path.c_str());
  ASSERT_EQ(*read, generated);

  before = live_bytes();
  const trace::TraceWorkload workload(read);
  const double workload_mib = mib_since(before);

  RecordProperty("mib_generated", std::to_string(generated_mib));
  RecordProperty("mib_read", std::to_string(read_mib));
  RecordProperty("mib_workload", std::to_string(workload_mib));
  EXPECT_LE(generated_mib, 3.75);
  EXPECT_LE(read_mib, 3.75);
  EXPECT_LE(workload_mib, 3.2);
}

// A live-id slot is the value alone: 4096 live ids in an int or uint32_t
// table hold 16 KiB (a bool beside each value would double it).
TEST(SteadyStateMemory, LiveIdTableSlotIsFourBytes) {
  const auto footprint = [](auto value) {
    const std::int64_t before = live_bytes();
    util::LiveIdTable<decltype(value)> t;
    for (std::uint64_t id = 0; id < 4096; ++id) t.insert(id, value);
    EXPECT_EQ(t.capacity(), 4096u);
    return live_bytes() - before;
  };
  EXPECT_LE(footprint(int{5}), 4096 * 4 + 64);
  EXPECT_LE(footprint(std::uint32_t{5}), 4096 * 4 + 64);
}

// A saturated fabric's backlog queues behind its NICs. Stepping `net` under
// `injector` until `packets` are queued, the heap must grow by the
// source-queue rings' power-of-two capacity at 16 bytes a queued packet:
// nothing else holds memory per backlogged packet. glibc may hand a ring a
// chunk up to 24 bytes larger than asked (and may have done so for the
// ring it frees), so each node's ring is allowed 32 bytes either way.
void expect_backlog_costs_only_its_queue(noc::Network& net,
                                         noc::TrafficInjector& injector,
                                         std::size_t packets) {
  const noc::Network& fabric = net;
  const auto sum = [&fabric](auto field) {
    std::size_t total = 0;
    for (noc::NodeId i = 0; i < fabric.num_nodes(); ++i)
      total += field(fabric.nic(i));
    return total;
  };
  const auto capacity = [&] {
    return sum([](const noc::Nic& n) { return n.source_queue_capacity(); });
  };
  const auto queued = [&] {
    return sum([](const noc::Nic& n) { return n.source_queue_len(); });
  };
  // The fabric's buffers fill and every source queue has been pushed to.
  for (int i = 0; i < 500; ++i) net.step(&injector);
  const std::size_t capacity_before = capacity();
  const std::int64_t before = live_bytes();
  while (queued() < packets) net.step(&injector);
  const std::int64_t growth = live_bytes() - before;
  const std::size_t slots = capacity() - capacity_before;
  EXPECT_GT(slots, packets / 2);
  EXPECT_NEAR(static_cast<double>(growth), 16.0 * static_cast<double>(slots),
              32.0 * fabric.num_nodes())
      << "bytes over " << queued() << " queued packets in " << slots
      << " new ring slots";
}

noc::NetworkParams smallest_4x4() {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 4;
  p.initial_config = core::ActionSpace::standard().decode(0);
  return p;
}

// The smallest configuration (1 VC, depth 2, slowest clock) under uniform
// traffic far above saturation: tens of thousands of packets queue.
TEST(SteadyStateMemory, BackloggedSourceQueue) {
  noc::Network net(smallest_4x4());
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.5);
  expect_backlog_costs_only_its_queue(net, w, 20000);
}

// The composite routes deliveries by the record's tenant, so it holds
// nothing per live packet: its heap stays flat while two tenants' backlog
// grows behind the NICs.
TEST(SteadyStateMemory, CompositeHeapStaysFlatUnderBacklog) {
  scenario::Scenario s;
  s.net = smallest_4x4();
  for (int t = 0; t < 2; ++t) s.tenants.emplace_back().rate = 0.25;
  noc::Network net(s.net);
  const std::unique_ptr<scenario::CompositeWorkload> w =
      scenario::build_workload(s, net.topology());
  net.set_tenant_tracking(w->num_tenants());
  expect_backlog_costs_only_its_queue(net, *w, 20000);
  // Tenant 0 wins a node both tenants poll in one tick, so it emits more.
  EXPECT_GT(w->emitted(1), 5000u);
  EXPECT_GT(w->emitted(0), w->emitted(1));
}

}  // namespace
}  // namespace drlnoc
