// perf_smoke: the substrate micro-benchmarks (F6): simulator cycle
// throughput vs mesh size / VC count / load, MLP inference and training,
// replay push+sample, the DQN learn step, the trace subsystem (ingest
// of `.drltrb` and `.drltrc` files, task-graph generation, the binary
// round trip and dependency-gated replay) and multi-tenant traffic
// injection. Emits a flat JSON metrics block (see README "Performance").
//
//   ./bench/perf_smoke                           # print JSON to stdout
//   ./bench/perf_smoke out=BENCH.json            # also write to a file
//   ./bench/perf_smoke scale=0.2                 # quicker, noisier run
//
// Every metric is a rate (higher is better), measured as the best of
// `repeats` timed windows so one scheduler hiccup cannot poison the number.
// Compare two builds by running both on the same machine.
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_json.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "rl/dqn.h"
#include "rl/replay.h"
#include "scenario/composite_workload.h"
#include "trace/generators.h"
#include "trace/trace_io.h"
#include "trace/trace_workload.h"
#include "util/config.h"

namespace {

using Clock = std::chrono::steady_clock;
using drlnoc::util::Rng;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-`repeats` rate (items/sec) of `body`, which must perform `items`
/// units of work per call. One untimed call warms caches and allocators.
double measure_rate(std::uint64_t items, int repeats,
                    const std::function<void()>& body) {
  body();  // warm-up: steady-state capacities, code + data caches
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    body();
    const double dt = seconds_since(t0);
    if (dt > 0.0) best = std::max(best, static_cast<double>(items) / dt);
  }
  return best;
}

/// Router cycles per second at a uniform injection `rate` (packets per node
/// per core cycle). 0.08 saturates every size (the historical metrics keep
/// it for comparability); the `_low`/`_med` variants run below saturation,
/// where the event-driven core skips quiescent routers (see docs/BENCHMARKS.md).
double bench_network(int size, int vcs, double rate, std::uint64_t cycles,
                     int repeats) {
  drlnoc::noc::NetworkParams p;
  p.width = p.height = size;
  p.initial_config.active_vcs = vcs;
  p.seed = 1;
  drlnoc::noc::Network net(p);
  drlnoc::noc::SteadyWorkload w =
      drlnoc::noc::SteadyWorkload::make(net.topology(), "uniform", rate);
  return measure_rate(cycles, repeats, [&] {
    for (std::uint64_t i = 0; i < cycles; ++i) net.step(&w);
  });
}

/// Router cycles per second summed over eight 8x8 fabrics (seeds 1-8) at
/// uniform rate 0.05, stepped in turns of `turn` cycles per fabric: T6
/// training's working set, eight live lanes each advanced one epoch at a
/// time. `turns` turns per timed window.
double bench_lanes(std::uint64_t turns, std::uint64_t turn, int repeats) {
  constexpr int kLanes = 8;
  std::vector<drlnoc::noc::Network> nets;
  std::vector<drlnoc::noc::SteadyWorkload> loads;
  nets.reserve(kLanes);
  for (int lane = 0; lane < kLanes; ++lane) {
    drlnoc::noc::NetworkParams p;
    p.width = p.height = 8;
    p.seed = static_cast<std::uint64_t>(lane + 1);
    nets.emplace_back(p);
    loads.push_back(drlnoc::noc::SteadyWorkload::make(nets.back().topology(),
                                                      "uniform", 0.05));
  }
  return measure_rate(turns * turn * kLanes, repeats, [&] {
    for (std::uint64_t t = 0; t < turns; ++t) {
      for (int lane = 0; lane < kLanes; ++lane) {
        for (std::uint64_t i = 0; i < turn; ++i) nets[lane].step(&loads[lane]);
      }
    }
  });
}

/// Inference rows per second on the workspace path act() runs.
double bench_mlp_forward_ws(std::size_t batch, std::uint64_t iters,
                            int repeats) {
  Rng rng(1);
  drlnoc::nn::Mlp mlp({20, 64, 64, 36}, drlnoc::nn::Activation::kReLU, rng);
  drlnoc::nn::Matrix x(batch, 20);
  for (double& v : x.raw()) v = rng.uniform(-1.0, 1.0);
  double sink = 0.0;
  const double rate = measure_rate(iters * batch, repeats, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      sink += mlp.infer_ws(x).at(0, 0);
    }
  });
  if (sink == 42.125) std::cerr << "";  // defeat dead-code elimination
  return rate;
}

double bench_mlp_train(std::uint64_t iters, int repeats) {
  Rng rng(2);
  drlnoc::nn::Mlp mlp({20, 64, 64, 36}, drlnoc::nn::Activation::kReLU, rng);
  drlnoc::nn::Adam opt(1e-3);
  drlnoc::nn::Matrix x(32, 20), t(32, 36);
  for (double& v : x.raw()) v = rng.uniform(-1.0, 1.0);
  for (double& v : t.raw()) v = rng.uniform(-1.0, 1.0);
  return measure_rate(iters, repeats, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      mlp.zero_grads();
      const drlnoc::nn::LossResult lr =
          drlnoc::nn::mse_loss(mlp.forward_ws(x), t);
      mlp.backward_ws(lr.grad);
      opt.step(mlp);
    }
  });
}

/// Push + batch-32 sample operations per second through the allocation-free
/// sample_into path DqnAgent::learn runs; the prioritized buffer also writes
/// the sampled priorities back, as a learn step does.
template <class Buffer>
double bench_replay_push_sample(Buffer& buf, std::uint64_t iters,
                                int repeats) {
  Rng rng(3);
  drlnoc::rl::Transition t;
  t.state.assign(20, 0.5);
  t.next_state.assign(20, 0.5);
  for (int i = 0; i < 1000; ++i) buf.push(t);
  drlnoc::rl::SampledBatch batch;
  const std::vector<double> td_abs(32, 1.0);
  return measure_rate(iters, repeats, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      buf.push(t);
      buf.sample_into(batch, 32, rng);
      if constexpr (std::is_same_v<Buffer,
                                   drlnoc::rl::PrioritizedReplayBuffer>) {
        buf.update_priorities(batch.indices, td_abs);
      }
    }
  });
}

double bench_dqn_learn(std::uint64_t iters, int repeats) {
  drlnoc::rl::DqnParams p;
  p.hidden = {64, 64};
  p.min_replay = 64;
  p.replay_capacity = 4096;
  drlnoc::rl::DqnAgent agent(20, 36, p);
  Rng rng(4);
  drlnoc::rl::Transition t;
  t.state.assign(20, 0.0);
  t.next_state.assign(20, 0.0);
  auto observe_one = [&] {
    for (double& v : t.state) v = rng.uniform();
    for (double& v : t.next_state) v = rng.uniform();
    t.action = static_cast<int>(rng.below(36));
    t.reward = -rng.uniform();
    (void)agent.observe(t);
  };
  // Fill replay past min_replay so every timed observe() is a learn step.
  for (int i = 0; i < 128; ++i) observe_one();
  return measure_rate(iters, repeats, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) observe_one();
  });
}

/// Records per second through trace ingest: TraceReader::read_file plus
/// TraceWorkload construction (validation and the dependents index) on the
/// graph bench/e2e's replay_dnn_16x16 generates, 43,008 records and 589,824
/// dependency edges, stored as `.drltrb` or `.drltrc` per `extension`. Node
/// placement does not change the ingest work, so the generator's own
/// placement is kept.
double bench_trace_ingest(const std::string& extension, std::uint64_t iters,
                          int repeats) {
  drlnoc::trace::DnnPipelineParams dp;
  dp.nodes = 256;
  dp.layers = 8;
  dp.tiles_per_layer = 16;
  dp.batches = 24;
  const drlnoc::trace::Trace t = drlnoc::trace::generate_dnn_pipeline(dp);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("perf_smoke_ingest" + extension))
          .string();
  drlnoc::trace::TraceWriter::write_file(path, t);
  std::size_t sink = 0;
  const double rate = measure_rate(iters * t.records.size(), repeats, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      const drlnoc::trace::TraceWorkload w(
          drlnoc::trace::TraceReader::read_file(path));
      sink += w.trace().records.size();
    }
  });
  std::filesystem::remove(path);
  if (sink == 42) std::cerr << "";  // defeat dead-code elimination
  return rate;
}

/// The 8x8 mesh and task graphs of trace_replay's default size, whose
/// generation, binary round trip and replay the trace_* rates time.
constexpr int kTraceMesh = 8;

drlnoc::trace::DnnPipelineParams trace_dnn_params() {
  drlnoc::trace::DnnPipelineParams dnn;
  dnn.nodes = kTraceMesh * kTraceMesh;
  dnn.layers = 6;
  dnn.tiles_per_layer = 8;
  dnn.batches = 6;
  return dnn;
}

/// Task-graph records generated per second.
double bench_trace_gen(std::uint64_t iters, int repeats) {
  const drlnoc::trace::DnnPipelineParams dnn = trace_dnn_params();
  const std::uint64_t records =
      drlnoc::trace::generate_dnn_pipeline(dnn).records.size();
  return measure_rate(records * iters, repeats, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      (void)drlnoc::trace::generate_dnn_pipeline(dnn);
    }
  });
}

/// Records per second through an in-memory `.drltrb` write plus read.
double bench_trace_io_roundtrip(std::uint64_t iters, int repeats) {
  const drlnoc::trace::Trace t =
      drlnoc::trace::generate_dnn_pipeline(trace_dnn_params());
  return measure_rate(t.records.size() * iters, repeats, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      std::stringstream buf;
      drlnoc::trace::TraceWriter::write_binary(buf, t);
      (void)drlnoc::trace::TraceReader::read_binary(buf);
    }
  });
}

/// Router cycles per second replaying `t` to completion, dependency
/// tracking included.
double bench_trace_replay(const drlnoc::trace::Trace& t, int repeats) {
  drlnoc::noc::NetworkParams p;
  p.width = p.height = kTraceMesh;
  p.seed = 1;
  const auto shared = std::make_shared<const drlnoc::trace::Trace>(t);
  const auto replay = [&] {
    drlnoc::noc::Network net(p);
    drlnoc::trace::TraceWorkload workload(shared);
    return drlnoc::trace::run_trace_replay(net, workload, 2000000).cycles;
  };
  // Replay is deterministic, so every run consumes the same cycles.
  return measure_rate(replay(), repeats, replay);
}

/// Core ticks per second through CompositeWorkload::inject_tick with no
/// fabric, on serve_16x16's traffic shape: a looping 64-node DNN pipeline
/// remapped onto a seeded placement in a 16x16 mesh, plus uniform
/// background at 0.01 packets per node per core cycle. Every packet is
/// handed back as delivered a fixed 40 core cycles after injection, so the
/// dependency-gated trace keeps releasing records.
double bench_inject_ticks(std::uint64_t ticks, int repeats) {
  namespace noc = drlnoc::noc;
  constexpr int kNodes = 256;
  constexpr double kLatency = 40.0;
  const noc::Topology topo = noc::make_topology("mesh", 16, 16);
  drlnoc::trace::DnnPipelineParams dp;
  dp.nodes = 64;
  dp.batches = 4;
  std::vector<noc::NodeId> placement(kNodes);
  std::iota(placement.begin(), placement.end(), 0);
  Rng(2).shuffle(placement);
  placement.resize(static_cast<std::size_t>(dp.nodes));
  std::vector<drlnoc::scenario::TenantBinding> tenants;
  tenants.push_back({.name = "dnn",
                     .workload = drlnoc::trace::TraceWorkload(
                         drlnoc::trace::generate_dnn_pipeline(dp),
                         {.rate_scale = 1.0, .loop = true}),
                     .nodes = placement,
                     .remap = true});
  tenants.push_back(
      {.name = "background",
       .workload = noc::SteadyWorkload::make(topo, "uniform", 0.01),
       .nodes = {},
       .remap = false});
  drlnoc::scenario::CompositeWorkload w(kNodes, std::move(tenants));
  Rng master(1);
  std::vector<Rng> rngs;
  for (int i = 0; i < kNodes; ++i) rngs.push_back(master.fork());
  std::vector<noc::Emission> out;
  out.reserve(kNodes);
  std::deque<noc::PacketRecord> in_flight;
  double t = 0.0;
  std::uint64_t next_id = 1;
  return measure_rate(ticks, repeats, [&] {
    for (std::uint64_t i = 0; i < ticks; ++i, t += 1.0) {
      while (!in_flight.empty() && in_flight.front().eject_time <= t) {
        w.on_packet_delivered(in_flight.front());
        in_flight.pop_front();
      }
      out.clear();
      w.inject_tick(t, rngs.data(), kNodes, next_id, out);
      for (const noc::Emission& e : out) {
        noc::PacketRecord rec;
        rec.packet_id = next_id++;
        rec.src = e.src;
        rec.dst = e.dst;
        rec.inject_time = t;
        rec.eject_time = t + kLatency;
        rec.tenant = static_cast<std::uint16_t>(e.tenant);
        in_flight.push_back(rec);
      }
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  // from_args skips argv[0] itself (program-name slot); passing argv + 1
  // here used to silently drop the *first* key=value argument.
  const drlnoc::util::Config cfg = drlnoc::util::Config::from_args(argc, argv);
  drlnoc::util::init_log(cfg.get("log", std::string()));
  const double scale = cfg.get("scale", 1.0);
  const int repeats = cfg.get("repeats", 3);
  const auto n = [&](double base) {
    return static_cast<std::uint64_t>(std::max(1.0, base * scale));
  };

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("net_step_4x4_vc4",
                       bench_network(4, 4, 0.08, n(20000), repeats));
  metrics.emplace_back("net_step_8x8_vc1",
                       bench_network(8, 1, 0.08, n(6000), repeats));
  metrics.emplace_back("net_step_8x8_vc4",
                       bench_network(8, 4, 0.08, n(6000), repeats));
  metrics.emplace_back("net_step_16x16_vc4",
                       bench_network(16, 4, 0.08, n(1500), repeats));
  metrics.emplace_back("net_step_16x16_vc4_low",
                       bench_network(16, 4, 0.005, n(12000), repeats));
  metrics.emplace_back("net_step_16x16_vc4_med",
                       bench_network(16, 4, 0.01, n(8000), repeats));
  metrics.emplace_back("net_step_32x32_vc4_low",
                       bench_network(32, 4, 0.005, n(3000), repeats));
  metrics.emplace_back("net_step_32x32_vc4_med",
                       bench_network(32, 4, 0.01, n(2000), repeats));
  metrics.emplace_back("net_step_8x8_x8_lanes",
                       bench_lanes(n(4), 512, repeats));
  metrics.emplace_back("mlp_forward_ws_rows_b1",
                       bench_mlp_forward_ws(1, n(20000), repeats));
  metrics.emplace_back("mlp_forward_ws_rows_b32",
                       bench_mlp_forward_ws(32, n(2000), repeats));
  metrics.emplace_back("mlp_train_steps_b32", bench_mlp_train(n(1000), repeats));
  drlnoc::rl::ReplayBuffer uniform(20000);
  metrics.emplace_back("replay_push_sample_uniform",
                       bench_replay_push_sample(uniform, n(100000), repeats));
  drlnoc::rl::PrioritizedReplayBuffer prioritized(20000);
  metrics.emplace_back("replay_push_sample_prioritized",
                       bench_replay_push_sample(prioritized, n(20000), repeats));
  metrics.emplace_back("dqn_learn_steps", bench_dqn_learn(n(800), repeats));
  metrics.emplace_back("trace_ingest_dnn",
                       bench_trace_ingest(".drltrb", n(10), repeats));
  metrics.emplace_back("trace_ingest_dnn_text",
                       bench_trace_ingest(".drltrc", n(10), repeats));
  metrics.emplace_back("trace_gen_dnn_records", bench_trace_gen(n(50), repeats));
  metrics.emplace_back("trace_io_roundtrip_records",
                       bench_trace_io_roundtrip(n(50), repeats));
  const drlnoc::trace::Trace dnn =
      drlnoc::trace::generate_dnn_pipeline(trace_dnn_params());
  drlnoc::trace::AllToAllParams a2a;
  a2a.nodes = kTraceMesh * kTraceMesh;
  a2a.rounds = 3;
  metrics.emplace_back("trace_replay_dnn_cps", bench_trace_replay(dnn, repeats));
  metrics.emplace_back(
      "trace_replay_a2a_cps",
      bench_trace_replay(drlnoc::trace::generate_alltoall(a2a), repeats));

  metrics.emplace_back("inject_ticks_16x16_serve",
                       bench_inject_ticks(n(200000), repeats));

  drlnoc::bench::write_metrics_json(std::cout, "perf_smoke", metrics);
  if (cfg.has("out") &&
      !drlnoc::bench::write_metrics_file(cfg.get("out", std::string()),
                                         "perf_smoke", metrics)) {
    return 1;
  }
  return 0;
}
