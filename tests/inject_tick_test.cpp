// The tick path (one TrafficInjector::inject_tick call per core tick) must
// emit exactly what the per-node protocol does: the same packets with the
// same ids, lengths and tenants, and the same draws from every node's RNG
// stream. Each case runs one source twice on identical fabrics, once
// through its own inject_tick and once through PerNode (the per-node
// protocol of the default inject_tick, which bench/e2e's CountingInjector
// also runs), and compares the delivered-record streams, the per-tenant
// counters, each node RNG's next draw and the quiescence audit.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "golden_hash.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "per_node_injector.h"
#include "scenario/composite_workload.h"
#include "trace/generators.h"
#include "trace/recorder.h"
#include "trace/trace_workload.h"

namespace drlnoc {
namespace {

/// Emits nothing; copies the per-node streams the network hands over and
/// takes the next draw of each copy, leaving the streams untouched.
class NextDraws final : public noc::TrafficInjector {
 public:
  void inject_tick(double /*core_time*/, util::Rng* rngs, int n,
                   std::uint64_t /*first_id*/,
                   std::vector<noc::Emission>& /*out*/) override {
    draws.clear();
    for (int i = 0; i < n; ++i) {
      util::Rng copy = rngs[i];
      draws.push_back(copy());
    }
  }
  noc::NodeId generate(noc::NodeId, double, util::Rng&) override {
    return noc::kInvalidNode;
  }
  std::string name() const override { return "next_draws"; }

  std::vector<std::uint64_t> draws;
};

struct Outcome {
  std::size_t delivered = 0;
  std::uint64_t stream = 0;  ///< tenant_stream_hash of the records
  /// Per tenant for a composite, the one entry of a trace source.
  std::vector<std::uint64_t> emitted;
  std::vector<std::uint64_t> tenant_delivered;
  std::uint64_t iterations = 0;  ///< trace sources only
  std::vector<std::uint64_t> next_draws;
  std::string audit;
  bool operator==(const Outcome&) const = default;
};

void PrintTo(const Outcome& o, std::ostream* os) {
  *os << "{delivered=" << o.delivered << " stream=" << o.stream << "}";
}

/// Steps a fresh fabric `cycles` router cycles with `w`, through its tick
/// path or through PerNode, behind a recorder.
template <typename W>
Outcome run(const noc::NetworkParams& p, W w, bool per_node,
            noc::Cycle cycles) {
  noc::Network net(p);
  PerNode wrapped(w);
  trace::TraceRecorder rec(net.num_nodes(),
                           per_node ? static_cast<noc::TrafficInjector*>(
                                          &wrapped)
                                    : &w);
  for (noc::Cycle c = 0; c < cycles; ++c) net.step(&rec);
  Outcome o;
  o.delivered = rec.records().size();
  o.stream = tenant_stream_hash(rec.records());
  if constexpr (std::is_same_v<W, scenario::CompositeWorkload>) {
    for (int t = 0; t < w.num_tenants(); ++t) {
      o.emitted.push_back(w.emitted(t));
      o.tenant_delivered.push_back(w.delivered(t));
    }
  } else if constexpr (std::is_same_v<W, trace::TraceWorkload>) {
    o.emitted.push_back(w.emitted());
    o.tenant_delivered.push_back(w.delivered());
    o.iterations = w.iterations();
  }
  o.audit = net.audit_quiescence();
  NextDraws probe;
  net.step(&probe);
  o.next_draws = probe.draws;
  return o;
}

/// Runs both paths and expects the same outcome; returns the tick path's.
template <typename W>
Outcome expect_tick_path_matches(const noc::NetworkParams& p, const W& w,
                                 noc::Cycle cycles) {
  const Outcome tick = run(p, w, /*per_node=*/false, cycles);
  const Outcome per_node = run(p, w, /*per_node=*/true, cycles);
  EXPECT_GT(tick.delivered, 0u);
  EXPECT_EQ(tick.audit, "");
  EXPECT_EQ(tick.next_draws.size(), static_cast<std::size_t>(p.width) *
                                        static_cast<std::size_t>(p.height));
  EXPECT_EQ(tick, per_node);
  return tick;
}

noc::NetworkParams mesh(int size, std::uint64_t seed, int dvfs_level = 3) {
  noc::NetworkParams p;
  p.width = p.height = size;
  p.seed = seed;
  p.initial_config.dvfs_level = dvfs_level;
  return p;
}

TEST(InjectTick, SteadyBernoulli) {
  const noc::NetworkParams p = mesh(4, 3);
  const noc::Network net(p);
  expect_tick_path_matches(
      p, noc::SteadyWorkload::make(net.topology(), "uniform", 0.1), 600);
}

TEST(InjectTick, SteadyBurst) {
  // Burst keeps per-node ON state, and a hotspot pattern draws twice on
  // some hits; a 1.5 GHz router clock runs one or two core ticks per step.
  const noc::NetworkParams p = mesh(4, 7, /*dvfs_level=*/2);
  const noc::Network net(p);
  expect_tick_path_matches(
      p, noc::SteadyWorkload::make(net.topology(), "hotspot", 0.15, "burst"),
      600);
}

TEST(InjectTick, PhasedAcrossAPhaseBoundary) {
  // The offset puts the first boundary at core time 150, mid-run, between
  // phases of different patterns, processes and packet lengths; a 1 GHz
  // router clock runs two core ticks per step.
  const noc::NetworkParams p = mesh(4, 5, /*dvfs_level=*/1);
  const noc::Network net(p);
  noc::PhasedWorkload w(net.topology(),
                        {{"uniform", 0.1, 300.0, "bernoulli", 2},
                         {"hotspot", 0.1, 300.0, "burst", 6}});
  w.set_start_offset(150.0);
  ASSERT_NE(w.phase_index(0.0), w.phase_index(400.0));
  expect_tick_path_matches(p, w, 400);
}

TEST(InjectTick, LoopingTraceWithRateScale) {
  trace::TraceWorkloadParams tp;
  tp.rate_scale = 2.0;
  tp.loop = true;
  const trace::TraceWorkload w(
      trace::generate_dnn_pipeline({16, 4, 4, 3, 64.0, 32.0, 8}), tp);
  // Long enough for several iterations.
  EXPECT_GT(expect_tick_path_matches(mesh(4, 9), w, 3000).iterations, 2u);
}

/// A remapped trace tenant, a source-restricted burst tenant, a windowed
/// phased tenant, and a horizon that ends injection mid-run.
scenario::CompositeWorkload mixed_composite(const noc::Topology& topo) {
  trace::TraceWorkloadParams tp;
  tp.loop = true;
  std::vector<scenario::TenantBinding> b;
  b.push_back({.name = "dnn",
               .workload = trace::TraceWorkload(
                   trace::generate_dnn_pipeline({8, 3, 3, 3, 48.0, 16.0, 6}),
                   tp),
               .nodes = {15, 2, 9, 4, 11, 0, 6, 13},
               .remap = true});
  b.push_back(
      {.name = "edge",
       .workload = noc::SteadyWorkload::make(topo, "uniform", 0.08, "burst"),
       .nodes = {0, 1, 2, 3, 4, 8, 12}});
  b.push_back({.name = "phased",
               .workload = noc::PhasedWorkload(
                   topo, {{"uniform", 0.06, 200.0, "bernoulli", 3},
                          {"transpose", 0.1, 200.0, "bernoulli", 5}}),
               .nodes = {},
               .remap = false,
               .start = 90.0,
               .stop = 1300.0});
  scenario::CompositeWorkload w(topo.num_nodes(), std::move(b));
  w.set_horizon(1800.0);
  return w;
}

TEST(InjectTick, CompositeOfTraceSteadyAndPhasedTenants) {
  const noc::NetworkParams p = mesh(4, 13);
  const noc::Network net(p);
  const Outcome o =
      expect_tick_path_matches(p, mixed_composite(net.topology()), 2400);
  // Every tenant got slots.
  for (const std::uint64_t e : o.emitted) EXPECT_GT(e, 0u);
}

}  // namespace
}  // namespace drlnoc
