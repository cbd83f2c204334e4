#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "golden_hash.h"
#include "noc/network.h"
#include "noc/simulator.h"
#include "noc/workload.h"
#include "trace/recorder.h"

namespace drlnoc::noc {
namespace {

NetworkParams small_mesh(std::uint64_t seed = 1) {
  NetworkParams p;
  p.topology = "mesh";
  p.width = 4;
  p.height = 4;
  p.max_vcs = 4;
  p.max_depth = 8;
  p.flits_per_packet = 4;
  p.seed = seed;
  return p;
}

// Runs traffic then drains; returns every delivered-packet record, seen by
// one recorder across both phases.
std::vector<PacketRecord> run_and_drain(Network& net, TrafficInjector& w,
                                        int cycles) {
  trace::TraceRecorder rec(net.num_nodes(), &w);
  for (int i = 0; i < cycles; ++i) net.step(&rec);
  rec.set_source(nullptr);
  EXPECT_TRUE(run_until(net, &rec, [] { return true; }, 200000).completed)
      << "network failed to drain";
  return rec.records();
}

// Drains hand-injected packets; returns their delivered records.
std::vector<PacketRecord> drain_hand_injected(Network& net) {
  trace::TraceRecorder rec(net.num_nodes());
  EXPECT_TRUE(run_until(net, &rec, [] { return true; }, 10000).completed);
  return rec.records();
}

TEST(Network, DeliversSinglePacket) {
  Network net(small_mesh());
  // Hand-inject one packet from node 0 to node 15.
  net.nic(0).offer_packet(15, 0.0, true, 1);
  const auto records = drain_hand_injected(net);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].src, 0);
  EXPECT_EQ(records[0].dst, 15);
  EXPECT_EQ(records[0].length, 4);
  EXPECT_EQ(records[0].hops, 7u);  // 6 inter-router hops + ejection router
}

TEST(Network, FlitConservationUniform) {
  Network net(small_mesh(7));
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.05);
  run_and_drain(net, w, 5000);
  EXPECT_EQ(net.total_packets_offered(), net.total_packets_received());
  EXPECT_EQ(net.total_flits_injected(), net.total_flits_ejected());
  EXPECT_EQ(net.total_flits_injected(), net.total_packets_offered() * 4);
}

TEST(Network, NoPacketLostOrDuplicated) {
  Network net(small_mesh(11));
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.08);
  const auto records = run_and_drain(net, w, 4000);
  std::set<std::uint64_t> ids;
  for (const auto& r : records) {
    EXPECT_TRUE(ids.insert(r.packet_id).second)
        << "duplicate packet " << r.packet_id;
  }
  EXPECT_EQ(ids.size(), net.total_packets_offered());
}

TEST(Network, LatencyRespectsLowerBound) {
  Network net(small_mesh(13));
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.02);
  const auto records = run_and_drain(net, w, 4000);
  const auto& topo = net.topology();
  for (const auto& r : records) {
    // Lower bound: the head must cross min_hops inter-router links plus the
    // injection and ejection links (1 cycle each, single-cycle routers), and
    // the tail trails by the serialization latency. Core cycles == router
    // cycles at the top DVFS level.
    const double lower = topo.min_hops(r.src, r.dst) + 2 + (r.length - 1);
    EXPECT_GE(r.eject_time - r.inject_time, lower - 1e-9)
        << r.src << "->" << r.dst;
    EXPECT_GE(static_cast<int>(r.hops), topo.min_hops(r.src, r.dst) + 1);
  }
}

TEST(Network, DeterministicAcrossRuns) {
  auto run = [] {
    Network net(small_mesh(21));
    SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.06);
    for (int i = 0; i < 3000; ++i) net.step(&w);
    EpochStats s = net.drain_epoch_stats();
    return std::tuple{s.packets_received, s.avg_latency, s.flits_injected,
                      s.dynamic_energy_pj};
  };
  EXPECT_EQ(run(), run());
}

TEST(Network, TorusAndRingDeliverEverything) {
  for (const char* kind : {"torus", "ring"}) {
    NetworkParams p = small_mesh(31);
    p.topology = kind;
    p.initial_config.active_vcs = 4;
    Network net(p);
    SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.05);
    run_and_drain(net, w, 5000);
    EXPECT_EQ(net.total_packets_offered(), net.total_packets_received())
        << kind;
  }
}

TEST(Network, AdaptiveRoutingDelivers) {
  for (const char* algo : {"westfirst", "oddeven"}) {
    NetworkParams p = small_mesh(17);
    p.routing = algo;
    Network net(p);
    SteadyWorkload w = SteadyWorkload::make(net.topology(), "transpose", 0.1);
    run_and_drain(net, w, 5000);
    EXPECT_EQ(net.total_packets_offered(), net.total_packets_received())
        << algo;
  }
}

TEST(Network, HigherLoadHigherLatency) {
  auto latency_at = [](double rate) {
    NetworkParams p = small_mesh(5);
    return measure_point(p, "uniform", rate).stats.avg_latency;
  };
  const double low = latency_at(0.02);
  const double high = latency_at(0.20);
  EXPECT_GT(low, 0.0);
  EXPECT_GT(high, 1.3 * low);
}

TEST(Network, MoreVcsRaiseSaturationThroughput) {
  auto accepted_at = [](int vcs, double rate) {
    NetworkParams p = small_mesh(9);
    p.initial_config.active_vcs = vcs;
    Network net(p);
    SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", rate);
    SteadyRunParams rp;
    rp.drain_limit = 20000;
    return run_steady_state(net, w, rp).stats.accepted_rate;
  };
  // Past the 1-VC saturation point, 4 VCs must carry clearly more traffic
  // (measured: ~0.169 vs ~0.150 packets/node/cycle on this setup).
  EXPECT_GT(accepted_at(4, 0.25), 1.08 * accepted_at(1, 0.25));
}

TEST(Network, ReconfigSafetyUnderRandomChanges) {
  // Invariant 6: random live reconfiguration never loses flits.
  NetworkParams p = small_mesh(23);
  Network net(p);
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.10);
  util::Rng rng(99);
  const std::vector<int> vcs = {1, 2, 4};
  const std::vector<int> depths = {2, 4, 8};
  for (int burst = 0; burst < 40; ++burst) {
    NocConfig c;
    c.active_vcs = vcs[rng.below(3)];
    c.active_depth = depths[rng.below(3)];
    c.dvfs_level = static_cast<int>(rng.below(4));
    net.apply_config(c);
    for (int i = 0; i < 200; ++i) net.step(&w);
  }
  net.apply_config(NocConfig{4, 8, 3});
  int guard = 0;
  while (!net.drained() && guard < 200000) {
    net.step(nullptr);
    ++guard;
  }
  ASSERT_TRUE(net.drained());
  EXPECT_EQ(net.total_packets_offered(), net.total_packets_received());
  EXPECT_EQ(net.total_flits_injected(), net.total_flits_ejected());
}

TEST(Network, CreditAdvertisementInvariant) {
  // Shrink is lazy (credits are withheld as flits drain), so after a shrink
  // the advertised capacity sits in [target, max_depth]; growth is eager, so
  // after growing back every input VC advertises exactly the new depth.
  NetworkParams p = small_mesh(25);
  Network net(p);
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.08);
  for (int i = 0; i < 1000; ++i) net.step(&w);
  net.apply_config(NocConfig{2, 3, 2});
  for (int i = 0; i < 2000; ++i) net.step(&w);
  for (int node = 0; node < net.num_nodes(); ++node) {
    Router& r = net.router(node);
    for (int port = 0; port < net.topology().radix(); ++port) {
      for (int vc = 0; vc < p.max_vcs; ++vc) {
        const int adv = r.advertised_capacity(port, vc);
        EXPECT_GE(adv, 3) << "node " << node << " port " << port;
        EXPECT_LE(adv, p.max_depth);
      }
    }
  }
  net.apply_config(NocConfig{4, 8, 3});
  int guard = 0;
  while (!net.drained() && guard < 100000) {
    net.step(nullptr);
    ++guard;
  }
  ASSERT_TRUE(net.drained());
  for (int node = 0; node < net.num_nodes(); ++node) {
    Router& r = net.router(node);
    for (int port = 0; port < net.topology().radix(); ++port) {
      for (int vc = 0; vc < p.max_vcs; ++vc) {
        EXPECT_EQ(r.advertised_capacity(port, vc), 8)
            << "node " << node << " port " << port << " vc " << vc;
      }
    }
  }
}

TEST(Network, DvfsSlowdownRaisesLatencyLowersPower) {
  auto stats_at = [](int level) {
    NetworkParams p = small_mesh(27);
    p.initial_config.dvfs_level = level;
    Network net(p);
    SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.03);
    SteadyRunParams rp;
    return run_steady_state(net, w, rp).stats;
  };
  const EpochStats slow = stats_at(0);
  const EpochStats fast = stats_at(3);
  EXPECT_GT(slow.avg_latency, 1.5 * fast.avg_latency);
  EXPECT_LT(slow.avg_power_mw(2.0), fast.avg_power_mw(2.0));
}

TEST(Network, GatingReducesStaticEnergy) {
  auto static_energy = [](int vcs, int depth) {
    NetworkParams p = small_mesh(29);
    p.initial_config.active_vcs = vcs;
    p.initial_config.active_depth = depth;
    Network net(p);
    SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.02);
    return net.run_epoch(&w, 2000).static_energy_pj;
  };
  EXPECT_LT(static_energy(1, 2), static_energy(4, 8));
}

TEST(Network, EpochStatsRatesConsistent) {
  Network net(small_mesh(33));
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.05);
  const EpochStats s = net.run_epoch(&w, 4000);
  EXPECT_NEAR(s.offered_rate, 0.05, 0.01);
  EXPECT_GT(s.packets_received, 0u);
  EXPECT_EQ(s.router_cycles, 4000u);
  EXPECT_DOUBLE_EQ(s.core_cycles, 4000.0);  // top DVFS level: divisor 1
  EXPECT_GT(s.dynamic_energy_pj, 0.0);
  EXPECT_GT(s.static_energy_pj, 0.0);
}

TEST(Network, RejectsBadConfig) {
  Network net(small_mesh());
  EXPECT_THROW(net.apply_config(NocConfig{0, 8, 3}), std::invalid_argument);
  EXPECT_THROW(net.apply_config(NocConfig{4, 9, 3}), std::invalid_argument);
  EXPECT_THROW(net.apply_config(NocConfig{4, 8, 4}), std::invalid_argument);
}

TEST(Network, RejectsBadInitialConfigNamingIt) {
  // The constructor runs the same check as apply_config, message included.
  for (const NocConfig& bad :
       {NocConfig{0, 8, 3}, NocConfig{4, 9, 3}, NocConfig{4, 8, 4}}) {
    NetworkParams p = small_mesh();
    p.initial_config = bad;
    try {
      Network net(p);
      ADD_FAILURE() << "accepted " << to_string(bad);
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "NocConfig out of range: " + to_string(bad));
    }
  }
}

// A packet holds one table slot from the start of its transmission until
// its tail ejects: the audit matches live slots to the flits and
// transmissions that name them, a drained fabric holds none, and the table
// stays at the in-flight high-water mark, not the delivered count.
TEST(Network, PacketSlotsFollowOpenPackets) {
  NetworkParams p;
  p.width = p.height = 8;
  p.seed = 4;
  Network net(p);
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.05);
  std::size_t max_live = 0;
  for (int i = 0; i < 3000; ++i) {
    net.step(&w);
    max_live = std::max(max_live, net.packets().live_count());
    if (i % 100 == 0) {
      ASSERT_EQ(net.audit_quiescence(), "") << "cycle " << i;
    }
  }
  EXPECT_GT(max_live, 0u);
  while (!net.drained()) net.step(nullptr);
  EXPECT_EQ(net.audit_quiescence(), "");
  EXPECT_EQ(net.packets().live_count(), 0u);
  EXPECT_GE(net.packets().size(), max_live);
  EXPECT_GT(net.total_packets_received(), 10 * net.packets().size());
}

TEST(NetworkParams, ValidateNamesTheFieldAndTheConstructorRunsIt) {
  small_mesh().validate();  // the defaults are legal
  NetworkParams largest = small_mesh();  // 16-bit node ids, all used
  largest.width = 65535;
  largest.height = 1;
  largest.validate();
  struct Case {
    void (*breaks)(NetworkParams&);
    const char* message;
  };
  const Case cases[] = {
      {[](NetworkParams& p) { p.width = 0; },
       "network: width must be >= 1, got 0"},
      {[](NetworkParams& p) { p.height = -2; },
       "network: height must be >= 1, got -2"},
      {[](NetworkParams& p) { p.max_vcs = 0; },
       "network: max_vcs must be in [1, 32], got 0"},
      {[](NetworkParams& p) { p.max_vcs = 33; },
       "network: max_vcs must be in [1, 32], got 33"},
      {[](NetworkParams& p) { p.max_depth = 128; },
       "network: max_depth must be in [1, 127], got 128"},
      {[](NetworkParams& p) { p.link_latency = 0; },
       "network: link_latency must be >= 1, got 0"},
      {[](NetworkParams& p) { p.pipeline_stages = 0; },
       "network: pipeline_stages must be >= 1, got 0"},
      {[](NetworkParams& p) { p.flits_per_packet = 0; },
       "network: flits_per_packet must be in [1, 65535], got 0"},
      {[](NetworkParams& p) { p.flits_per_packet = 65536; },
       "network: flits_per_packet must be in [1, 65535], got 65536"},
      {[](NetworkParams& p) { p.width = p.height = 256; },
       "network: width*height must be <= 65535, got 65536"},
      {[](NetworkParams& p) { p.width = p.height = 100000; },
       "network: width*height must be <= 65535, got 10000000000"},
      // The shape and the routing are checked by building them.
      {[](NetworkParams& p) { p.width = 1; },
       "network: mesh width must be >= 2, got 1"},
      {[](NetworkParams& p) { p.topology = "torus"; p.height = 2; },
       "network: torus height must be >= 3, got 2"},
      {[](NetworkParams& p) {
         p.topology = "ring";
         p.width = 2;
         p.height = 1;
       },
       "network: ring width*height must be >= 3, got 2"},
      {[](NetworkParams& p) { p.topology = "hypercube"; },
       "network: unknown topology: hypercube"},
      {[](NetworkParams& p) { p.routing = "torus_dor"; },
       "routing 'torus_dor' incompatible with topology mesh4x4"},
      {[](NetworkParams& p) { p.routing = "nope"; },
       "routing 'nope' incompatible with topology mesh4x4"},
      {[](NetworkParams& p) { p.topology = "torus"; p.max_vcs = 1; },
       "network: max_vcs must be >= the topology's VC classes, got 1"},
  };
  for (const Case& c : cases) {
    NetworkParams p = small_mesh();
    c.breaks(p);
    try {
      p.validate();
      ADD_FAILURE() << "accepted: " << c.message;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), c.message);
    }
    // A Release build has no asserts: the constructor must refuse the same
    // parameters rather than build a zero-latency or packetless fabric.
    EXPECT_THROW(Network{p}, std::invalid_argument) << c.message;
  }
}

TEST(Network, PipelineStagesRaiseLatencyProportionally) {
  auto latency_with = [](int stages) {
    NetworkParams p = small_mesh(41);
    p.pipeline_stages = stages;
    return measure_point(p, "uniform", 0.02).stats;
  };
  const EpochStats one = latency_with(1);
  const EpochStats four = latency_with(4);
  // Each router traversal adds (stages - 1) extra cycles; uniform 4x4 mesh
  // averages ~3.7 traversals.
  EXPECT_NEAR(four.avg_latency - one.avg_latency, 3.0 * one.avg_hops, 3.0);
  EXPECT_EQ(one.packets_offered, four.packets_offered);  // same seed
}

TEST(Network, PipelinedNetworkStillConservesFlits) {
  NetworkParams p = small_mesh(43);
  p.pipeline_stages = 3;
  Network net(p);
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "transpose", 0.08);
  run_and_drain(net, w, 3000);
  EXPECT_EQ(net.total_packets_offered(), net.total_packets_received());
}

TEST(Network, CustomPacketLengthsHonored) {
  Network net(small_mesh(45));
  net.nic(0).offer_packet(5, 0.0, true, 1, /*length=*/1);
  net.nic(0).offer_packet(5, 0.0, true, 2, /*length=*/9);
  const auto records = drain_hand_injected(net);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].length + records[1].length, 10);
  EXPECT_EQ(net.total_flits_injected(), 10u);
}

TEST(Network, PhasePacketLengthFlowsThrough) {
  NetworkParams p = small_mesh(47);
  Network net(p);
  std::vector<Phase> phases = {
      {"uniform", 0.05, 1e9, "bernoulli", /*flits_per_packet=*/2}};
  PhasedWorkload w(net.topology(), phases);
  const auto records = run_and_drain(net, w, 2000);
  ASSERT_FALSE(records.empty());
  for (const auto& r : records) EXPECT_EQ(r.length, 2);
}

TEST(Network, PerRouterConfigValidation) {
  Network net(small_mesh());
  std::vector<NocConfig> configs(15, NocConfig{2, 4, 2});
  EXPECT_THROW(net.apply_per_router(configs), std::invalid_argument);
  configs.resize(16, NocConfig{2, 4, 2});
  configs[3].dvfs_level = 1;  // mixed clock domains are not modelled
  EXPECT_THROW(net.apply_per_router(configs), std::invalid_argument);
  configs[3].dvfs_level = 2;
  EXPECT_NO_THROW(net.apply_per_router(configs));
  EXPECT_EQ(net.config_of(5), (NocConfig{2, 4, 2}));
}

// apply_config is apply_per_router with one config for every router: the
// two step bit-identically through a run of reconfigurations.
TEST(Network, UniformPerRouterConfigMatchesApplyConfig) {
  const std::vector<NocConfig> schedule = {
      {2, 4, 2}, {4, 8, 3}, {1, 2, 1}, {3, 6, 3}};
  auto run = [&](bool per_router) {
    Network net(small_mesh(57));
    SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.1);
    trace::TraceRecorder recorder(net.num_nodes(), &w);
    GoldenHash h;
    for (const NocConfig& c : schedule) {
      if (per_router) {
        net.apply_per_router(std::vector<NocConfig>(16, c));
      } else {
        net.apply_config(c);
      }
      EXPECT_EQ(net.config(), c);
      mix_stats(h, net.run_epoch(&recorder, 800));
    }
    mix_records(h, recorder.records());
    mix_router_state(h, net);
    return h.value();
  };
  EXPECT_EQ(run(/*per_router=*/true), run(/*per_router=*/false));
}

TEST(Network, HeterogeneousConfigConservesFlits) {
  Network net(small_mesh(51));
  // Provision a 2x2 hotspot region fully, starve the rest.
  std::vector<NocConfig> configs(16, NocConfig{1, 2, 3});
  for (NodeId n : {5, 6, 9, 10}) {
    configs[static_cast<std::size_t>(n)] = NocConfig{4, 8, 3};
  }
  net.apply_per_router(configs);
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "hotspot", 0.08);
  for (int i = 0; i < 4000; ++i) net.step(&w);
  int guard = 0;
  while (!net.drained() && guard < 200000) {
    net.step(nullptr);
    ++guard;
  }
  ASSERT_TRUE(net.drained());
  EXPECT_EQ(net.total_packets_offered(), net.total_packets_received());
}

TEST(Network, DownstreamGatingRespectedOnHeterogeneousLinks) {
  // Router 1 keeps 1 VC; its upstream neighbour (router 0) must never place
  // flits on router 1's gated VCs even though router 0 itself has 4 active.
  Network net(small_mesh(53));
  std::vector<NocConfig> configs(16, NocConfig{4, 8, 3});
  configs[1] = NocConfig{1, 8, 3};
  net.apply_per_router(configs);
  EXPECT_EQ(net.router(0).output_active_vcs(1), 1);  // east port toward 1
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.15);
  for (int i = 0; i < 3000; ++i) {
    net.step(&w);
    for (int vc = 1; vc < 4; ++vc) {
      // Router 1's west input (port 2, fed by router 0).
      EXPECT_EQ(net.router(1).input_occupancy(2, vc), 0)
          << "cycle " << i << " vc " << vc;
    }
  }
}

TEST(Network, HeterogeneousStaticEnergyBetweenExtremes) {
  auto energy_of = [](std::vector<NocConfig> configs) {
    NetworkParams p = small_mesh(55);
    Network net(p);
    if (!configs.empty()) net.apply_per_router(configs);
    SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.02);
    return net.run_epoch(&w, 1000).static_energy_pj;
  };
  const double uniform_max = energy_of(std::vector<NocConfig>(16, {4, 8, 3}));
  const double uniform_min = energy_of(std::vector<NocConfig>(16, {1, 2, 3}));
  std::vector<NocConfig> mixed(16, NocConfig{1, 2, 3});
  for (int i = 0; i < 8; ++i) mixed[static_cast<std::size_t>(i)] = {4, 8, 3};
  const double hetero = energy_of(mixed);
  EXPECT_LT(uniform_min, hetero);
  EXPECT_LT(hetero, uniform_max);
}

// Cross-product stress: flit conservation and drain must hold for every
// combination of topology/routing, VC budget and pipeline depth, under a
// bursty hotspot workload with a mid-run reconfiguration (the union of
// invariants 1, 2 and 6).
struct StressCase {
  const char* topology;
  const char* routing;
  int vcs;
  int pipeline;
};

// gtest prints the parameter into the discovered test names; without this it
// dumps the raw bytes, string addresses included, so the names would change
// with every run of the binary.
void PrintTo(const StressCase& c, std::ostream* os) {
  *os << c.topology << '/' << c.routing << " vc" << c.vcs << " p"
      << c.pipeline;
}

class ConservationStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(ConservationStress, NoFlitEverLost) {
  const StressCase& c = GetParam();
  NetworkParams p;
  p.topology = c.topology;
  p.width = 4;
  p.height = 4;
  p.routing = c.routing;
  p.pipeline_stages = c.pipeline;
  p.initial_config.active_vcs = c.vcs;
  p.seed = 77;
  Network net(p);
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "hotspot", 0.10,
                                          "burst");
  for (int i = 0; i < 1500; ++i) net.step(&w);
  // Mid-run squeeze and re-expansion.
  net.apply_config(NocConfig{std::max(c.vcs / 2, net.topology().required_vc_classes()),
                             2, 1});
  for (int i = 0; i < 1500; ++i) net.step(&w);
  net.apply_config(NocConfig{4, 8, 3});
  int guard = 0;
  while (!net.drained() && guard < 300000) {
    net.step(nullptr);
    ++guard;
  }
  ASSERT_TRUE(net.drained());
  EXPECT_EQ(net.total_packets_offered(), net.total_packets_received());
  EXPECT_EQ(net.total_flits_injected(), net.total_flits_ejected());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConservationStress,
    ::testing::Values(StressCase{"mesh", "xy", 4, 1},
                      StressCase{"mesh", "xy", 2, 3},
                      StressCase{"mesh", "yx", 4, 1},
                      StressCase{"mesh", "westfirst", 4, 1},
                      StressCase{"mesh", "oddeven", 4, 2},
                      StressCase{"torus", "auto", 4, 1},
                      StressCase{"torus", "auto", 2, 2},
                      StressCase{"ring", "auto", 4, 1},
                      StressCase{"ring", "auto", 2, 3}),
    [](const ::testing::TestParamInfo<StressCase>& info) {
      return std::string(info.param.topology) + "_" + info.param.routing +
             "_vc" + std::to_string(info.param.vcs) + "_p" +
             std::to_string(info.param.pipeline);
    });

TEST(PhasedWorkload, PhaseLookupAndLooping) {
  const Topology mesh = make_topology("mesh", 4, 4);
  std::vector<Phase> phases = {{"uniform", 0.05, 100.0, "bernoulli"},
                               {"hotspot", 0.1, 50.0, "bernoulli"}};
  PhasedWorkload w(mesh, phases);
  EXPECT_EQ(w.phase_index(0.0), 0u);
  EXPECT_EQ(w.phase_index(99.9), 0u);
  EXPECT_EQ(w.phase_index(100.0), 1u);
  EXPECT_EQ(w.phase_index(149.9), 1u);
  EXPECT_EQ(w.phase_index(150.0), 0u);  // loops
  EXPECT_DOUBLE_EQ(w.total_duration(), 150.0);
}

}  // namespace
}  // namespace drlnoc::noc
