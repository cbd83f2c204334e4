#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "noc/traffic.h"
#include "noc/topology.h"
#include "util/stats.h"

namespace drlnoc::noc {
namespace {

TEST(UniformTraffic, NeverSelfAndCoversAll) {
  const TrafficPattern u = make_pattern("uniform", make_topology("mesh", 4, 4));
  util::Rng rng(1);
  std::map<NodeId, int> counts;
  for (int i = 0; i < 32000; ++i) {
    const NodeId d = u.dest(3, rng);
    ASSERT_NE(d, 3);
    ASSERT_GE(d, 0);
    ASSERT_LT(d, 16);
    ++counts[d];
  }
  EXPECT_EQ(counts.size(), 15u);
  for (const auto& [node, c] : counts) EXPECT_NEAR(c, 32000 / 15, 300);
}

TEST(TransposeTraffic, MapsCoordinates) {
  const TrafficPattern t =
      make_pattern("transpose", make_topology("mesh", 4, 4));
  util::Rng rng(1);
  // (1,2)=9 -> (2,1)=6.
  EXPECT_EQ(t.dest(9, rng), 6);
  // Diagonal maps to itself -> no packet.
  EXPECT_EQ(t.dest(0, rng), kInvalidNode);
  EXPECT_EQ(t.dest(5, rng), kInvalidNode);
  EXPECT_THROW(make_pattern("transpose", make_topology("mesh", 4, 3)),
               std::invalid_argument);
}

TEST(BitCompTraffic, Complements) {
  const TrafficPattern b = make_pattern("bitcomp", make_topology("mesh", 4, 4));
  util::Rng rng(1);
  EXPECT_EQ(b.dest(0, rng), 15);
  EXPECT_EQ(b.dest(5, rng), 10);
  EXPECT_THROW(make_pattern("bitcomp", make_topology("mesh", 4, 3)),
               std::invalid_argument);
}

TEST(BitRevTraffic, ReversesBits) {
  const TrafficPattern b = make_pattern("bitrev", make_topology("ring", 8, 1));
  util::Rng rng(1);
  EXPECT_EQ(b.dest(1, rng), 4);   // 001 -> 100
  EXPECT_EQ(b.dest(3, rng), 6);   // 011 -> 110
  EXPECT_EQ(b.dest(2, rng), kInvalidNode);  // 010 -> 010 self
}

TEST(ShuffleTraffic, RotatesLeft) {
  const TrafficPattern s = make_pattern("shuffle", make_topology("mesh", 4, 2));
  util::Rng rng(1);
  EXPECT_EQ(s.dest(1, rng), 2);   // 001 -> 010
  EXPECT_EQ(s.dest(4, rng), 1);   // 100 -> 001
  EXPECT_EQ(s.dest(0, rng), kInvalidNode);
  EXPECT_EQ(s.dest(7, rng), kInvalidNode);
}

TEST(TornadoTraffic, HalfwayAround) {
  const TrafficPattern t = make_pattern("tornado", make_topology("mesh", 8, 8));
  util::Rng rng(1);
  // (0,0) -> (3,3) for 8x8: offset ceil(8/2)-1 = 3.
  EXPECT_EQ(t.dest(0, rng), 3 * 8 + 3);
}

TEST(NeighborTraffic, NextInRow) {
  const TrafficPattern n =
      make_pattern("neighbor", make_topology("mesh", 4, 4));
  util::Rng rng(1);
  EXPECT_EQ(n.dest(0, rng), 1);
  EXPECT_EQ(n.dest(3, rng), 0);   // wraps within the row
  EXPECT_EQ(n.dest(5, rng), 6);
}

TEST(HotspotTraffic, ConcentratesOnHotspots) {
  // On 8x8 the hotspots are the centre block 27, 28, 35, 36.
  const TrafficPattern h = make_pattern("hotspot", make_topology("mesh", 8, 8));
  util::Rng rng(2);
  int hot = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    const NodeId d = h.dest(0, rng);
    ASSERT_NE(d, 0);
    if (d == 27 || d == 28 || d == 35 || d == 36) ++hot;
  }
  // 50% targeted + ~4/63 of the uniform half.
  EXPECT_NEAR(static_cast<double>(hot) / trials, 0.5 + 0.5 * 4.0 / 63.0, 0.02);
}

TEST(HotspotTraffic, Validation) {
  // The hotspot block is placed from the geometry alone, so on the
  // smallest grids, tori and rings it must still name real nodes other
  // than the source.
  const Topology mesh21 = make_topology("mesh", 2, 1);
  const Topology mesh22 = make_topology("mesh", 2, 2);
  const Topology mesh23 = make_topology("mesh", 2, 3);
  const Topology mesh33 = make_topology("mesh", 3, 3);
  const Topology torus = make_topology("torus", 4, 4);
  const Topology ring3 = make_topology("ring", 3, 1);
  const Topology ring5 = make_topology("ring", 5, 1);
  const Topology* topos[] = {&mesh21, &mesh22, &mesh23, &mesh33,
                             &torus,  &ring3,  &ring5};
  for (const Topology* topo : topos) {
    const TrafficPattern h = make_pattern("hotspot", *topo);
    util::Rng rng(4);
    for (NodeId src = 0; src < topo->num_nodes(); ++src) {
      for (int i = 0; i < 200; ++i) {
        const NodeId d = h.dest(src, rng);
        ASSERT_GE(d, 0) << topo->name();
        ASSERT_LT(d, topo->num_nodes()) << topo->name();
        ASSERT_NE(d, src) << topo->name();
      }
    }
  }
}

TEST(PatternFactory, AllKinds) {
  const Topology mesh = make_topology("mesh", 4, 4);
  for (const char* kind : {"uniform", "transpose", "bitcomp", "bitrev",
                           "shuffle", "tornado", "neighbor", "hotspot"}) {
    EXPECT_NO_THROW(make_pattern(kind, mesh)) << kind;
  }
  EXPECT_THROW(make_pattern("nope", mesh), std::invalid_argument);
  // The power-of-two patterns refuse 12 nodes; transpose a 4x3 grid.
  const Topology mesh43 = make_topology("mesh", 4, 3);
  for (const char* kind : {"transpose", "bitcomp", "bitrev", "shuffle"}) {
    EXPECT_THROW(make_pattern(kind, mesh43), std::invalid_argument) << kind;
  }
  for (const char* kind : {"uniform", "tornado", "neighbor", "hotspot"}) {
    EXPECT_EQ(make_pattern(kind, mesh43).name(), kind);
  }
}

TEST(BernoulliInjection, MatchesRate) {
  InjectionProcess inj = make_injection("bernoulli", 1, 0.1);
  util::Rng rng(3);
  int fires = 0;
  for (int i = 0; i < 100000; ++i) fires += inj.fire(0, rng);
  EXPECT_NEAR(fires / 100000.0, 0.1, 0.005);
}

TEST(BurstInjection, LongRunMeanMatchesRate) {
  InjectionProcess inj = make_injection("burst", 1, 0.05);
  util::Rng rng(5);
  int fires = 0;
  const int trials = 400000;
  for (int i = 0; i < trials; ++i) fires += inj.fire(0, rng);
  EXPECT_NEAR(fires / static_cast<double>(trials), 0.05, 0.01);
}

TEST(BurstInjection, IsActuallyBursty) {
  // Variance of per-window counts must exceed Bernoulli's.
  const double rate = 0.05;
  util::Rng rng(7);
  InjectionProcess burst = make_injection("burst", 1, rate);
  InjectionProcess bern = make_injection("bernoulli", 1, rate);
  auto window_variance = [&](InjectionProcess& p) {
    util::Accumulator acc;
    for (int w = 0; w < 400; ++w) {
      int count = 0;
      for (int i = 0; i < 200; ++i) count += p.fire(0, rng);
      acc.add(count);
    }
    return acc.variance();
  };
  EXPECT_GT(window_variance(burst), 2.0 * window_variance(bern));
}

TEST(InjectionFactory, Kinds) {
  EXPECT_NO_THROW(make_injection("bernoulli", 4, 0.1));
  EXPECT_NO_THROW(make_injection("burst", 4, 0.1));
  EXPECT_THROW(make_injection("pareto", 4, 0.1), std::invalid_argument);
  // Rates are packets/node/core-cycle, so [0, 1].
  for (const char* kind : {"bernoulli", "burst"}) {
    EXPECT_NO_THROW(make_injection(kind, 4, 0.0)) << kind;
    EXPECT_THROW(make_injection(kind, 4, -0.1), std::invalid_argument) << kind;
    EXPECT_THROW(make_injection(kind, 4, 1.5), std::invalid_argument) << kind;
    EXPECT_THROW(make_injection(kind, 4, std::nan("")),
                 std::invalid_argument) << kind;
  }
}

TEST(BurstInjection, RefusesRatesAboveItsDutyCycle) {
  // ON 20% of the time, a burst node would need an ON-state rate above 1
  // to average more than 0.2; the process refuses instead of clamping.
  EXPECT_NO_THROW(make_injection("burst", 4, 0.2));
  EXPECT_THROW(make_injection("burst", 4, 0.21), std::invalid_argument);
  EXPECT_THROW(make_injection("burst", 4, 0.9), std::invalid_argument);
  EXPECT_NO_THROW(make_injection("bernoulli", 4, 0.9));
  // At the cap every ON cycle fires, so the long-run mean is the cap.
  InjectionProcess inj = make_injection("burst", 1, 0.2);
  util::Rng rng(9);
  int fires = 0;
  const int trials = 400000;
  for (int i = 0; i < trials; ++i) fires += inj.fire(0, rng);
  EXPECT_NEAR(fires / static_cast<double>(trials), 0.2, 0.02);
}

}  // namespace
}  // namespace drlnoc::noc
