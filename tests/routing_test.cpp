#include <gtest/gtest.h>

#include "noc/routing.h"

namespace drlnoc::noc {
namespace {

constexpr PortId kEast = 1, kWest = 2, kNorth = 3, kSouth = 4;

Flit head_flit(NodeId src, NodeId dst, std::uint8_t cls = 0) {
  Flit f;
  f.src = src;
  f.dst = dst;
  f.type = FlitType::kHead;
  f.vc_class = cls;
  return f;
}

// Walks a deterministic route from src to dst and returns the hop count;
// asserts progress and termination.
int walk(const Topology& topo, const RoutingAlgorithm& algo, NodeId src,
         NodeId dst) {
  Flit f = head_flit(src, dst);
  NodeId cur = src;
  PortId in_port = kLocalPort;
  int hops = 0;
  while (true) {
    std::vector<RouteChoice> cands;
    algo.route(f, cur, in_port, cands);
    EXPECT_FALSE(cands.empty());
    const RouteChoice c = cands.front();
    if (c.port == kLocalPort) {
      EXPECT_EQ(cur, dst);
      return hops;
    }
    const auto next = topo.neighbor(cur, c.port);
    EXPECT_TRUE(next.has_value());
    f.vc_class = c.vc_class;
    in_port = next->port;
    cur = next->node;
    ++hops;
    EXPECT_LE(hops, 4 * topo.num_nodes()) << "routing loop";
    if (hops > 4 * topo.num_nodes()) return hops;
  }
}

TEST(MeshXY, RoutesXThenY) {
  const Topology mesh = make_topology("mesh", 4, 4);
  const RoutingAlgorithm xy = make_routing("xy", mesh);
  std::vector<RouteChoice> cands;
  // From (0,0) to (2,3): must go east first.
  xy.route(head_flit(0, mesh.node_at(2, 3)), 0, kLocalPort, cands);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].port, kEast);
  cands.clear();
  // Same column: go north.
  xy.route(head_flit(0, mesh.node_at(0, 3)), 0, kLocalPort, cands);
  EXPECT_EQ(cands[0].port, kNorth);
  cands.clear();
  // At destination: local.
  xy.route(head_flit(0, 5), 5, kWest, cands);
  EXPECT_EQ(cands[0].port, kLocalPort);
}

TEST(MeshYX, RoutesYThenX) {
  const Topology mesh = make_topology("mesh", 4, 4);
  const RoutingAlgorithm yx = make_routing("yx", mesh);
  std::vector<RouteChoice> cands;
  yx.route(head_flit(0, mesh.node_at(2, 3)), 0, kLocalPort, cands);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].port, kNorth);
}

class MinimalRoutingWalk
    : public ::testing::TestWithParam<const char*> {};

// Property: every (src, dst) pair is delivered in exactly min_hops hops for
// the deterministic and the adaptive (first-candidate) mesh algorithms.
TEST_P(MinimalRoutingWalk, DeliversInMinimalHops) {
  const Topology mesh = make_topology("mesh", 5, 4);
  const RoutingAlgorithm algo = make_routing(GetParam(), mesh);
  for (NodeId s = 0; s < mesh.num_nodes(); ++s) {
    for (NodeId d = 0; d < mesh.num_nodes(); ++d) {
      if (s == d) continue;
      EXPECT_EQ(walk(mesh, algo, s, d), mesh.min_hops(s, d))
          << "src=" << s << " dst=" << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MeshAlgos, MinimalRoutingWalk,
                         ::testing::Values("xy", "yx", "westfirst",
                                           "oddeven"));

TEST(MeshWestFirst, WestIsExclusive) {
  const Topology mesh = make_topology("mesh", 5, 5);
  const RoutingAlgorithm wf = make_routing("westfirst", mesh);
  std::vector<RouteChoice> cands;
  // Destination strictly west and north: only west allowed first.
  wf.route(head_flit(mesh.node_at(3, 1), mesh.node_at(1, 3)),
           mesh.node_at(3, 1), kLocalPort, cands);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].port, kWest);
  cands.clear();
  // Destination east and north: both adaptive candidates offered.
  wf.route(head_flit(mesh.node_at(1, 1), mesh.node_at(3, 3)),
           mesh.node_at(1, 1), kLocalPort, cands);
  EXPECT_EQ(cands.size(), 2u);
}

TEST(MeshOddEven, ForbidsEastTurnsAtEvenColumns) {
  const Topology mesh = make_topology("mesh", 6, 6);
  const RoutingAlgorithm oe = make_routing("oddeven", mesh);
  // Chiu rule 1: at an even column (not the source column), an eastbound
  // packet may not turn north/south -> candidates restricted.
  std::vector<RouteChoice> cands;
  // src odd column so "cur_x == src_x" does not apply; cur at even column 2,
  // dest east and north with ex == 1 and even dest column 3? dest column 3 is
  // odd -> east allowed; vertical not allowed (even column, cx != sx).
  const NodeId src = mesh.node_at(1, 0);
  const NodeId cur = mesh.node_at(2, 0);
  const NodeId dst = mesh.node_at(3, 2);
  Flit f = head_flit(src, dst);
  oe.route(f, cur, kWest, cands);
  for (const auto& c : cands) {
    EXPECT_TRUE(c.port == kEast) << "unexpected candidate port " << c.port;
  }
}

TEST(TorusDor, UsesShortestWrapDirection) {
  const Topology torus = make_topology("torus", 6, 6);
  const RoutingAlgorithm dor = make_routing("torus_dor", torus);
  std::vector<RouteChoice> cands;
  // From x=0 to x=5: west (wrap) is 1 hop, east is 5 hops.
  dor.route(head_flit(torus.node_at(0, 0), torus.node_at(5, 0)),
            torus.node_at(0, 0), kLocalPort, cands);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].port, kWest);
  // Crossing the -x wrap sets class 1.
  EXPECT_EQ(cands[0].vc_class, 1);
}

TEST(TorusDor, DatelineClassResetsOnDimensionChange) {
  const Topology torus = make_topology("torus", 6, 6);
  const RoutingAlgorithm dor = make_routing("torus_dor", torus);
  std::vector<RouteChoice> cands;
  // Packet that crossed the x dateline (class 1) now turns into y at an
  // x-port entry: class must reset to 0 unless the y hop wraps.
  Flit f = head_flit(torus.node_at(0, 0), torus.node_at(5, 2), /*cls=*/1);
  // Currently at destination column x=5 arriving from east-west travel.
  dor.route(f, torus.node_at(5, 0), kEast, cands);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].port, kNorth);
  EXPECT_EQ(cands[0].vc_class, 0);
}

TEST(TorusDor, DeliversAllPairsMinimally) {
  const Topology torus = make_topology("torus", 5, 5);
  const RoutingAlgorithm dor = make_routing("torus_dor", torus);
  for (NodeId s = 0; s < torus.num_nodes(); ++s) {
    for (NodeId d = 0; d < torus.num_nodes(); ++d) {
      if (s == d) continue;
      EXPECT_EQ(walk(torus, dor, s, d), torus.min_hops(s, d));
    }
  }
}

TEST(RingShortest, PicksShortSideAndDatelines) {
  const Topology ring = make_topology("ring", 8, 1);
  const RoutingAlgorithm rs = make_routing("ring_shortest", ring);
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId d = 0; d < 8; ++d) {
      if (s == d) continue;
      EXPECT_EQ(walk(ring, rs, s, d), ring.min_hops(s, d));
    }
  }
}

TEST(RoutingFactory, AutoPicksNaturalAlgorithm) {
  const Topology mesh = make_topology("mesh", 4, 4);
  const Topology torus = make_topology("torus", 4, 4);
  const Topology ring = make_topology("ring", 6, 1);
  using Kind = RoutingAlgorithm::Kind;
  EXPECT_EQ(make_routing("auto", mesh).kind(), Kind::kXY);
  EXPECT_EQ(make_routing("auto", torus).kind(), Kind::kTorusDimOrder);
  EXPECT_EQ(make_routing("auto", ring).kind(), Kind::kRingMinimal);
  EXPECT_THROW(make_routing("xy", torus), std::invalid_argument);
}

}  // namespace
}  // namespace drlnoc::noc
