#include "noc/routing.h"

#include <cassert>
#include <iterator>
#include <stdexcept>

namespace drlnoc::noc {

namespace {
constexpr PortId kEast = 1;
constexpr PortId kWest = 2;
constexpr PortId kNorth = 3;
constexpr PortId kSouth = 4;
constexpr PortId kCw = 1;
constexpr PortId kCcw = 2;

// Indexed by RoutingAlgorithm::Kind.
constexpr const char* kRoutingNames[] = {
    "xy", "yx", "westfirst", "oddeven", "torus_dor", "ring_shortest"};

// Dimension of a mesh/torus port: 0 = x, 1 = y, -1 = local.
int dim_of(PortId p) {
  if (p == kEast || p == kWest) return 0;
  if (p == kNorth || p == kSouth) return 1;
  return -1;
}

/// BFS live-hop distances toward every destination over the surviving
/// directed links. dist[dst * n + node] is the hop count from `node` to
/// `dst`; throws when any pair is disconnected.
std::vector<std::int16_t> live_distances(
    const Topology& topo, const std::vector<std::uint8_t>& dead) {
  const int n = topo.num_nodes();
  const int radix = topo.radix();
  constexpr std::int16_t kUnreachable = -1;
  std::vector<std::int16_t> dist(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kUnreachable);

  // Reverse adjacency of the surviving links: rev[v] lists the nodes u with
  // a live directed link u -> v. Built once; reused by every BFS.
  std::vector<std::vector<NodeId>> rev(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    for (PortId p = 1; p < radix; ++p) {
      if (dead[static_cast<std::size_t>(u * radix + p)] != 0) continue;
      const auto nb = topo.neighbor(u, p);
      if (!nb) continue;
      rev[static_cast<std::size_t>(nb->node)].push_back(u);
    }
  }

  std::vector<NodeId> queue;
  queue.reserve(static_cast<std::size_t>(n));
  for (NodeId dst = 0; dst < n; ++dst) {
    std::int16_t* d = &dist[static_cast<std::size_t>(dst) *
                            static_cast<std::size_t>(n)];
    queue.clear();
    d[dst] = 0;
    queue.push_back(dst);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      for (const NodeId u : rev[static_cast<std::size_t>(v)]) {
        if (d[u] != kUnreachable) continue;
        d[u] = static_cast<std::int16_t>(d[v] + 1);
        queue.push_back(u);
      }
    }
    if (queue.size() != static_cast<std::size_t>(n)) {
      for (NodeId u = 0; u < n; ++u) {
        if (d[u] == kUnreachable) {
          throw std::runtime_error(
              "fault model: link failures disconnect the topology: node " +
              std::to_string(u) + " cannot reach node " + std::to_string(dst));
        }
      }
    }
  }
  return dist;
}
}  // namespace

void RoutingAlgorithm::route(const Flit& flit, NodeId node, PortId in_port,
                             std::vector<RouteChoice>& out) const {
  if (degraded()) {
    route_degraded(flit, node, in_port, out);
    return;
  }
  const Topology& t = topo_;
  switch (kind_) {
    case Kind::kXY: {
      const int cx = t.x_of(node), cy = t.y_of(node);
      const int dx = t.x_of(flit.dst) - cx, dy = t.y_of(flit.dst) - cy;
      if (dx > 0) out.push_back({kEast, 0});
      else if (dx < 0) out.push_back({kWest, 0});
      else if (dy > 0) out.push_back({kNorth, 0});
      else if (dy < 0) out.push_back({kSouth, 0});
      else out.push_back({kLocalPort, 0});
      return;
    }
    case Kind::kYX: {
      const int cx = t.x_of(node), cy = t.y_of(node);
      const int dx = t.x_of(flit.dst) - cx, dy = t.y_of(flit.dst) - cy;
      if (dy > 0) out.push_back({kNorth, 0});
      else if (dy < 0) out.push_back({kSouth, 0});
      else if (dx > 0) out.push_back({kEast, 0});
      else if (dx < 0) out.push_back({kWest, 0});
      else out.push_back({kLocalPort, 0});
      return;
    }
    case Kind::kWestFirst: {
      const int cx = t.x_of(node), cy = t.y_of(node);
      const int dx = t.x_of(flit.dst) - cx, dy = t.y_of(flit.dst) - cy;
      if (dx == 0 && dy == 0) {
        out.push_back({kLocalPort, 0});
        return;
      }
      if (dx < 0) {
        // West-first rule: all westward hops are taken before anything else.
        out.push_back({kWest, 0});
        return;
      }
      // Adaptive among the remaining minimal directions (east / north /
      // south).
      if (dx > 0) out.push_back({kEast, 0});
      if (dy > 0) out.push_back({kNorth, 0});
      if (dy < 0) out.push_back({kSouth, 0});
      return;
    }
    case Kind::kOddEven: {
      // Chiu's ROUTE function. Even columns forbid E->N and E->S turns; odd
      // columns forbid N->W and S->W turns; the candidate set below respects
      // both restrictions and stays minimal.
      const int cx = t.x_of(node), cy = t.y_of(node);
      const int sx = t.x_of(flit.src);
      const int dxl = t.x_of(flit.dst), dyl = t.y_of(flit.dst);
      const int ex = dxl - cx, ey = dyl - cy;
      if (ex == 0 && ey == 0) {
        out.push_back({kLocalPort, 0});
        return;
      }
      auto vertical = [&] { out.push_back({ey > 0 ? kNorth : kSouth, 0}); };
      if (ex == 0) {
        vertical();
        return;
      }
      if (ex > 0) {  // eastbound
        if (ey == 0) {
          out.push_back({kEast, 0});
          return;
        }
        if ((cx % 2 == 1) || cx == sx) vertical();
        if ((dxl % 2 == 1) || ex != 1) out.push_back({kEast, 0});
      } else {  // westbound
        out.push_back({kWest, 0});
        if (cx % 2 == 0 && ey != 0) vertical();
      }
      assert(!out.empty());
      return;
    }
    case Kind::kTorusDimOrder: {
      const int w = t.width(), h = t.height();
      const int cx = t.x_of(node), cy = t.y_of(node);
      const int dx = t.x_of(flit.dst), dy = t.y_of(flit.dst);

      PortId port;
      if (cx != dx) {
        // Minimal direction in x; ties go east.
        const int fwd = (dx - cx + w) % w;  // hops going east
        port = (fwd <= w - fwd) ? kEast : kWest;
      } else if (cy != dy) {
        const int fwd = (dy - cy + h) % h;
        port = (fwd <= h - fwd) ? kNorth : kSouth;
      } else {
        out.push_back({kLocalPort, 0});
        return;
      }

      // Dateline class: reset to 0 when entering a new dimension, escalate
      // to 1 when this hop crosses the wrap link of the current dimension.
      std::uint8_t cls =
          (dim_of(in_port) == dim_of(port)) ? flit.vc_class : std::uint8_t{0};
      if (t.crosses_dateline(node, port)) cls = 1;
      out.push_back({port, cls});
      return;
    }
    case Kind::kRingMinimal: {
      const int n = t.num_nodes();
      if (node == flit.dst) {
        out.push_back({kLocalPort, 0});
        return;
      }
      const int fwd = (flit.dst - node + n) % n;  // hops clockwise
      const PortId port = (fwd <= n - fwd) ? kCw : kCcw;
      std::uint8_t cls = flit.vc_class;  // one dimension: class persists
      if (t.crosses_dateline(node, port)) cls = 1;
      out.push_back({port, cls});
      return;
    }
  }
}

void RoutingAlgorithm::recompute(const std::vector<std::uint8_t>& dead) {
  dist_ = live_distances(topo_, dead);
  dead_ = dead;
}

void RoutingAlgorithm::route_degraded(const Flit& flit, NodeId node,
                                      PortId in_port,
                                      std::vector<RouteChoice>& out) const {
  if (node == flit.dst) {
    out.push_back(RouteChoice{kLocalPort, flit.vc_class});
    return;
  }
  const auto n = static_cast<std::size_t>(topo_.num_nodes());
  const std::int16_t* d = &dist_[static_cast<std::size_t>(flit.dst) * n];
  const int radix = topo_.radix();
  // Lowest-numbered live port on a minimal surviving path. Ascending port
  // order is east/west before north/south on meshes, biasing the detour
  // toward dimension order. A U-turn is only admissible as a last resort:
  // it can appear transiently when a recompute flips distances under a
  // packet already past `node`.
  PortId u_turn = -1;
  for (PortId p = 1; p < radix; ++p) {
    if (dead_[static_cast<std::size_t>(node * radix + p)] != 0) continue;
    const auto nb = topo_.neighbor(node, p);
    if (!nb) continue;
    if (d[nb->node] + 1 != d[node]) continue;
    // Dateline classes never reset under degraded routing: detours may mix
    // dimensions mid-path, so the conservative rule (escalate on every
    // dateline crossing, never de-escalate) keeps ring/torus wrap cycles
    // broken at the cost of restricting detoured packets to class 1.
    std::uint8_t cls = flit.vc_class;
    if (topo_.crosses_dateline(node, p)) cls = 1;
    if (p == in_port) {
      u_turn = p;
      continue;
    }
    out.push_back(RouteChoice{p, cls});
    return;
  }
  if (u_turn >= 0) {
    std::uint8_t cls = flit.vc_class;
    if (topo_.crosses_dateline(node, u_turn)) cls = 1;
    out.push_back(RouteChoice{u_turn, cls});
    return;
  }
  throw std::runtime_error(
      "fault routing: no live minimal port at node " + std::to_string(node) +
      " toward " + std::to_string(flit.dst));
}

RoutingAlgorithm make_routing(const std::string& kind, const Topology& topo) {
  using Kind = RoutingAlgorithm::Kind;
  const Topology::Kind tk = topo.kind();
  // Each topology's deterministic algorithm: what "auto" picks, and the
  // only one a torus or a ring takes.
  const Kind natural = tk == Topology::Kind::kTorus  ? Kind::kTorusDimOrder
                       : tk == Topology::Kind::kRing ? Kind::kRingMinimal
                                                     : Kind::kXY;
  if (kind == "auto") return RoutingAlgorithm(natural, topo);
  for (std::size_t i = 0; i < std::size(kRoutingNames); ++i) {
    if (kind != kRoutingNames[i]) continue;
    const auto k = static_cast<Kind>(i);
    // The four mesh algorithms come first in Kind.
    if (tk == Topology::Kind::kMesh ? k <= Kind::kOddEven : k == natural) {
      return RoutingAlgorithm(k, topo);
    }
  }
  throw std::invalid_argument("routing '" + kind +
                              "' incompatible with topology " + topo.name());
}

}  // namespace drlnoc::noc
