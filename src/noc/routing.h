// Routing algorithms. A routing function maps (current router, input port,
// head flit) to an ordered list of candidate output ports, each with the VC
// *class* the packet must use on that hop (dateline deadlock avoidance on
// rings/tori). Deterministic algorithms return one candidate; adaptive ones
// return several and the router picks by downstream credit availability.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noc/topology.h"
#include "noc/types.h"

namespace drlnoc::noc {

struct RouteChoice {
  PortId port = kLocalPort;
  std::uint8_t vc_class = 0;  ///< admissible VC class on the chosen link
};

/// One routing function over its own copy of the topology. A value type,
/// built by make_routing:
///   - kXY, kYX: deterministic dimension order on a mesh.
///   - kWestFirst: turn-model adaptive on a mesh (Glass & Ni); westward
///     hops are taken first and deterministically, east/north/south
///     segments are fully adaptive.
///   - kOddEven: turn-model adaptive on a mesh (Chiu 2000).
///   - kTorusDimOrder: dimension order on a torus with minimal wrap
///     direction and dateline VC classes: a packet moves to class 1 after
///     crossing the wrap link of the dimension it is travelling in, and
///     resets to class 0 when it enters a new dimension.
///   - kRingMinimal: shortest direction on a ring with dateline classes.
///
/// Degraded mode: after recompute() the value routes every packet on a
/// minimal path over the surviving links (a BFS table) instead.
class RoutingAlgorithm final {
 public:
  enum class Kind : std::uint8_t {
    kXY,
    kYX,
    kWestFirst,
    kOddEven,
    kTorusDimOrder,
    kRingMinimal,
  };

  Kind kind() const { return kind_; }

  /// Appends candidates (preference order) for `flit` at router `node`
  /// arriving via `in_port` (kLocalPort for freshly injected packets).
  /// Always produces at least one candidate; candidates never include the
  /// inbound port (no U-turns) except as a degraded last resort.
  void route(const Flit& flit, NodeId node, PortId in_port,
             std::vector<RouteChoice>& out) const;

  /// Switches to degraded mode around `dead` (indexed node*radix+port,
  /// nonzero = dead), rebuilding the live-hop distance table. Throws
  /// std::runtime_error naming an unreachable (src, dst) pair when the
  /// surviving links disconnect the topology.
  void recompute(const std::vector<std::uint8_t>& dead);
  bool degraded() const { return !dist_.empty(); }

 private:
  friend RoutingAlgorithm make_routing(const std::string& kind,
                                       const Topology& topo);
  RoutingAlgorithm(Kind kind, const Topology& topo)
      : kind_(kind), topo_(topo) {}

  /// route() in degraded mode: the lowest-numbered live port on a minimal
  /// surviving path.
  void route_degraded(const Flit& flit, NodeId node, PortId in_port,
                      std::vector<RouteChoice>& out) const;

  Kind kind_;
  Topology topo_;
  std::vector<std::uint8_t> dead_;  ///< copy of the live dead-link flags
  /// dist_[dst * n + node]: live hop count from `node` to `dst`; empty
  /// while healthy.
  std::vector<std::int16_t> dist_;
};

/// Builder. `kind`: "xy", "yx", "westfirst", "oddeven" (mesh);
/// "torus_dor" (torus); "ring_shortest" (ring). "auto" picks the natural
/// deterministic algorithm for the topology. Throws std::invalid_argument
/// for an unknown kind or one the topology cannot use.
RoutingAlgorithm make_routing(const std::string& kind, const Topology& topo);

}  // namespace drlnoc::noc
