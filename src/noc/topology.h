// Topology descriptions: who connects to whom and through which ports.
// A topology is a static graph; routers and channels are instantiated from it
// by Network. Port 0 of every router is the local (NIC) port.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "noc/types.h"

namespace drlnoc::noc {

/// Endpoint of a directed inter-router link.
struct LinkEnd {
  NodeId node = kInvalidNode;
  PortId port = 0;
};

/// Directed inter-router link (used by Network when wiring channels).
struct Link {
  LinkEnd from;  ///< output side
  LinkEnd to;    ///< input side
  /// True when the link wraps around a torus/ring dimension (dateline);
  /// packets crossing it must switch VC class to stay deadlock-free.
  bool dateline = false;
};

/// Interconnect topology: a kind over a width x height grid of nodes, node
/// id = y * width + x. A ring of N nodes is an N x 1 grid.
///
/// Mesh and torus ports: 0=local, 1=east(+x), 2=west(-x), 3=north(+y),
/// 4=south(-y); the torus marks each wrap link as a dateline. Ring ports:
/// 0=local, 1=clockwise(+), 2=counter-clockwise(-); the (N-1 <-> 0) link is
/// the dateline. A value type: trivially copyable, built by make_topology.
class Topology final {
 public:
  enum class Kind : std::uint8_t { kMesh, kTorus, kRing };

  Kind kind() const { return kind_; }
  std::string name() const;
  int width() const { return width_; }
  int height() const { return height_; }
  int num_nodes() const { return width_ * height_; }
  int x_of(NodeId n) const { return n % width_; }
  int y_of(NodeId n) const { return n / width_; }
  NodeId node_at(int x, int y) const { return y * width_ + x; }

  /// Number of ports per router, including the local port (uniform radix).
  int radix() const { return kind_ == Kind::kRing ? 3 : 5; }
  /// All directed inter-router links.
  std::vector<Link> links() const;
  /// Minimal router-to-router hop count (for latency lower bounds and
  /// oracle checks). Returns 0 when src == dst.
  int min_hops(NodeId src, NodeId dst) const;
  /// Number of VC classes required for deadlock freedom (1 for mesh,
  /// 2 for ring/torus dateline scheme).
  int required_vc_classes() const { return kind_ == Kind::kMesh ? 1 : 2; }

  /// Downstream endpoint of (node, out_port); nullopt for the local port or
  /// an unconnected port.
  std::optional<LinkEnd> neighbor(NodeId node, PortId out_port) const;
  /// Whether (node, out_port) crosses a dateline.
  bool crosses_dateline(NodeId node, PortId out_port) const;

 private:
  friend Topology make_topology(const std::string& kind, int width,
                                int height);
  Topology(Kind kind, int width, int height)
      : kind_(kind), width_(width), height_(height) {}

  Kind kind_;
  int width_;
  int height_;
};

/// Builder: "mesh" (width >= 2, height >= 1), "torus" (width, height >= 3),
/// "ring" (width * height >= 3 nodes). Throws std::invalid_argument
/// otherwise.
Topology make_topology(const std::string& kind, int width, int height);

}  // namespace drlnoc::noc
