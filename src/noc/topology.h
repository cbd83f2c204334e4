// Topology descriptions: who connects to whom and through which ports.
// A topology is a static graph; routers and channels are instantiated from it
// by Network. Port 0 of every router is the local (NIC) port.
#pragma once

#include <memory>
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

/// Abstract interconnect topology.
class Topology {
 public:
  virtual ~Topology() = default;

  virtual std::string name() const = 0;
  virtual int num_nodes() const = 0;
  /// Number of ports per router, including the local port (uniform radix).
  virtual int radix() const = 0;
  /// All directed inter-router links.
  virtual std::vector<Link> links() const = 0;
  /// Minimal router-to-router hop count (for latency lower bounds and
  /// oracle checks). Returns 0 when src == dst.
  virtual int min_hops(NodeId src, NodeId dst) const = 0;
  /// Number of VC classes required for deadlock freedom (1 for mesh,
  /// 2 for ring/torus dateline scheme).
  virtual int required_vc_classes() const = 0;

  /// Downstream endpoint of (node, out_port); nullopt for the local port or
  /// an unconnected port.
  std::optional<LinkEnd> neighbor(NodeId node, PortId out_port) const;
  /// Whether (node, out_port) crosses a dateline.
  bool crosses_dateline(NodeId node, PortId out_port) const;

 protected:
  /// Builds the adjacency cache keyed by node*radix+port from links().
  /// Every concrete topology calls it at the end of its constructor, so a
  /// constructed topology is immutable and safe to share across threads.
  void build_cache();

 private:
  std::vector<std::optional<LinkEnd>> neighbor_cache_;
  std::vector<bool> dateline_cache_;
};

/// 2-D mesh; ports: 0=local, 1=east(+x), 2=west(-x), 3=north(+y), 4=south(-y).
class Mesh2D : public Topology {
 public:
  Mesh2D(int width, int height);

  std::string name() const override;
  int num_nodes() const override { return width_ * height_; }
  int radix() const override { return 5; }
  std::vector<Link> links() const override;
  int min_hops(NodeId src, NodeId dst) const override;
  int required_vc_classes() const override { return 1; }

  int width() const { return width_; }
  int height() const { return height_; }
  int x_of(NodeId n) const { return n % width_; }
  int y_of(NodeId n) const { return n / width_; }
  NodeId node_at(int x, int y) const { return y * width_ + x; }

 private:
  int width_;
  int height_;
};

/// 2-D torus; same port convention as Mesh2D, wrap links marked as datelines
/// on the (max -> 0) crossing in each dimension.
class Torus2D : public Topology {
 public:
  Torus2D(int width, int height);

  std::string name() const override;
  int num_nodes() const override { return width_ * height_; }
  int radix() const override { return 5; }
  std::vector<Link> links() const override;
  int min_hops(NodeId src, NodeId dst) const override;
  int required_vc_classes() const override { return 2; }

  int width() const { return width_; }
  int height() const { return height_; }
  int x_of(NodeId n) const { return n % width_; }
  int y_of(NodeId n) const { return n / width_; }
  NodeId node_at(int x, int y) const { return y * width_ + x; }

 private:
  int width_;
  int height_;
};

/// Bidirectional ring; ports: 0=local, 1=clockwise(+), 2=counter-clockwise(-).
class Ring : public Topology {
 public:
  explicit Ring(int nodes);

  std::string name() const override;
  int num_nodes() const override { return nodes_; }
  int radix() const override { return 3; }
  std::vector<Link> links() const override;
  int min_hops(NodeId src, NodeId dst) const override;
  int required_vc_classes() const override { return 2; }

 private:
  int nodes_;
};

/// Factory: "mesh" (width,height), "torus" (width,height), "ring" (nodes).
std::unique_ptr<Topology> make_topology(const std::string& kind, int width,
                                        int height);

}  // namespace drlnoc::noc
