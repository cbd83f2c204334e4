#include "noc/topology.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace drlnoc::noc {

namespace {
// Shared port convention for the 2-D topologies.
constexpr PortId kEast = 1;
constexpr PortId kWest = 2;
constexpr PortId kNorth = 3;
constexpr PortId kSouth = 4;
constexpr PortId kCw = 1;
constexpr PortId kCcw = 2;
}  // namespace

void Topology::build_cache() {
  const int slots = num_nodes() * radix();
  neighbor_cache_.assign(static_cast<std::size_t>(slots), std::nullopt);
  dateline_cache_.assign(static_cast<std::size_t>(slots), false);
  for (const Link& link : links()) {
    const auto idx =
        static_cast<std::size_t>(link.from.node * radix() + link.from.port);
    neighbor_cache_[idx] = link.to;
    dateline_cache_[idx] = link.dateline;
  }
}

std::optional<LinkEnd> Topology::neighbor(NodeId node, PortId out_port) const {
  return neighbor_cache_[static_cast<std::size_t>(node * radix() + out_port)];
}

bool Topology::crosses_dateline(NodeId node, PortId out_port) const {
  return dateline_cache_[static_cast<std::size_t>(node * radix() + out_port)];
}

Mesh2D::Mesh2D(int width, int height) : width_(width), height_(height) {
  if (width < 2 || height < 1) {
    throw std::invalid_argument("Mesh2D requires width >= 2, height >= 1");
  }
  build_cache();
}

std::string Mesh2D::name() const {
  return "mesh" + std::to_string(width_) + "x" + std::to_string(height_);
}

std::vector<Link> Mesh2D::links() const {
  std::vector<Link> out;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const NodeId n = node_at(x, y);
      if (x + 1 < width_) {
        out.push_back({{n, kEast}, {node_at(x + 1, y), kWest}, false});
        out.push_back({{node_at(x + 1, y), kWest}, {n, kEast}, false});
      }
      if (y + 1 < height_) {
        out.push_back({{n, kNorth}, {node_at(x, y + 1), kSouth}, false});
        out.push_back({{node_at(x, y + 1), kSouth}, {n, kNorth}, false});
      }
    }
  }
  return out;
}

int Mesh2D::min_hops(NodeId src, NodeId dst) const {
  return std::abs(x_of(src) - x_of(dst)) + std::abs(y_of(src) - y_of(dst));
}

Torus2D::Torus2D(int width, int height) : width_(width), height_(height) {
  if (width < 3 || height < 3) {
    // Width-2 torus dimensions would create duplicate parallel links with
    // the mesh port convention; require >= 3 to keep wiring unambiguous.
    throw std::invalid_argument("Torus2D requires width, height >= 3");
  }
  build_cache();
}

std::string Torus2D::name() const {
  return "torus" + std::to_string(width_) + "x" + std::to_string(height_);
}

std::vector<Link> Torus2D::links() const {
  std::vector<Link> out;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const NodeId n = node_at(x, y);
      const int xe = (x + 1) % width_;
      const int yn = (y + 1) % height_;
      // +x direction; the wrap (x = width-1 -> 0) is the x dateline.
      out.push_back({{n, kEast}, {node_at(xe, y), kWest}, x + 1 == width_});
      // -x direction; wrap (0 -> width-1) is also a dateline crossing.
      out.push_back({{node_at(xe, y), kWest}, {n, kEast}, x + 1 == width_});
      out.push_back({{n, kNorth}, {node_at(x, yn), kSouth}, y + 1 == height_});
      out.push_back({{node_at(x, yn), kSouth}, {n, kNorth}, y + 1 == height_});
    }
  }
  return out;
}

int Torus2D::min_hops(NodeId src, NodeId dst) const {
  const int dx = std::abs(x_of(src) - x_of(dst));
  const int dy = std::abs(y_of(src) - y_of(dst));
  return std::min(dx, width_ - dx) + std::min(dy, height_ - dy);
}

Ring::Ring(int nodes) : nodes_(nodes) {
  if (nodes < 3) throw std::invalid_argument("Ring requires >= 3 nodes");
  build_cache();
}

std::string Ring::name() const { return "ring" + std::to_string(nodes_); }

std::vector<Link> Ring::links() const {
  std::vector<Link> out;
  for (int n = 0; n < nodes_; ++n) {
    const int next = (n + 1) % nodes_;
    out.push_back({{n, kCw}, {next, kCcw}, n + 1 == nodes_});
    out.push_back({{next, kCcw}, {n, kCw}, n + 1 == nodes_});
  }
  return out;
}

int Ring::min_hops(NodeId src, NodeId dst) const {
  const int d = std::abs(src - dst);
  return std::min(d, nodes_ - d);
}

std::unique_ptr<Topology> make_topology(const std::string& kind, int width,
                                        int height) {
  if (kind == "mesh") return std::make_unique<Mesh2D>(width, height);
  if (kind == "torus") return std::make_unique<Torus2D>(width, height);
  if (kind == "ring") return std::make_unique<Ring>(width * height);
  throw std::invalid_argument("unknown topology: " + kind);
}

}  // namespace drlnoc::noc
