#include "noc/topology.h"

#include <algorithm>
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

void require(bool ok, const std::string& what, const char* rule, int value) {
  if (ok) return;
  throw std::invalid_argument("network: " + what + " must be " + rule +
                              ", got " + std::to_string(value));
}
}  // namespace

std::string Topology::name() const {
  switch (kind_) {
    case Kind::kMesh:
      return "mesh" + std::to_string(width_) + "x" + std::to_string(height_);
    case Kind::kTorus:
      return "torus" + std::to_string(width_) + "x" + std::to_string(height_);
    case Kind::kRing:
      return "ring" + std::to_string(width_);
  }
  return {};
}

std::vector<Link> Topology::links() const {
  std::vector<Link> out;
  switch (kind_) {
    case Kind::kMesh:
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
      break;
    case Kind::kTorus:
      for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
          const NodeId n = node_at(x, y);
          const int xe = (x + 1) % width_;
          const int yn = (y + 1) % height_;
          // +x direction; the wrap (x = width-1 -> 0) is the x dateline.
          out.push_back({{n, kEast}, {node_at(xe, y), kWest}, x + 1 == width_});
          // -x direction; wrap (0 -> width-1) is also a dateline crossing.
          out.push_back({{node_at(xe, y), kWest}, {n, kEast}, x + 1 == width_});
          out.push_back(
              {{n, kNorth}, {node_at(x, yn), kSouth}, y + 1 == height_});
          out.push_back(
              {{node_at(x, yn), kSouth}, {n, kNorth}, y + 1 == height_});
        }
      }
      break;
    case Kind::kRing:
      for (int n = 0; n < width_; ++n) {
        const int next = (n + 1) % width_;
        out.push_back({{n, kCw}, {next, kCcw}, n + 1 == width_});
        out.push_back({{next, kCcw}, {n, kCw}, n + 1 == width_});
      }
      break;
  }
  return out;
}

int Topology::min_hops(NodeId src, NodeId dst) const {
  switch (kind_) {
    case Kind::kMesh:
      return std::abs(x_of(src) - x_of(dst)) + std::abs(y_of(src) - y_of(dst));
    case Kind::kTorus: {
      const int dx = std::abs(x_of(src) - x_of(dst));
      const int dy = std::abs(y_of(src) - y_of(dst));
      return std::min(dx, width_ - dx) + std::min(dy, height_ - dy);
    }
    case Kind::kRing: {
      const int d = std::abs(src - dst);
      return std::min(d, width_ - d);
    }
  }
  return 0;
}

std::optional<LinkEnd> Topology::neighbor(NodeId node, PortId out_port) const {
  if (kind_ == Kind::kRing) {
    switch (out_port) {
      case kCw: return LinkEnd{(node + 1) % width_, kCcw};
      case kCcw: return LinkEnd{(node + width_ - 1) % width_, kCw};
      default: return std::nullopt;
    }
  }
  // A torus wraps where a mesh edge has no link.
  const bool wrap = kind_ == Kind::kTorus;
  const int x = x_of(node), y = y_of(node);
  switch (out_port) {
    case kEast:
      if (wrap || x + 1 < width_) {
        return LinkEnd{node_at((x + 1) % width_, y), kWest};
      }
      break;
    case kWest:
      if (wrap || x > 0) {
        return LinkEnd{node_at((x + width_ - 1) % width_, y), kEast};
      }
      break;
    case kNorth:
      if (wrap || y + 1 < height_) {
        return LinkEnd{node_at(x, (y + 1) % height_), kSouth};
      }
      break;
    case kSouth:
      if (wrap || y > 0) {
        return LinkEnd{node_at(x, (y + height_ - 1) % height_), kNorth};
      }
      break;
    default:
      break;
  }
  return std::nullopt;
}

bool Topology::crosses_dateline(NodeId node, PortId out_port) const {
  switch (kind_) {
    case Kind::kMesh:
      return false;
    case Kind::kTorus:
      switch (out_port) {
        case kEast: return x_of(node) == width_ - 1;
        case kWest: return x_of(node) == 0;
        case kNorth: return y_of(node) == height_ - 1;
        case kSouth: return y_of(node) == 0;
        default: return false;
      }
    case Kind::kRing:
      return (out_port == kCw && node == width_ - 1) ||
             (out_port == kCcw && node == 0);
  }
  return false;
}

Topology make_topology(const std::string& kind, int width, int height) {
  if (kind == "mesh") {
    require(width >= 2, "mesh width", ">= 2", width);
    require(height >= 1, "mesh height", ">= 1", height);
    return Topology(Topology::Kind::kMesh, width, height);
  }
  if (kind == "torus") {
    // Width-2 torus dimensions would create duplicate parallel links with
    // the mesh port convention; require >= 3 to keep wiring unambiguous.
    require(width >= 3, "torus width", ">= 3", width);
    require(height >= 3, "torus height", ">= 3", height);
    return Topology(Topology::Kind::kTorus, width, height);
  }
  if (kind == "ring") {
    require(width * height >= 3, "ring width*height", ">= 3", width * height);
    return Topology(Topology::Kind::kRing, width * height, 1);
  }
  throw std::invalid_argument("network: unknown topology: " + kind);
}

}  // namespace drlnoc::noc
