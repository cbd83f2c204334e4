#include "noc/traffic.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace drlnoc::noc {

namespace {

// Name of each kind, in enum order.
constexpr const char* kPatternNames[] = {"uniform", "transpose", "bitcomp",
                                         "bitrev",  "shuffle",   "tornado",
                                         "neighbor", "hotspot"};
constexpr const char* kProcessNames[] = {"bernoulli", "burst"};

constexpr double kBurstDuty =
    InjectionProcess::kBurstAlpha /
    (InjectionProcess::kBurstAlpha + InjectionProcess::kBurstBeta);
// The largest burst rate: the duty cycle as written, since in doubles it
// computes one ulp below 0.2.
constexpr double kBurstMaxRate = 0.2;
// Share of a hotspot pattern's packets aimed at a hotspot node.
constexpr double kHotFraction = 0.5;

template <std::size_t N>
int kind_index(const char* const (&names)[N], const std::string& kind) {
  for (std::size_t i = 0; i < N; ++i) {
    if (kind == names[i]) return static_cast<int>(i);
  }
  return -1;
}

int log2_exact(int n, const std::string& what) {
  if (n <= 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument(what + " requires a power-of-two node count");
  }
  return std::countr_zero(static_cast<unsigned>(n));
}

}  // namespace

NodeId TrafficPattern::uniform_other(NodeId src, util::Rng& rng) const {
  if (nodes_ < 2) return kInvalidNode;
  // Uniform over the other nodes_ - 1 nodes.
  auto d = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(nodes_ - 1)));
  if (d >= src) ++d;
  return d;
}

NodeId TrafficPattern::dest(NodeId src, util::Rng& rng) const {
  const auto x = [&] { return src % width_; };
  const auto y = [&] { return src / width_; };
  NodeId d = kInvalidNode;
  switch (kind_) {
    case Kind::kUniform:
      return uniform_other(src, rng);
    case Kind::kTranspose:
      d = x() * width_ + y();
      break;
    case Kind::kBitComplement:
      return (~src) & ((1 << bits_) - 1);
    case Kind::kBitReverse:
      d = 0;
      for (int b = 0; b < bits_; ++b) {
        if (src & (1 << b)) d |= 1 << (bits_ - 1 - b);
      }
      break;
    case Kind::kShuffle:
      d = ((src << 1) | (src >> (bits_ - 1))) & ((1 << bits_) - 1);
      break;
    case Kind::kTornado:
      d = ((y() + (height_ + 1) / 2 - 1) % height_) * width_ +
          (x() + (width_ + 1) / 2 - 1) % width_;
      break;
    case Kind::kNeighbor:
      d = y() * width_ + (x() + 1) % width_;
      break;
    case Kind::kHotspot:
      if (rng.chance(kHotFraction)) {
        d = hotspots_[rng.below(hotspots_.size())];
        if (d != src) return d;
        // Source is itself a hotspot: fall through to uniform.
      }
      return uniform_other(src, rng);
  }
  return d == src ? kInvalidNode : d;
}

std::string TrafficPattern::name() const {
  return kPatternNames[static_cast<int>(kind_)];
}

TrafficPattern make_pattern(const std::string& kind, const Topology& topo) {
  const int index = kind_index(kPatternNames, kind);
  if (index < 0) throw std::invalid_argument("unknown traffic pattern: " + kind);
  TrafficPattern p;
  p.kind_ = static_cast<TrafficPattern::Kind>(index);
  p.nodes_ = topo.num_nodes();
  p.width_ = topo.width();  // a ring is N x 1
  p.height_ = topo.height();
  using Kind = TrafficPattern::Kind;
  switch (p.kind_) {
    case Kind::kTranspose:
      if (p.width_ != p.height_) {
        throw std::invalid_argument("transpose requires a square grid");
      }
      break;
    case Kind::kBitComplement:
    case Kind::kBitReverse:
    case Kind::kShuffle:
      p.bits_ = log2_exact(p.nodes_, kind);
      break;
    case Kind::kHotspot: {
      const int w = p.width_, cx = w / 2, cy = p.height_ / 2;
      if (p.height_ > 1) {
        p.hotspots_ = {cy * w + cx, cy * w + cx - 1, (cy - 1) * w + cx,
                       (cy - 1) * w + cx - 1};
      } else {
        p.hotspots_ = {0, p.nodes_ / 2};
      }
      break;
    }
    default:
      break;
  }
  return p;
}

InjectionProcess make_injection(const std::string& kind, int nodes,
                                double rate) {
  const int index = kind_index(kProcessNames, kind);
  if (index < 0) {
    throw std::invalid_argument("unknown injection process: " + kind);
  }
  if (!(rate >= 0.0 && rate <= 1.0)) {
    throw std::invalid_argument("rate must be within [0, 1] packets/cycle, "
                                "got " + std::to_string(rate));
  }
  InjectionProcess p;
  p.kind_ = static_cast<InjectionProcess::Kind>(index);
  p.rate_ = rate;
  if (p.kind_ == InjectionProcess::Kind::kBurst) {
    if (rate > kBurstMaxRate) {
      throw std::invalid_argument(
          "burst rate must be <= its duty cycle 0.2 (the ON-state rate is "
          "rate / 0.2 and cannot exceed 1), got " + std::to_string(rate));
    }
    p.on_rate_ = std::min(1.0, rate / kBurstDuty);
    p.on_.assign(static_cast<std::size_t>(nodes), 0);
  }
  return p;
}

}  // namespace drlnoc::noc
