// Synthetic spatial traffic patterns and temporal injection processes —
// the standard BookSim-style workload vocabulary. Both are closed sets held
// by value: make_pattern and make_injection build one from its name and
// refuse what the fabric or the rate cannot honour, and one switch in
// dest() / fire() does the work. Values copy, so a workload built from them
// copies like the network it drives.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noc/topology.h"
#include "noc/types.h"
#include "util/rng.h"

namespace drlnoc::noc {

/// Spatial pattern: which destination a given source sends to.
class TrafficPattern {
 public:
  /// Returns kInvalidNode when the pattern maps a source to itself
  /// (e.g. transpose diagonal); such sources generate no traffic.
  NodeId dest(NodeId src, util::Rng& rng) const;
  std::string name() const;

 private:
  friend TrafficPattern make_pattern(const std::string& kind,
                                     const Topology& topo);
  /// In the order of make_pattern's names.
  enum class Kind : std::uint8_t {
    kUniform,        ///< uniform random over all nodes except the source
    kTranspose,      ///< (x, y) -> (y, x) on a square grid
    kBitComplement,  ///< dest = ~src over log2(N) bits
    kBitReverse,     ///< dest = bit-reversal of src
    kShuffle,        ///< perfect shuffle: rotate the address bits left by one
    kTornado,        ///< half-way around each dimension
    kNeighbor,       ///< nearest neighbour: (x+1 mod W, y)
    kHotspot,        ///< a hotspot node half the time, else uniform
  };
  NodeId uniform_other(NodeId src, util::Rng& rng) const;

  Kind kind_ = Kind::kUniform;
  int nodes_ = 0;
  int width_ = 0;   ///< grid geometry; a ring is N x 1
  int height_ = 1;
  int bits_ = 0;    ///< log2(nodes) for the bit patterns
  std::vector<NodeId> hotspots_;
};

/// Pattern by name: uniform, transpose, bitcomp, bitrev, shuffle, tornado,
/// neighbor, hotspot. Throws std::invalid_argument on an unknown name or a
/// geometry the pattern cannot map: bitcomp, bitrev and shuffle need a
/// power-of-two node count, transpose a square grid. Hotspot sends half its
/// packets to a 2x2 block at the grid centre (on a ring, nodes 0 and N/2).
TrafficPattern make_pattern(const std::string& kind, const Topology& topo);

/// Temporal injection process: decides, per node and per core cycle, whether
/// a packet is generated, at a mean `rate` packets/node/core-cycle.
class InjectionProcess {
 public:
  /// Burst transition probabilities: alpha = P(off->on), beta = P(on->off).
  static constexpr double kBurstAlpha = 0.02;
  static constexpr double kBurstBeta = 0.08;

  /// Inline: injectors call it once per node per core tick.
  bool fire(NodeId src, util::Rng& rng) {
    if (kind_ == Kind::kBernoulli) return rng.chance(rate_);
    std::uint8_t& on = on_[static_cast<std::size_t>(src)];
    on = on ? !rng.chance(kBurstBeta) : rng.chance(kBurstAlpha);
    return on && rng.chance(on_rate_);
  }
  double rate() const { return rate_; }

 private:
  friend InjectionProcess make_injection(const std::string& kind, int nodes,
                                         double rate);
  /// In the order of make_injection's names.
  enum class Kind : std::uint8_t {
    /// Independent Bernoulli trials at the rate.
    kBernoulli,
    /// Two-state Markov-modulated on/off process, per node. OFF->ON with
    /// probability alpha, ON->OFF with beta; packets are generated at
    /// rate / duty while ON and none while OFF, so the long-run mean is the
    /// rate. Produces the bursty arrivals self-configuration must ride.
    kBurst,
  };

  Kind kind_ = Kind::kBernoulli;
  double rate_ = 0.0;
  double on_rate_ = 0.0;          ///< burst: rate / duty
  std::vector<std::uint8_t> on_;  ///< burst: per-node ON state
};

/// Process by name: bernoulli, burst. Throws std::invalid_argument on an
/// unknown name or a rate outside [0, 1], and for burst on a rate above its
/// duty cycle alpha / (alpha + beta) = 0.2, which no ON-state rate can reach.
InjectionProcess make_injection(const std::string& kind, int nodes,
                                double rate);

}  // namespace drlnoc::noc
