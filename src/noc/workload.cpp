#include "noc/workload.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace drlnoc::noc {

SteadyWorkload::SteadyWorkload(TrafficPattern pattern,
                               InjectionProcess process)
    : pattern_(std::move(pattern)), process_(std::move(process)) {}

SteadyWorkload SteadyWorkload::make(const Topology& topo,
                                    const std::string& pattern, double rate,
                                    const std::string& process) {
  return SteadyWorkload(make_pattern(pattern, topo),
                        make_injection(process, topo.num_nodes(), rate));
}

void SteadyWorkload::inject_tick(double /*core_time*/, util::Rng* rngs,
                                 int n, std::uint64_t /*first_id*/,
                                 std::vector<Emission>& out) {
  for (NodeId src = 0; src < n; ++src) {
    const NodeId dst = poll(src, rngs[src]);
    if (dst != kInvalidNode) out.push_back({src, dst, 0, 0});
  }
}

NodeId SteadyWorkload::generate(NodeId src, double /*core_time*/,
                                util::Rng& rng) {
  return poll(src, rng);
}

std::string SteadyWorkload::name() const {
  return pattern_.name() + "@" + std::to_string(process_.rate());
}

PhasedWorkload::PhasedWorkload(const Topology& topo, std::vector<Phase> phases)
    : phases_(std::move(phases)) {
  if (phases_.empty())
    throw std::invalid_argument("PhasedWorkload needs >= 1 phase");
  for (const Phase& ph : phases_) {
    if (ph.duration_core_cycles <= 0.0)
      throw std::invalid_argument("phase duration must be positive");
    patterns_.push_back(make_pattern(ph.pattern, topo));
    processes_.push_back(
        make_injection(ph.process, topo.num_nodes(), ph.rate));
    total_duration_ += ph.duration_core_cycles;
  }
}

std::size_t PhasedWorkload::phase_index(double core_time) const {
  double t = std::fmod(core_time + offset_, total_duration_);
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (t < phases_[i].duration_core_cycles) return i;
    t -= phases_[i].duration_core_cycles;
  }
  return phases_.size() - 1;
}

int PhasedWorkload::packet_length(double core_time) const {
  return phase_length(phase_index(core_time));
}

void PhasedWorkload::inject_tick(double core_time, util::Rng* rngs, int n,
                                 std::uint64_t /*first_id*/,
                                 std::vector<Emission>& out) {
  const std::size_t phase = phase_index(core_time);
  const int length = phase_length(phase);
  for (NodeId src = 0; src < n; ++src) {
    const NodeId dst = poll(phase, src, rngs[src]);
    if (dst != kInvalidNode) out.push_back({src, dst, length, 0});
  }
}

NodeId PhasedWorkload::generate(NodeId src, double core_time,
                                util::Rng& rng) {
  return poll(phase_index(core_time), src, rng);
}

std::vector<Phase> PhasedWorkload::standard_phases(const Topology& topo,
                                                   double scale) {
  const bool square = topo.kind() == Topology::Kind::kMesh &&
                      topo.width() == topo.height();
  const std::string third = square ? "transpose" : "uniform";
  // Rates are chosen so the burst phase transiently oversubscribes the
  // hotspots (on-state rate is 5x the mean) but stays drainable on average:
  // the controller is rewarded for riding bursts, not doomed by them.
  return {
      {"uniform", 0.005 * scale, 6e3, "bernoulli"},   // near-idle trickle
      {"uniform", 0.08 * scale, 6e3, "bernoulli"},    // moderate phase
      {"hotspot", 0.05 * scale, 6e3, "burst"},        // bursty hotspot phase
      {third, 0.06 * scale, 6e3, "bernoulli"},        // structured moderate
  };
}

}  // namespace drlnoc::noc
