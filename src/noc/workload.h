// Workloads: traffic injectors combining a spatial pattern, a temporal
// injection process and a rate. SteadyWorkload drives the classic
// load-latency methodology; PhasedWorkload emulates the phase behaviour of
// real applications with synthetic patterns. For actual application-level
// traffic — recorded runs, DNN layer pipelines, MPI-style collectives,
// dependency-aware task-graph replay — see the trace subsystem
// (trace/trace_workload.h, trace/recorder.h, trace/generators.h).
#pragma once

#include <string>
#include <vector>

#include "noc/network.h"
#include "noc/traffic.h"

namespace drlnoc::noc {

/// Fixed pattern + rate for the whole run.
class SteadyWorkload final : public TrafficInjector {
 public:
  /// Pattern/process by name for a topology; throws what make_pattern /
  /// make_injection throw.
  static SteadyWorkload make(const Topology& topo, const std::string& pattern,
                             double rate,
                             const std::string& process = "bernoulli");

  /// One tight pass over the nodes; the draws of generate() at each.
  void inject_tick(double core_time, util::Rng* rngs, int n,
                   std::uint64_t first_id, std::vector<Emission>& out) override;
  NodeId generate(NodeId src, double core_time, util::Rng& rng) override;
  std::string name() const override;

  /// generate() without the virtual call, for composites.
  NodeId poll(NodeId src, util::Rng& rng) {
    return process_.fire(src, rng) ? pattern_.dest(src, rng) : kInvalidNode;
  }

 private:
  SteadyWorkload(TrafficPattern pattern, InjectionProcess process);

  TrafficPattern pattern_;
  InjectionProcess process_;
};

/// One segment of a phased workload.
struct Phase {
  std::string pattern = "uniform";
  double rate = 0.05;                 ///< packets/node/core-cycle
  double duration_core_cycles = 1e4;
  std::string process = "bernoulli";
  /// Packet length in flits for this phase; 0 = the network default.
  /// Lets traces mix short control packets with long data packets.
  int flits_per_packet = 0;
};

/// A sequence of phases played back over core time; loops when it reaches
/// the end (so RL episodes of any length are well-defined).
class PhasedWorkload final : public TrafficInjector {
 public:
  /// Throws std::invalid_argument on no phases, a non-positive duration,
  /// or a phase make_pattern / make_injection refuses.
  PhasedWorkload(const Topology& topo, std::vector<Phase> phases);

  /// Looks the phase up once, then one tight pass over the nodes.
  void inject_tick(double core_time, util::Rng* rngs, int n,
                   std::uint64_t first_id, std::vector<Emission>& out) override;
  NodeId generate(NodeId src, double core_time, util::Rng& rng) override;
  int packet_length(double core_time) const override;
  std::string name() const override { return "phased"; }

  /// generate() at a phase already looked up with phase_index(), without
  /// the virtual call, for composites.
  NodeId poll(std::size_t phase, NodeId src, util::Rng& rng) {
    return processes_[phase].fire(src, rng) ? patterns_[phase].dest(src, rng)
                                            : kInvalidNode;
  }
  /// packet_length() of a phase: its flits, 0 for the network default.
  int phase_length(std::size_t phase) const {
    return phases_[phase].flits_per_packet;
  }

  /// Shifts the playback position: phase lookups use core_time + offset.
  /// Used to start training episodes at random points of the workload so
  /// every phase is seen at every episode position.
  void set_start_offset(double offset) { offset_ = offset; }

  /// Index of the phase active at the given core time (offset applied).
  std::size_t phase_index(double core_time) const;
  double total_duration() const { return total_duration_; }

  /// The canonical 4-phase workload used throughout the experiments:
  /// idle trickle -> moderate uniform -> hotspot burst -> moderate transpose
  /// (transpose only on square meshes; falls back to uniform otherwise).
  static std::vector<Phase> standard_phases(const Topology& topo,
                                            double scale = 1.0);

 private:
  std::vector<Phase> phases_;
  /// Per phase, built from its names; each phase keeps its own burst state.
  std::vector<TrafficPattern> patterns_;
  std::vector<InjectionProcess> processes_;
  double total_duration_ = 0.0;
  double offset_ = 0.0;
};

}  // namespace drlnoc::noc
