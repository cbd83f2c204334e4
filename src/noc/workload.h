// Workloads: traffic injectors combining a spatial pattern, a temporal
// injection process and a rate. SteadyWorkload drives the classic
// load-latency methodology; PhasedWorkload emulates the phase behaviour of
// real applications with synthetic patterns. For actual application-level
// traffic — recorded runs, DNN layer pipelines, MPI-style collectives,
// dependency-aware task-graph replay — see the trace subsystem
// (trace/trace_workload.h, trace/recorder.h, trace/generators.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "noc/network.h"
#include "noc/traffic.h"

namespace drlnoc::noc {

/// Fixed pattern + rate for the whole run.
class SteadyWorkload : public TrafficInjector {
 public:
  SteadyWorkload(std::unique_ptr<TrafficPattern> pattern,
                 std::unique_ptr<InjectionProcess> process, double rate);

  /// Convenience: pattern/process by name for a topology.
  static SteadyWorkload make(const Topology& topo, const std::string& pattern,
                             double rate,
                             const std::string& process = "bernoulli");

  NodeId generate(NodeId src, double core_time, util::Rng& rng) override;
  std::string name() const override;

  void set_rate(double rate) { rate_ = rate; }
  double rate() const { return rate_; }

 private:
  std::unique_ptr<TrafficPattern> pattern_;
  std::unique_ptr<InjectionProcess> process_;
  double rate_;
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
class PhasedWorkload : public TrafficInjector {
 public:
  PhasedWorkload(const Topology& topo, std::vector<Phase> phases);

  NodeId generate(NodeId src, double core_time, util::Rng& rng) override;
  int packet_length(double core_time) const override;
  std::string name() const override { return "phased"; }

  /// Shifts the playback position: phase lookups use core_time + offset.
  /// Used to start training episodes at random points of the workload so
  /// every phase is seen at every episode position.
  void set_start_offset(double offset) { offset_ = offset; }

  /// Index of the phase active at the given core time (offset applied).
  std::size_t phase_index(double core_time) const;
  const std::vector<Phase>& phases() const { return phases_; }
  double total_duration() const { return total_duration_; }

  /// The canonical 4-phase workload used throughout the experiments:
  /// idle trickle -> moderate uniform -> hotspot burst -> moderate transpose
  /// (transpose only on square meshes; falls back to uniform otherwise).
  static std::vector<Phase> standard_phases(const Topology& topo,
                                            double scale = 1.0);

 private:
  struct Compiled {
    std::unique_ptr<TrafficPattern> pattern;
    std::unique_ptr<InjectionProcess> process;
  };
  std::vector<Phase> phases_;
  std::vector<Compiled> compiled_;
  double total_duration_ = 0.0;
  double offset_ = 0.0;
};

}  // namespace drlnoc::noc
