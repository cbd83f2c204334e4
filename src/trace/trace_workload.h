// TraceWorkload: a TrafficInjector that replays a Trace through a live
// Network. Root records release at their recorded core-time (divided by the
// rate-scaling knob, enabling fig1-style load sweeps of one trace);
// dependency records release only after every predecessor packet has been
// *delivered* in the simulation plus their compute delay — so congestion in
// the simulated fabric feeds back into injection timing, SET-ISCA2023-style
// task-graph semantics. With `loop` set the trace restarts after the last
// record of the previous iteration is delivered, making RL episodes of any
// length well-defined.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "noc/network.h"
#include "noc/simulator.h"
#include "trace/trace.h"
#include "util/live_id_table.h"

namespace drlnoc::trace {

struct TraceWorkloadParams {
  /// All recorded times (root releases and compute delays) are divided by
  /// this: 2.0 replays twice as fast, 0.5 at half speed. Must be > 0.
  double rate_scale = 1.0;
  /// Restart the trace once every record of the current iteration has been
  /// delivered (the restarting iteration's roots release relative to that
  /// delivery time). Off by default: replay once and go quiet.
  bool loop = false;
};

class TraceWorkload : public noc::TrafficInjector {
 public:
  TraceWorkload(std::shared_ptr<const Trace> trace,
                TraceWorkloadParams params = {});
  /// Convenience: owns a copy of the trace.
  explicit TraceWorkload(Trace trace, TraceWorkloadParams params = {});

  noc::NodeId generate(noc::NodeId src, double core_time,
                       util::Rng& rng) override;
  int packet_length_for(noc::NodeId src, double core_time) const override;
  void on_packet_injected(noc::NodeId src, std::uint64_t packet_id,
                          double core_time) override;
  void on_packet_delivered(const noc::PacketRecord& rec) override;
  void on_packet_lost(const noc::PacketRecord& rec) override;
  std::string name() const override;

  /// True when every record of the (non-looping) trace has been emitted and
  /// delivered. A looping workload is never done.
  bool done() const;

  const Trace& trace() const { return *trace_; }
  const TraceWorkloadParams& params() const { return params_; }
  std::uint64_t emitted() const { return total_emitted_; }
  std::uint64_t delivered() const { return total_delivered_; }
  std::uint64_t iterations() const { return iterations_; }

 private:
  struct Ready {
    double ready_time;
    std::size_t idx;  ///< index into trace_->records
    bool operator>(const Ready& o) const {
      // Tie-break on declaration order so replay is fully deterministic.
      return ready_time > o.ready_time ||
             (ready_time == o.ready_time && idx > o.idx);
    }
  };
  using ReadyQueue =
      std::priority_queue<Ready, std::vector<Ready>, std::greater<Ready>>;

  void rearm(double base_time);
  void release(std::size_t idx, double ready_time);

  std::shared_ptr<const Trace> trace_;
  TraceWorkloadParams params_;

  // Static shape, built once from the trace.
  std::vector<std::vector<std::uint32_t>> dependents_;  ///< per record
  std::vector<std::uint32_t> initial_pending_;          ///< dep counts

  // Per-iteration replay state.
  std::vector<ReadyQueue> ready_;              ///< per source node
  std::vector<std::uint32_t> pending_;         ///< unmet deps per record
  std::vector<double> dep_ready_;              ///< latest dep delivery + delay
  util::LiveIdTable<std::uint32_t> live_;     ///< pkt id -> record idx
  std::uint64_t iter_emitted_ = 0;
  std::uint64_t iter_delivered_ = 0;

  // Scratch for the generate -> packet_length_for -> on_packet_injected
  // handshake the Network performs for each accepted packet.
  std::size_t pending_emit_ = SIZE_MAX;

  std::uint64_t total_emitted_ = 0;
  std::uint64_t total_delivered_ = 0;
  std::uint64_t iterations_ = 0;
};

/// The result of run_trace_replay. It is noc::RunResult under an older
/// name, kept only because the end-to-end benchmark (bench/e2e) names it.
using TraceReplayResult = noc::RunResult;

/// Drives `net` with `workload` through noc::run_until until the trace
/// completes *and* the fabric drains (or `cycle_limit` router cycles
/// elapse). The workload stays attached throughout so post-emission
/// deliveries keep gating dependents. Throws std::invalid_argument when the
/// trace addresses more nodes than `net` has.
noc::RunResult run_trace_replay(noc::Network& net, TraceWorkload& workload,
                                std::uint64_t cycle_limit = 1000000);

}  // namespace drlnoc::trace
