// Deterministic fault injection: transient link faults (per-flit corruption
// with end-to-end retry), permanent link failures (minimal-path rerouting
// around dead links), and router slowdowns (per-node clock-divisor
// degradation).
//
// Fail-corrupt semantics: a faulted link never *drops* a flit — it marks it
// corrupted and lets it complete its wormhole journey. Credits, VC state and
// the event-driven quiescence counters therefore stay exact (a dead link's
// in-flight flits drain normally); the destination NIC discards the corrupted
// packet and the FaultModel schedules a source retransmission with timeout,
// exponential backoff and a bounded retry budget. Retries reuse the original
// packet id and inject time, so trace-replay dependency maps keep working and
// reported latency includes the retry delay.
//
// Determinism: transient corruption is a pure hash of
// (seed, link, cycle, packet, seq) — no RNG stream is consumed, so fault
// decisions are independent of node visit order and a faulted run is
// bit-identical across repeated runs and any experiment-thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noc/nic.h"
#include "noc/routing.h"
#include "noc/topology.h"
#include "noc/types.h"

namespace drlnoc::util {
class Config;
}  // namespace drlnoc::util

namespace drlnoc::noc {

/// One scheduled (deterministic) fault event.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kLinkDown,  ///< directed link (node, port) goes permanently dead
    kSlowdown,  ///< node steps only every `factor` router cycles
  };
  Cycle at_cycle = 0;
  Kind kind = Kind::kLinkDown;
  NodeId node = 0;  ///< link: upstream node; slowdown: the affected node
  PortId port = 1;  ///< link events: output port at `node` (never kLocalPort)
  int factor = 2;   ///< slowdown divisor >= 1; 1 restores full speed
};

/// Scenario-scriptable fault configuration (the `.drlsc` `[faults]` section).
struct FaultParams {
  std::uint64_t seed = 1;
  /// Per-flit, per-link-traversal corruption probability in [0, 1].
  double link_fault_rate = 0.0;
  /// Router cycles from corrupted delivery to the first retransmission.
  Cycle retry_timeout = 64;
  /// Multiplier applied to the timeout on each subsequent attempt (>= 1).
  double retry_backoff = 2.0;
  /// Maximum retransmissions per packet; exhausting it loses the packet.
  int retry_budget = 4;
  std::vector<FaultEvent> events;

  bool enabled() const { return link_fault_rate > 0.0 || !events.empty(); }

  /// `base` with the command-line keys fault_rate, fault_seed,
  /// fault_timeout, fault_backoff and fault_budget applied over it (an
  /// absent key keeps base's value). Throws std::invalid_argument naming
  /// the key for a malformed value or a fault_timeout below 1; the other
  /// ranges are left to validate().
  static FaultParams from_config(const util::Config& cfg, FaultParams base);

  /// Range/shape checks that need no topology (rates, factors, budgets).
  /// Throws std::invalid_argument with a message naming the bad key.
  void validate() const;
  /// Topology-dependent checks: event node/port bounds, and — for events at
  /// cycle 0 — that the surviving links still connect every (src, dst) pair
  /// (fail fast instead of mid-run).
  void validate(const Topology& topo) const;
};

std::string to_string(FaultEvent::Kind kind);

/// Minimal-path rerouting around dead links. Healthy (no dead links) it
/// delegates verbatim to the wrapped base algorithm, so installing it does
/// not perturb routing decisions; after the first link death it switches to
/// a BFS shortest-path table over the surviving directed links.
class FaultAwareRouting : public RoutingAlgorithm {
 public:
  FaultAwareRouting(const RoutingAlgorithm& base, const Topology& topo);

  std::string name() const override { return base_.name() + "+fault"; }
  bool adaptive() const override { return base_.adaptive(); }
  void route(const Flit& flit, NodeId node, PortId in_port,
             std::vector<RouteChoice>& out) const override;

  /// Rebuilds the distance tables around `dead` (indexed node*radix+port,
  /// nonzero = dead). Throws std::runtime_error naming an unreachable
  /// (src, dst) pair when the surviving links disconnect the topology.
  void recompute(const std::vector<std::uint8_t>& dead);
  bool degraded() const { return degraded_; }

 private:
  const RoutingAlgorithm& base_;
  const Topology& topo_;
  bool degraded_ = false;
  std::vector<std::uint8_t> dead_;  ///< copy of the live dead-link flags
  /// dist_[dst * n + node]: live hop count from `node` to `dst`.
  std::vector<std::int16_t> dist_;
};

/// Seeded deterministic fault state for one Network instance.
class FaultModel {
 public:
  /// What happened to a corrupted delivery.
  enum class RetryVerdict : std::uint8_t {
    kRetryScheduled,  ///< retransmission queued (timeout * backoff^attempt)
    kLost,            ///< retry budget exhausted; packet dropped for good
  };

  FaultModel(FaultParams params, const Topology& topo);

  const FaultParams& params() const { return params_; }

  /// Per-flit corruption test at the router's link-traversal (ST) stage.
  /// True when the flit must be marked corrupted: always on a dead link,
  /// else with probability link_fault_rate via a stateless hash.
  bool corrupt_on_link(NodeId node, PortId port, const Flit& flit,
                       Cycle cycle) const;

  bool link_dead(NodeId node, PortId port) const {
    return dead_[link_index(node, port)] != 0;
  }
  bool any_link_dead() const { return dead_count_ > 0; }
  const std::vector<std::uint8_t>& dead_links() const { return dead_; }

  /// Marks a directed link dead. Returns true when this is a state change
  /// (the caller then recomputes routing and wakes the fabric).
  bool kill_link(NodeId node, PortId port);

  /// First not-yet-fired scheduled event at or before `cycle`; nullptr when
  /// none. Call repeatedly until it returns nullptr, acting on each.
  const FaultEvent* next_due_event(Cycle cycle);

  /// Handles a corrupted packet arriving at its destination: schedules a
  /// retransmission or declares the packet lost once the budget is spent.
  RetryVerdict on_corrupt_delivery(const PacketRecord& rec, Cycle cycle);

  /// A retransmission whose timer expired; `*this` pops it. Ordered by
  /// (due cycle, schedule sequence) so drain order is deterministic.
  struct Retry {
    std::uint64_t packet_id = 0;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    double inject_time = 0.0;  ///< original injection (latency spans retries)
    std::uint16_t length = 1;
    std::uint16_t tenant = 0;
    bool measured = false;
  };
  bool pop_due_retry(Cycle cycle, Retry& out);

  /// Retransmissions already issued for a live packet (0 for the common
  /// fault-free case). O(1) when no packet has ever been retried.
  int attempts_of(std::uint64_t packet_id) const;
  /// Drops retry bookkeeping after a packet finally delivers clean.
  void forget(std::uint64_t packet_id);

  /// True while any retransmission is waiting on its timer — the network
  /// cannot be considered drained before these re-enter the fabric.
  bool retries_pending() const { return !retry_heap_.empty(); }
  /// Earliest pending retry due cycle (only valid when retries_pending()).
  Cycle next_retry_due() const { return retry_heap_.front().due; }

 private:
  std::size_t link_index(NodeId node, PortId port) const {
    return static_cast<std::size_t>(node) * static_cast<std::size_t>(radix_) +
           static_cast<std::size_t>(port);
  }

  struct HeapEntry {
    Cycle due = 0;
    std::uint64_t seq = 0;  ///< schedule order; ties broken first-scheduled
    Retry retry;
  };
  static bool heap_after(const HeapEntry& a, const HeapEntry& b) {
    return a.due != b.due ? a.due > b.due : a.seq > b.seq;
  }

  FaultParams params_;
  int radix_ = 0;
  std::vector<std::uint8_t> dead_;
  int dead_count_ = 0;
  std::size_t next_event_ = 0;  ///< events_ already sorted by at_cycle
  std::vector<HeapEntry> retry_heap_;  ///< min-heap on (due, seq)
  std::uint64_t retry_seq_ = 0;
  /// packet_id -> retransmissions issued; entries removed on clean delivery
  /// or loss, so the map stays proportional to in-flight faulted packets.
  std::vector<std::pair<std::uint64_t, int>> attempts_;
};

}  // namespace drlnoc::noc
