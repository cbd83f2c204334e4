// Network: topology + routers + channels + NICs assembled into a steppable
// cycle-accurate simulation, with run-time reconfiguration (the knobs the DRL
// controller drives) and per-epoch statistics extraction.
//
// Clocking model: the *core* clock (PowerParams::core_freq_ghz) is the time
// reference; packet latencies are reported in core cycles. Routers and links
// run at the DVFS level's frequency, i.e. one router cycle spans
// `clock_divisor(level) >= 1` core cycles. Traffic is generated per core
// cycle, so lowering the NoC clock raises the per-router-cycle load — the
// latency/power trade-off the RL agent must learn.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "noc/channel.h"
#include "noc/faults.h"
#include "noc/nic.h"
#include "noc/power.h"
#include "noc/router.h"
#include "noc/routing.h"
#include "noc/topology.h"
#include "noc/traffic.h"
#include "util/rng.h"
#include "util/stats.h"

namespace drlnoc::obs {
class FlightRecorder;
class NetworkMetrics;
}  // namespace drlnoc::obs

namespace drlnoc::noc {

/// The run-time configuration the self-configuration controller selects.
struct NocConfig {
  int active_vcs = 4;
  int active_depth = 8;
  int dvfs_level = 3;

  bool operator==(const NocConfig&) const = default;
};

std::string to_string(const NocConfig& config);

struct NetworkParams {
  std::string topology = "mesh";
  int width = 8;
  int height = 8;
  std::string routing = "auto";
  int max_vcs = 4;    ///< physical VCs per port, at most 32
  int max_depth = 8;  ///< physical slots per VC, at most 127
  int flits_per_packet = 4;
  Cycle link_latency = 1;
  int pipeline_stages = 1;  ///< router pipeline depth (see RouterParams)
  std::uint64_t seed = 1;
  NocConfig initial_config{};

  /// The one fabric range check: width and height >= 1 with width*height
  /// <= 65535 (flits carry 16-bit node ids and hop counts), max_vcs in
  /// [1, 32], max_depth in [1, 127] (the router's packed pipeline state),
  /// link_latency and pipeline_stages >= 1, flits_per_packet in [1, 65535];
  /// then a topology make_topology accepts, a routing make_routing accepts
  /// on it, and max_vcs covering the topology's VC classes. Throws
  /// std::invalid_argument("network: <field> must be ..., got N", or the
  /// builders' messages). The Network constructor and Scenario::validate
  /// call it.
  void validate() const;

  bool operator==(const NetworkParams&) const = default;
};

/// One packet a TrafficInjector emits at a core tick.
struct Emission {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int length = 0;  ///< flits; 0 means the network's flits_per_packet
  int tenant = 0;  ///< see tenant_for
};

/// Pulls traffic out of a workload. The network makes one inject_tick()
/// call per core tick; the per-node hooks below are the protocol its
/// default implementation runs.
class TrafficInjector {
 public:
  virtual ~TrafficInjector() = default;
  /// Appends this core tick's packets to `out` (empty on entry), at most
  /// one per node and in ascending source order; the k-th appended packet
  /// gets packet id `first_id + k`, and any per-packet bookkeeping keyed
  /// by that id is done before returning. `rngs` holds the `n` per-node
  /// streams. The default runs the per-node protocol: for each node in
  /// ascending order, generate() and, when it accepts, packet_length_for(),
  /// tenant_for() and on_packet_injected(). An override must emit exactly
  /// what that protocol would, with the same draws from each node's stream.
  virtual void inject_tick(double core_time, util::Rng* rngs, int n,
                           std::uint64_t first_id, std::vector<Emission>& out);
  /// Destination of `src`'s packet at `core_time`, or kInvalidNode for
  /// "no packet"; draws only from `rng`, the node's own stream.
  virtual NodeId generate(NodeId src, double core_time, util::Rng& rng) = 0;
  /// Length in flits of the packet being generated at `core_time`;
  /// 0 means "use the network's default flits_per_packet".
  virtual int packet_length(double /*core_time*/) const { return 0; }
  /// Per-packet variant, consulted right after generate() accepts for
  /// `src`. Trace replay overrides this (records carry individual lengths);
  /// the default defers to the per-tick length above.
  virtual int packet_length_for(NodeId /*src*/, double core_time) const {
    return packet_length(core_time);
  }
  /// Tenant id of the packet being generated, consulted right after
  /// generate() accepts for `src` (like packet_length_for). Multi-tenant
  /// scenario workloads override this so delivered-packet records carry
  /// per-tenant attribution; single-tenant workloads stay tenant 0.
  virtual int tenant_for(NodeId /*src*/, double /*core_time*/) const {
    return 0;
  }
  /// Called right after tenant_for() for an accepted packet, with the
  /// packet id it gets. Lets dependency-aware workloads map their records
  /// onto live packets (see trace/trace_workload.h).
  virtual void on_packet_injected(NodeId /*src*/, std::uint64_t /*packet_id*/,
                                  double /*core_time*/) {}
  /// Called once per packet when its tail flit ejects at the destination,
  /// in ejection order. Only fires while this injector is driving the step
  /// (drain-only stepping with a null injector notifies nobody). This is
  /// the only delivered-packet record stream: Network keeps no log, so a
  /// caller that wants the records drives the run through a
  /// trace::TraceRecorder, which can also drain with a null source.
  virtual void on_packet_delivered(const PacketRecord& /*rec*/) {}
  /// Called once per packet the fault model gives up on (retry budget
  /// exhausted), under the same driving rule. Such a packet is never
  /// delivered, so workloads that track live packets drop it here.
  virtual void on_packet_lost(const PacketRecord& /*rec*/) {}
  virtual std::string name() const = 0;
};

/// Per-tenant slice of one epoch, populated only when tenant tracking is
/// enabled (see Network::set_tenant_tracking). Latency fields cover
/// *measured* packets, matching the aggregate statistics.
struct TenantEpochStats {
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t packets_measured = 0;  ///< measured deliveries (latency n)
  std::uint64_t flits_ejected = 0;
  double avg_latency = 0.0;  ///< core cycles, over measured deliveries
  double p95_latency = 0.0;
  double max_latency = 0.0;
  // Fault accounting (zero on a healthy fabric; see noc/faults.h).
  std::uint64_t flits_dropped = 0;  ///< flits of corrupted deliveries
  std::uint64_t retries = 0;        ///< retransmissions re-injected
  std::uint64_t packets_lost = 0;   ///< retry budget exhausted
  std::uint64_t rerouted_hops = 0;  ///< extra hops vs fault-free minimum
};

/// Aggregate statistics over one measurement window (epoch).
struct EpochStats {
  double core_cycles = 0.0;
  std::uint64_t router_cycles = 0;
  std::uint64_t packets_offered = 0;   ///< generated at sources
  std::uint64_t packets_received = 0;  ///< fully ejected
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_ejected = 0;
  double avg_latency = 0.0;  ///< core cycles, over packets received in epoch
  double p95_latency = 0.0;
  double max_latency = 0.0;
  double avg_hops = 0.0;
  double offered_rate = 0.0;   ///< packets / node / core cycle
  double accepted_rate = 0.0;  ///< packets / node / core cycle
  double avg_buffer_occupancy = 0.0;  ///< fraction of *active* capacity
  double max_buffer_occupancy = 0.0;
  double hotspot_skew = 1.0;  ///< max node receive count / mean
  /// Mean fraction of nodes actually stepped per router cycle — the
  /// event-driven core's skip rate (1.0 means fully cycle-stepped).
  double avg_active_fraction = 0.0;
  double dynamic_energy_pj = 0.0;
  double static_energy_pj = 0.0;
  std::uint64_t source_queue_total = 0;  ///< backlog at epoch end
  // Fault accounting (all zero on a healthy fabric; see noc/faults.h).
  std::uint64_t flits_dropped = 0;  ///< flits of corrupted (discarded) packets
  std::uint64_t retries = 0;        ///< end-to-end retransmissions re-injected
  std::uint64_t packets_lost = 0;   ///< retry budget exhausted
  double retry_latency = 0.0;  ///< mean latency of retried-then-delivered
  std::uint64_t rerouted_hops = 0;  ///< extra hops vs fault-free minimal paths
  NocConfig config{};
  /// One entry per tenant when tenant tracking is enabled; empty otherwise.
  std::vector<TenantEpochStats> tenants;

  double total_energy_pj() const {
    return dynamic_energy_pj + static_energy_pj;
  }
  /// Average power in mW over the epoch's wall time.
  double avg_power_mw(double core_freq_ghz) const;
  /// Energy-delay product (pJ * core-cycle); the scalar the experiments
  /// compare controllers on.
  double edp() const { return total_energy_pj() * avg_latency; }
};

/// A value type: copying a Network copies the whole simulation state (see
/// docs/ARCHITECTURE.md, "Fabric ownership and copying"), and the copy
/// steps bit-identically to the original from the cycle it was taken.
class Network {
 public:
  explicit Network(NetworkParams params, PowerParams power_params = {},
                   std::vector<DvfsLevel> levels = default_dvfs_levels());

  /// Applies a configuration; takes effect immediately and never drops
  /// in-flight flits (docs/ARCHITECTURE.md, "Run-time reconfiguration").
  void apply_config(const NocConfig& config);
  const NocConfig& config() const { return config_; }

  /// Spatially heterogeneous configuration: one NocConfig per router
  /// (extension feature — per-region self-configuration). All entries must
  /// share the same DVFS level (routers are clocked by one domain in this
  /// model); VC/depth may differ per router. VC-allocation gating follows
  /// the *downstream* router's active VCs on every link.
  void apply_per_router(const std::vector<NocConfig>& configs);
  const NocConfig& config_of(NodeId node) const {
    return per_router_configs_[static_cast<std::size_t>(node)];
  }

  /// One router-clock cycle: generates due core-cycle traffic via
  /// `injector` (may be null for drain-only stepping), steps NICs and
  /// routers, accumulates statistics.
  void step(TrafficInjector* injector);

  /// Runs `router_cycles` steps and returns the window's statistics.
  EpochStats run_epoch(TrafficInjector* injector, std::uint64_t router_cycles);

  /// When false, generated packets are not tagged `measured` and are
  /// excluded from latency statistics (warm-up convention).
  void set_measuring(bool measuring) { measuring_ = measuring; }

  /// Enables per-tenant epoch accounting for `num_tenants` tenants (ids
  /// 0..num_tenants-1, as reported by the injector's tenant_for). Epoch
  /// stats then carry one TenantEpochStats per tenant; ids at or above
  /// `num_tenants` fold into the last slot. 0 disables tracking (default).
  void set_tenant_tracking(int num_tenants);
  int num_tenants() const { return static_cast<int>(tenant_windows_.size()); }

  /// Attaches a deterministic fault model built from `params` (replacing any
  /// previous one), with every link alive: the routing turns degraded at
  /// the first link death. Arms the per-node slowdown bookkeeping. With no
  /// model attached (the default), every fault branch in the stepping hot
  /// path is behind a null check and the simulation is bit-identical to a
  /// fault-free build.
  void set_fault_model(const FaultParams& params);
  const FaultModel* fault_model() const {
    return fault_model_ ? &*fault_model_ : nullptr;
  }

  /// Attaches a (non-owning) flight recorder for sampled packet-lifecycle
  /// and fault/config trace events; null detaches. Routers see it through
  /// the per-step FabricView. The recorder never consumes RNG state nor
  /// arms nodes, so an attached recorder leaves the simulation bit-identical
  /// (pinned by the observability golden tests).
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }
  const obs::FlightRecorder* flight_recorder() const { return recorder_; }

  /// Attaches a (non-owning) metrics sink sampled at every epoch drain;
  /// null detaches. Throws std::invalid_argument on a node-count mismatch.
  void set_metrics(obs::NetworkMetrics* metrics);
  const obs::NetworkMetrics* metrics() const { return metrics_; }

  /// Statistics accumulated since the previous drain (or construction).
  EpochStats drain_epoch_stats();

  bool drained() const;  ///< no flit anywhere in the system

  // --- accessors ------------------------------------------------------------
  double core_time() const { return core_time_; }
  Cycle cycle() const { return cycle_; }
  const Topology& topology() const { return topology_; }
  const NetworkParams& params() const { return params_; }
  const PowerModel& power() const { return power_; }
  int num_nodes() const { return topology_.num_nodes(); }
  std::uint64_t total_packets_offered() const { return total_offered_; }
  std::uint64_t total_packets_received() const { return total_received_; }
  std::uint64_t total_flits_injected() const;
  std::uint64_t total_flits_ejected() const;
  /// Mutable component access re-arms the node: external mutation (tests,
  /// tools poking microarchitectural state) invalidates the quiescence proof.
  Router& router(NodeId id) {
    wake(id);
    return routers_[static_cast<std::size_t>(id)];
  }
  /// Read-only access leaves the node's armed state alone.
  const Router& router(NodeId id) const {
    return routers_[static_cast<std::size_t>(id)];
  }
  Nic& nic(NodeId id) {
    wake(id);
    return nics_[static_cast<std::size_t>(id)];
  }
  const Nic& nic(NodeId id) const {
    return nics_[static_cast<std::size_t>(id)];
  }
  /// Per-packet fields of the packets in flight, by flit handle.
  const PacketTable& packets() const { return packets_; }
  /// Number of nodes currently armed (stepped next cycle). Observability for
  /// tests and benchmarks; a drained network decays to 0.
  int active_nodes() const;
  /// Whether one specific node is armed. Const observability — unlike
  /// router()/nic() it does not re-arm the node, so tests can pin *which*
  /// nodes an external event (fault, retry, reconfig) woke.
  bool node_armed(NodeId node) const {
    return node_active_[static_cast<std::size_t>(node)] != 0;
  }
  /// Test hook: checks the event-driven core's skip decisions against the
  /// components themselves — walks every channel and every node and
  /// returns a description of the first disarmed node with an inbound
  /// item, a non-empty router or a busy NIC, a stale occupancy mirror or a
  /// pending-mask bit that disagrees with its channel, or "" when every
  /// disarmed node is provably quiescent. It also checks the packet table:
  /// the live slots are exactly the handles that buffered flits, flits in
  /// flight and unfinished transmissions name, and their count is the
  /// packets started minus the packets whose tail ejected.
  std::string audit_quiescence() const;

 private:
  void wire(const RouterParams& rp, const NicParams& np);
  /// The one reconfiguration body behind apply_config and apply_per_router:
  /// puts per_router_configs_ (already validated) into effect.
  void reconfigure();
  /// The fabric as routers and NICs see it this step.
  FabricView view();
  void wake(NodeId node) { node_active_[static_cast<std::size_t>(node)] = 1; }
  void wake_all();
  /// The NIC-bound leg of the quiescence test: no ejected flit and no
  /// injection credit in flight toward `nic`.
  bool nic_inbound_empty(const Nic& nic) const;
  /// The packet-table leg of audit_quiescence.
  std::string audit_packet_table() const;
  /// Runs every core tick due before the end of this router cycle: one
  /// inject_tick() call each, whose emissions are offered in order.
  void inject_due_traffic(TrafficInjector* injector);
  /// Fires due fault events and re-offers due retransmissions; called at the
  /// top of step() only while a fault model is attached.
  void service_faults();
  /// Fault-path record handling: corrupted deliveries (drop + retry/lose,
  /// reporting a loss to `injector` when non-null) and the retry/reroute
  /// accounting of clean deliveries. Returns true when the record was
  /// corrupted and must not count as received.
  bool account_faulted_record(const PacketRecord& rec,
                              TrafficInjector* injector);
  int active_capacity() const;
  void refresh_active_capacity();

  /// One measurement window's packet accounting. Network keeps one for the
  /// aggregate and one per tracked tenant, and every accounting site goes
  /// through tally(), so tenant slices partition the aggregate.
  struct WindowTally {
    std::uint64_t offered = 0;
    std::uint64_t received = 0;
    std::uint64_t flits_out = 0;  ///< flits of clean deliveries
    std::uint64_t flits_dropped = 0;
    std::uint64_t retries = 0;
    std::uint64_t lost = 0;
    std::uint64_t rerouted_hops = 0;
    util::Accumulator latency;  ///< measured deliveries only
    util::Histogram latency_hist{/*limit=*/16384.0, /*buckets=*/8192};

    /// The window's totals; resets the tally for the next window.
    TenantEpochStats drain();
  };

  /// Applies `f` to the aggregate window and, while tenant tracking is on,
  /// to `tenant`'s slot. Ids at or above the tracked count fold into the
  /// last slot (negatives are clamped to 0 at injection, so both the
  /// offered and received sides see the same id).
  template <typename F>
  void tally(int tenant, F&& f) {
    f(window_);
    if (tenant_windows_.empty()) return;
    const std::size_t n = tenant_windows_.size();
    const auto t = static_cast<std::size_t>(tenant < 0 ? 0 : tenant);
    f(tenant_windows_[t < n ? t : n - 1]);
  }

  NetworkParams params_;
  PowerModel power_;
  NocConfig config_;
  Topology topology_;
  // Degraded (rerouting around dead links) once a fault event kills one.
  RoutingAlgorithm routing_;
  // The components, in node order; they name channels by index into
  // flit_channels_/credit_channels_ (links first, then four per NIC).
  std::vector<Router> routers_;
  std::vector<Nic> nics_;
  std::vector<FlitChannel> flit_channels_;
  std::vector<CreditChannel> credit_channels_;
  // Every input-VC FIFO, one Router::fifo_slots block per router in node
  // order, and the per-packet fields the flits name by handle.
  std::vector<Flit> fifo_arena_;
  PacketTable packets_;
  std::vector<Link> links_;
  int num_links_ = 0;
  // Fault machinery; empty (and all hot-path branches dead) until
  // set_fault_model() installs it.
  std::optional<FaultModel> fault_model_;
  // Observability taps; null (and every hook branch dead) until attached.
  // Not owned: a copy of the Network writes to the same taps.
  obs::FlightRecorder* recorder_ = nullptr;
  obs::NetworkMetrics* metrics_ = nullptr;
  std::vector<std::uint32_t> node_step_divisor_;  ///< slowdown gating (>= 1)
  std::vector<NocConfig> per_router_configs_;
  double active_capacity_ = 1.0;  ///< cached; refreshed on reconfiguration

  // Event-driven stepping core: per-node hot state as struct-of-arrays so
  // the active sweep is cache-linear. A node is skipped while its flag is 0,
  // which requires all three quiescence legs: router empty
  // (node_buffered_ == 0), nothing in flight toward it on any channel (its
  // pending masks plus the NIC's two inbound channels), and an idle NIC.
  // Every send re-arms the receiver (FabricView::send); injection,
  // reconfiguration, and the mutable accessors re-arm explicitly.
  std::vector<std::uint8_t> node_active_;
  // Bit p is set iff the router's port-p inbound flit / credit channel
  // holds an item; set by the sender, cleared by the receiving router.
  std::vector<std::uint32_t> flit_pending_;
  std::vector<std::uint32_t> credit_pending_;
  std::vector<std::uint32_t> node_buffered_;  ///< router buffered-flit mirror
  long long buffered_total_ = 0;  ///< sum of node_buffered_ (exact, integer)

  std::vector<util::Rng> node_rngs_;
  std::uint64_t next_packet_id_ = 1;
  // One core tick's emissions; scratch, reserved for one per node.
  std::vector<Emission> emissions_;
  bool measuring_ = true;

  Cycle cycle_ = 0;
  double core_time_ = 0.0;
  std::uint64_t next_core_tick_ = 0;

  // Epoch accumulators: the packet tallies (aggregate, and per tenant
  // while tracking is on) plus the aggregate-only fabric statistics.
  double epoch_start_core_time_ = 0.0;
  Cycle epoch_start_cycle_ = 0;
  WindowTally window_;
  std::vector<WindowTally> tenant_windows_;  ///< empty = tracking off
  std::uint64_t epoch_flits_in_ = 0;   ///< NIC flit counters at window start
  std::uint64_t epoch_flits_out_ = 0;
  util::Accumulator epoch_hops_;
  util::Accumulator epoch_occupancy_;
  util::Accumulator epoch_active_;  ///< stepped-node fraction per cycle
  util::Accumulator epoch_retry_latency_;  ///< retried-then-delivered
  std::vector<std::uint64_t> epoch_node_recv_;

  std::uint64_t total_offered_ = 0;
  std::uint64_t total_received_ = 0;
};

}  // namespace drlnoc::noc
