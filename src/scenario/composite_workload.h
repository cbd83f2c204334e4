// CompositeWorkload: a TrafficInjector that deterministically merges N
// per-tenant child workloads onto one fabric. Each tenant holds its child
// by value (steady, phased or trace), a node binding, and an activity
// window; the composite translates the network's global (node, time) view
// into each child's local view and back, tags every generated packet with
// its tenant id (tenant_for), and routes delivery notifications to the
// owning child so dependency-gated trace tenants keep their congestion
// feedback.
//
// Determinism contract: per node and per core tick tenants are polled in
// ascending tenant-id order and the first accepting tenant wins the slot;
// losing tenants are simply not polled that tick, so their state (including
// any RNG draws) is untouched. A single-tenant composite with the identity
// binding forwards every call unchanged and is bit-identical to driving the
// child directly. The composite copies by default, children included.
//
// inject_tick() keeps that contract while working tenant by tenant: it
// checks each tenant's window (and the horizon) once per tick, runs the
// child's own loop over the tenant's source nodes without virtual calls,
// and skips a node a lower tenant has already claimed this tick. Nodes
// share no injection state (each has its own RNG stream and ON state), so
// every node sees the same polls and draws, in the same order, as under
// generate(); the tick's packets are then numbered in ascending source
// order. A trace tenant whose ready_bound() says no queued record is due
// is skipped for the whole tick: it draws no random numbers, so nothing
// is lost.
//
// Delivery routing: the network carries each emission's tenant into the
// PacketRecord, so on_packet_delivered() and on_packet_lost() read the
// owning tenant from the record and the composite keeps nothing per live
// packet. This relies on one contract: from its first emission on, the
// composite is the only injector driving its network. Packets another
// injector offered before that (a warm-up) have smaller ids and are not
// ours; their deliveries are ignored.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "noc/network.h"
#include "noc/workload.h"
#include "trace/trace_workload.h"

namespace drlnoc::scenario {

/// A tenant's traffic source: the closed set of scenario workload kinds.
using TenantWorkload =
    std::variant<noc::SteadyWorkload, noc::PhasedWorkload, trace::TraceWorkload>;

/// One tenant mounted into a CompositeWorkload.
struct TenantBinding {
  std::string name = "tenant";
  TenantWorkload workload;
  /// Node binding. Empty = the whole fabric, no remapping. Non-empty with
  /// `remap` set = the child addresses local ids 0..nodes.size()-1 placed on
  /// these global ids (trace placement). Non-empty without `remap` = the
  /// child sees global ids but only these nodes act as sources (synthetic
  /// source restriction).
  std::vector<noc::NodeId> nodes;
  bool remap = false;
  /// Activity window in global core time; the child observes a local clock
  /// that starts at 0 at `start`.
  double start = 0.0;
  double stop = std::numeric_limits<double>::infinity();
};

class CompositeWorkload : public noc::TrafficInjector {
 public:
  /// `num_nodes` is the fabric size; bindings keep their index as tenant id.
  CompositeWorkload(int num_nodes, std::vector<TenantBinding> bindings);

  void inject_tick(double core_time, util::Rng* rngs, int n,
                   std::uint64_t first_id,
                   std::vector<noc::Emission>& out) override;
  noc::NodeId generate(noc::NodeId src, double core_time,
                       util::Rng& rng) override;
  int packet_length_for(noc::NodeId src, double core_time) const override;
  int tenant_for(noc::NodeId src, double core_time) const override;
  void on_packet_injected(noc::NodeId src, std::uint64_t packet_id,
                          double core_time) override;
  void on_packet_delivered(const noc::PacketRecord& rec) override;
  void on_packet_lost(const noc::PacketRecord& rec) override;
  std::string name() const override;

  /// Caps every tenant's window at `horizon` (global core time); used by
  /// duration-bounded scenario runs so injection stops at the horizon.
  void set_horizon(double horizon) { horizon_ = horizon; }
  double horizon() const { return horizon_; }

  /// True when no tenant will ever inject again at or after `core_time`:
  /// trace tenants have delivered every record (a looping trace never
  /// finishes) and windowed tenants have passed min(stop, horizon).
  bool quiescent(double core_time) const;

  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  const TenantBinding& tenant(int id) const {
    return tenants_[static_cast<std::size_t>(id)];
  }
  /// Packets injected so far on behalf of tenant `id`.
  std::uint64_t emitted(int id) const {
    return emitted_[static_cast<std::size_t>(id)];
  }
  /// Packets delivered so far to tenant `id`.
  std::uint64_t delivered(int id) const {
    return delivered_[static_cast<std::size_t>(id)];
  }

 private:
  bool window_active(const TenantBinding& b, double t) const {
    return t >= b.start && t < b.stop && t < horizon_;
  }
  noc::NodeId local_src(int ti, noc::NodeId src) const {
    return tenants_[static_cast<std::size_t>(ti)].remap
               ? local_of_[static_cast<std::size_t>(ti)]
                          [static_cast<std::size_t>(src)]
               : src;
  }
  /// A packet inject_tick() has polled but not yet numbered: the emission
  /// in global ids and, for a trace tenant, the record it carries.
  struct Pending {
    noc::Emission e;
    std::size_t record;
  };
  static constexpr std::size_t kNoRecord = trace::TraceWorkload::kNone;
  /// inject_tick()'s pass over tenant `ti`'s source nodes below `n`:
  /// `poll(global, local)` returns the child's answer in its local ids at
  /// each node no lower tenant has claimed this tick; an accepted packet
  /// claims its node and is queued in `pending_`, with its destination
  /// mapped to global ids.
  template <typename Poll>
  void poll_tenant(std::size_t ti, int n, Poll&& poll) {
    const TenantBinding& b = tenants_[ti];
    // The i-th source is node i of the fabric, or the i-th listed node.
    const bool all = b.nodes.empty();
    const std::size_t sources = all ? claimed_.size() : b.nodes.size();
    for (std::size_t i = 0; i < sources; ++i) {
      const noc::NodeId g = all ? static_cast<noc::NodeId>(i) : b.nodes[i];
      if (g >= n) continue;
      std::uint8_t& claimed = claimed_[static_cast<std::size_t>(g)];
      if (claimed) continue;
      Pending p = poll(g, b.remap ? static_cast<noc::NodeId>(i) : g);
      if (p.e.dst == noc::kInvalidNode) continue;
      claimed = 1;
      if (b.remap) p.e.dst = b.nodes[static_cast<std::size_t>(p.e.dst)];
      p.e.tenant = static_cast<int>(ti);
      pending_.push_back(p);
    }
  }
  /// The tenant that emitted `rec`'s packet, or -1 when it is not ours.
  int owner(const noc::PacketRecord& rec) const;
  /// `rec` in tenant `ti`'s local node ids and local clock.
  noc::PacketRecord to_local(int ti, const noc::PacketRecord& rec) const;

  std::vector<TenantBinding> tenants_;
  /// generate()'s polling lists: per global node g, the tenant ids that may
  /// source there, ascending, are
  /// source_tenants_[source_begin_[g] .. source_begin_[g + 1]).
  std::vector<std::uint32_t> source_begin_;
  std::vector<int> source_tenants_;
  /// inject_tick() scratch: per global node, whether a tenant has claimed
  /// it this tick (all clear between ticks), and the tick's packets.
  std::vector<std::uint8_t> claimed_;
  std::vector<Pending> pending_;
  /// Per tenant: global node id -> local id (kInvalidNode when not bound);
  /// empty for tenants that do not remap.
  std::vector<std::vector<noc::NodeId>> local_of_;
  std::vector<std::uint64_t> emitted_;
  std::vector<std::uint64_t> delivered_;
  /// Id of the first packet this composite emitted (the largest id until
  /// then): deliveries of smaller ids are another injector's.
  std::uint64_t first_id_ = std::numeric_limits<std::uint64_t>::max();
  /// generate() -> packet_length_for()/tenant_for() -> on_packet_injected()
  /// handshake scratch.
  int pending_tenant_ = -1;
  double horizon_ = std::numeric_limits<double>::infinity();
};

}  // namespace drlnoc::scenario
