#include "noc/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/network_metrics.h"
#include "obs/profiler.h"

namespace drlnoc::noc {

std::string to_string(const NocConfig& c) {
  return "vc=" + std::to_string(c.active_vcs) +
         " depth=" + std::to_string(c.active_depth) +
         " dvfs=" + std::to_string(c.dvfs_level);
}

double EpochStats::avg_power_mw(double core_freq_ghz) const {
  if (core_cycles <= 0.0) return 0.0;
  const double wall_ns = core_cycles / core_freq_ghz;
  return total_energy_pj() / wall_ns;  // pJ / ns == mW
}

namespace {
void validate_config(const NocConfig& config, const NetworkParams& params,
                     int num_levels) {
  if (config.active_vcs < 1 || config.active_vcs > params.max_vcs ||
      config.active_depth < 1 || config.active_depth > params.max_depth ||
      config.dvfs_level < 0 || config.dvfs_level >= num_levels) {
    throw std::invalid_argument("NocConfig out of range: " +
                                to_string(config));
  }
}

NetworkParams validated(NetworkParams params) {
  params.validate();
  return params;
}
}  // namespace

void NetworkParams::validate() const {
  const auto require = [](bool ok, const char* field, const char* rule,
                          auto value) {
    if (ok) return;
    std::string msg = "network: ";
    msg += field;
    msg += " must be ";
    msg += rule;
    msg += ", got ";
    msg += std::to_string(value);
    throw std::invalid_argument(msg);
  };
  require(width >= 1, "width", ">= 1", width);
  require(height >= 1, "height", ">= 1", height);
  const long long nodes = static_cast<long long>(width) * height;
  require(nodes <= 65535, "width*height", "<= 65535", nodes);
  require(max_vcs >= 1 && max_vcs <= 32, "max_vcs", "in [1, 32]", max_vcs);
  require(max_depth >= 1 && max_depth <= 127, "max_depth", "in [1, 127]",
          max_depth);
  require(link_latency >= 1, "link_latency", ">= 1", link_latency);
  require(pipeline_stages >= 1, "pipeline_stages", ">= 1", pipeline_stages);
  require(flits_per_packet >= 1 && flits_per_packet <= 65535,
          "flits_per_packet", "in [1, 65535]", flits_per_packet);
  // Both throw std::invalid_argument for a shape or routing the fabric
  // cannot take; they are cheap values, so the check builds them.
  const Topology topo = make_topology(topology, width, height);
  make_routing(routing, topo);
  require(max_vcs >= topo.required_vc_classes(), "max_vcs",
          ">= the topology's VC classes", max_vcs);
}

Network::Network(NetworkParams params, PowerParams power_params,
                 std::vector<DvfsLevel> levels)
    : params_(validated(std::move(params))),
      power_(power_params, std::move(levels)),
      config_(params_.initial_config),
      topology_(make_topology(params_.topology, params_.width,
                              params_.height)),
      routing_(make_routing(params_.routing, topology_)),
      epoch_node_recv_(static_cast<std::size_t>(topology_.num_nodes()), 0) {
  validate_config(config_, params_, power_.num_levels());

  util::Rng master(params_.seed);
  const int n = topology_.num_nodes();
  node_rngs_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) node_rngs_.push_back(master.fork());
  emissions_.reserve(static_cast<std::size_t>(n));

  RouterParams rp;
  rp.num_ports = topology_.radix();
  rp.max_vcs = params_.max_vcs;
  rp.max_depth = params_.max_depth;
  rp.vc_classes = topology_.required_vc_classes();
  rp.active_vcs = config_.active_vcs;
  rp.active_depth = config_.active_depth;
  rp.pipeline_stages = params_.pipeline_stages;

  NicParams np;
  np.max_vcs = params_.max_vcs;
  np.max_depth = params_.max_depth;
  np.vc_classes = rp.vc_classes;
  np.active_vcs = config_.active_vcs;
  np.flits_per_packet = params_.flits_per_packet;

  fifo_arena_.resize(static_cast<std::size_t>(n) * Router::fifo_slots(rp));
  // One live packet per injection VC before the table first grows.
  packets_ = PacketTable(static_cast<std::size_t>(n * params_.max_vcs));
  wire(rp, np);
  // Everything starts armed.
  node_active_.assign(static_cast<std::size_t>(n), 1);
  node_buffered_.assign(static_cast<std::size_t>(n), 0);
  flit_pending_.assign(static_cast<std::size_t>(n), 0);
  credit_pending_.assign(static_cast<std::size_t>(n), 0);
  per_router_configs_.assign(static_cast<std::size_t>(n), config_);
  refresh_active_capacity();
}

void Network::wire(const RouterParams& rp, const NicParams& np) {
  const int radix = topology_.radix();
  const int n = topology_.num_nodes();
  std::vector<PortChannels> ports(static_cast<std::size_t>(n * radix));
  auto at = [&](NodeId node, PortId port) -> PortChannels& {
    return ports[static_cast<std::size_t>(node * radix + port)];
  };
  links_ = topology_.links();
  num_links_ = static_cast<int>(links_.size());
  flit_channels_.reserve(links_.size() + 2 * static_cast<std::size_t>(n));
  credit_channels_.reserve(links_.size() + 2 * static_cast<std::size_t>(n));

  // Inter-router link k: flit channel k downstream, credit channel k back.
  // Each names its receiving router and that port's pending-mask bit.
  for (const Link& link : links_) {
    const int k = static_cast<int>(flit_channels_.size());
    flit_channels_.emplace_back(params_.link_latency, link.to.node,
                                1u << link.to.port);
    credit_channels_.emplace_back(params_.link_latency, link.from.node,
                                  1u << link.from.port);
    at(link.from.node, link.from.port).out_flits = k;
    at(link.from.node, link.from.port).in_credits = k;
    at(link.to.node, link.to.port).in_flits = k;
    at(link.to.node, link.to.port).out_credits = k;
  }

  // NIC links, latency 1: injection at index k, ejection at k + 1. All four
  // terminate at node i; the NIC-bound ones carry no pending bit.
  nics_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int k = static_cast<int>(flit_channels_.size());
    flit_channels_.emplace_back(1, i, 1u << kLocalPort);
    flit_channels_.emplace_back(1, i, 0);
    credit_channels_.emplace_back(1, i, 0);
    credit_channels_.emplace_back(1, i, 1u << kLocalPort);
    at(i, kLocalPort) = PortChannels{k, k, k + 1, k + 1};
    nics_.emplace_back(i, np, NicChannels{k, k, k + 1, k + 1});
    nics_.back().init_credits(config_.active_depth);
  }

  routers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto first = ports.begin() + i * radix;
    Router& r = routers_.emplace_back(
        i, rp, std::vector<PortChannels>(first, first + radix));
    for (int p = 0; p < radix; ++p) {
      if (at(i, p).out_flits < 0) continue;
      // Credits for a downstream router reflect its active depth; the NIC
      // ejection buffer is never gated, so it advertises full depth.
      r.init_output_credits(
          p, p != kLocalPort ? config_.active_depth : params_.max_depth);
    }
  }
}

FabricView Network::view() {
  return FabricView{flit_channels_.data(), credit_channels_.data(),
                    fifo_arena_.data(),    &packets_,
                    node_active_.data(),   flit_pending_.data(),
                    credit_pending_.data(), &routing_,
                    fault_model(),          recorder_};
}

void Network::apply_config(const NocConfig& config) {
  validate_config(config, params_, power_.num_levels());
  per_router_configs_.assign(static_cast<std::size_t>(num_nodes()), config);
  reconfigure();
}

void Network::apply_per_router(const std::vector<NocConfig>& configs) {
  if (static_cast<int>(configs.size()) != num_nodes()) {
    throw std::invalid_argument("apply_per_router: need one config per node");
  }
  for (const NocConfig& c : configs) {
    validate_config(c, params_, power_.num_levels());
    if (c.dvfs_level != configs.front().dvfs_level) {
      throw std::invalid_argument(
          "apply_per_router: routers share one clock domain; DVFS levels "
          "must match");
    }
  }
  per_router_configs_ = configs;
  reconfigure();
}

void Network::reconfigure() {
  NocConfig representative = per_router_configs_.front();
  bool mixed_vcs = false;
  const FabricView v = view();
  for (std::size_t i = 0; i < per_router_configs_.size(); ++i) {
    const NocConfig& c = per_router_configs_[i];
    Router& r = routers_[i];
    r.set_active_vcs(c.active_vcs, cycle_);
    r.set_active_depth(c.active_depth, cycle_, v);
    nics_[i].set_active_vcs(c.active_vcs);
    mixed_vcs = mixed_vcs || c.active_vcs != representative.active_vcs;
    representative.active_vcs =
        std::max(representative.active_vcs, c.active_vcs);
    representative.active_depth =
        std::max(representative.active_depth, c.active_depth);
  }
  // VC allocation gates on the *downstream* router's active VC set.
  // set_active_vcs above gated every output port on the router's own
  // count, which is already right when all routers share one count.
  if (mixed_vcs) {
    for (const Link& link : links_) {
      routers_[static_cast<std::size_t>(link.from.node)]
          .set_output_active_vcs(
              link.from.port,
              per_router_configs_[static_cast<std::size_t>(link.to.node)]
                  .active_vcs);
    }
  }
  config_ = representative;
  refresh_active_capacity();
  if (recorder_ != nullptr) {
    recorder_->record(obs::EventKind::kConfigApply, core_time_, cycle_, 0,
                      representative.active_vcs, representative.active_depth,
                      representative.dvfs_level);
  }
  // Reconfiguration touches every router (gating, depth, clock) — even
  // quiescent ones must re-run under the new configuration. Depth growth
  // also floods bonus credits, whose wake hooks alone would only wake
  // upstream neighbors.
  wake_all();
}

void Network::set_metrics(obs::NetworkMetrics* metrics) {
  if (metrics != nullptr && metrics->num_nodes() != num_nodes()) {
    throw std::invalid_argument(
        "set_metrics: metrics sink sized for a different fabric");
  }
  metrics_ = metrics;
}

void Network::wake_all() {
  std::fill(node_active_.begin(), node_active_.end(), std::uint8_t{1});
}

int Network::active_nodes() const {
  int count = 0;
  for (std::uint8_t a : node_active_) count += a;
  return count;
}

void TrafficInjector::inject_tick(double core_time, util::Rng* rngs, int n,
                                  std::uint64_t first_id,
                                  std::vector<Emission>& out) {
  for (NodeId node = 0; node < n; ++node) {
    const NodeId dst = generate(node, core_time, rngs[node]);
    if (dst == kInvalidNode) continue;
    const int length = packet_length_for(node, core_time);
    const int tenant = tenant_for(node, core_time);
    on_packet_injected(node, first_id + out.size(), core_time);
    out.push_back({node, dst, length, tenant});
  }
}

void Network::inject_due_traffic(TrafficInjector* injector) {
  // Core ticks scheduled strictly before the *end* of this router cycle.
  const double divisor = power_.clock_divisor(config_.dvfs_level);
  const double end_time = core_time_ + divisor;
  const int n = num_nodes();
  while (static_cast<double>(next_core_tick_) < end_time) {
    const auto t = static_cast<double>(next_core_tick_);
    if (injector != nullptr) {
      emissions_.clear();
      injector->inject_tick(t, node_rngs_.data(), n, next_packet_id_,
                            emissions_);
      [[maybe_unused]] NodeId prev = kInvalidNode;
      for (const Emission& e : emissions_) {
        assert(e.src > prev && e.src < n && "one emission per node, ascending");
        assert(e.dst >= 0 && e.dst < n);
        prev = e.src;
        // Packet ids follow emission order, as inject_tick numbered them.
        const std::uint64_t packet_id = next_packet_id_++;
        // Clamp so a misbehaving injector cannot split its accounting
        // between slot 0 (offered) and the uint16_t-wrapped last slot
        // (received).
        const int tenant = std::max(0, e.tenant);
        nics_[static_cast<std::size_t>(e.src)].offer_packet(
            e.dst, t, measuring_, packet_id, e.length, tenant);
        wake(e.src);  // source NIC has work now
        if (recorder_ != nullptr && recorder_->sampled(packet_id)) {
          recorder_->record(
              obs::EventKind::kPacketInject, t, cycle_, packet_id, e.src,
              e.dst, e.length > 0 ? e.length : params_.flits_per_packet);
        }
        tally(tenant, [](WindowTally& w) { ++w.offered; });
        ++total_offered_;
      }
    }
    ++next_core_tick_;
  }
}

void Network::set_fault_model(const FaultParams& params) {
  // Construction validates the params against the topology, including the
  // fail-fast connectivity check for cycle-0 link deaths.
  fault_model_.emplace(params, topology_);
  // A replaced model starts with every link alive again.
  routing_ = make_routing(params_.routing, topology_);
  node_step_divisor_.assign(static_cast<std::size_t>(num_nodes()), 1);
  // The model may fire events on the very next cycle; everyone re-arms.
  wake_all();
}

void Network::service_faults() {
  while (const FaultEvent* e = fault_model_->next_due_event(cycle_)) {
    if (e->kind == FaultEvent::Kind::kLinkDown) {
      if (fault_model_->kill_link(e->node, e->port)) {
        if (recorder_ != nullptr) {
          recorder_->record(obs::EventKind::kFaultLinkDown, core_time_,
                            cycle_, 0, e->node, e->port);
        }
        // Throws when the surviving links disconnect the topology.
        routing_.recompute(fault_model_->dead_links());
        // Minimal paths changed fabric-wide: every router — including
        // quiescent ones holding stale route candidates — must re-run under
        // the new table, mirroring apply_config's wake discipline.
        wake_all();
      }
    } else {
      node_step_divisor_[static_cast<std::size_t>(e->node)] =
          static_cast<std::uint32_t>(std::max(1, e->factor));
      if (recorder_ != nullptr) {
        recorder_->record(obs::EventKind::kFaultSlowdown, core_time_, cycle_,
                          0, e->node, std::max(1, e->factor));
      }
      // A slowdown affects exactly one node; waking it suffices (its
      // neighbors re-arm through channel wake hooks as backpressure forms).
      wake(e->node);
    }
  }
  FaultModel::Retry retry;
  while (fault_model_->pop_due_retry(cycle_, retry)) {
    // Retries re-enter through the source NIC with the original packet id
    // and inject time: latency spans the retry delay, dependency-gated
    // workloads keep their id maps, and offered counts are not re-inflated.
    nics_[static_cast<std::size_t>(retry.src)].offer_packet(
        retry.dst, retry.inject_time, retry.measured, retry.packet_id,
        retry.length, retry.tenant);
    wake(retry.src);
    if (recorder_ != nullptr && recorder_->sampled(retry.packet_id)) {
      recorder_->record(obs::EventKind::kPacketRetry, core_time_, cycle_,
                        retry.packet_id, retry.src, retry.dst);
    }
    tally(retry.tenant, [](WindowTally& w) { ++w.retries; });
  }
}

bool Network::account_faulted_record(const PacketRecord& rec,
                                     TrafficInjector* injector) {
  if (rec.corrupted) {
    tally(rec.tenant, [&](WindowTally& w) { w.flits_dropped += rec.length; });
    const bool lost = fault_model_->on_corrupt_delivery(rec, cycle_) ==
                      FaultModel::RetryVerdict::kLost;
    if (recorder_ != nullptr && recorder_->sampled(rec.packet_id)) {
      recorder_->record(obs::EventKind::kPacketDiscard, rec.eject_time,
                        cycle_, rec.packet_id, rec.src, rec.dst,
                        static_cast<std::int32_t>(rec.hops));
      if (lost) {
        recorder_->record(obs::EventKind::kPacketLost, rec.eject_time, cycle_,
                          rec.packet_id, rec.src, rec.dst);
      }
    }
    if (lost) {
      tally(rec.tenant, [](WindowTally& w) { ++w.lost; });
      if (injector != nullptr) injector->on_packet_lost(rec);
    }
    return true;
  }
  if (fault_model_->attempts_of(rec.packet_id) > 0) {
    epoch_retry_latency_.add(rec.eject_time - rec.inject_time);
    fault_model_->forget(rec.packet_id);
  }
  if (routing_.degraded()) {
    const auto minimal = static_cast<std::uint32_t>(
        topology_.min_hops(rec.src, rec.dst) + 1);
    if (rec.hops > minimal) {
      const std::uint64_t extra = rec.hops - minimal;
      tally(rec.tenant, [&](WindowTally& w) { w.rerouted_hops += extra; });
    }
  }
  return false;
}

void Network::step(TrafficInjector* injector) {
  obs::ScopedPhase prof(obs::Phase::kNetStep);
  if (fault_model_) service_faults();
  inject_due_traffic(injector);
  const double divisor = power_.clock_divisor(config_.dvfs_level);
  core_time_ += divisor;
  const FabricView v = view();

  // Event-driven sweep: only armed nodes are stepped. Skipping a quiescent
  // node is provably a no-op — its router holds no flits, nothing is in
  // flight toward it (all inbound channels empty), and its NIC is idle — and
  // channel latency >= 1 makes the per-node NIC/router interleaving
  // indistinguishable from the old all-NICs-then-all-routers order, so the
  // simulated behavior is bit-identical to cycle stepping. Records are
  // harvested inline, still in ascending node order.
  const int n = num_nodes();
  int stepped = 0;
  for (int node = 0; node < n; ++node) {
    const auto idx = static_cast<std::size_t>(node);
    if (node_active_[idx] == 0) continue;
    if (fault_model_) {
      // Router slowdown: a degraded node runs only every `div` router
      // cycles. It stays armed (its work is deferred, not done) and the
      // credit protocol bounds what can pile up on its inbound channels.
      const std::uint32_t div = node_step_divisor_[idx];
      if (div > 1 && cycle_ % div != 0) continue;
    }
    ++stepped;
    Nic& nic = nics_[idx];
    Router& router = routers_[idx];
#ifndef NDEBUG
    // Only this NIC allocates (transmission start) and releases (tail
    // ejection) packet slots during its step.
    const auto open_before = static_cast<long long>(nic.started_packets()) -
                             static_cast<long long>(nic.received_packets());
    const auto live_before = static_cast<long long>(packets_.live_count());
#endif
    nic.step(cycle_, core_time_, v);
    router.step(cycle_, v);
#ifndef NDEBUG
    assert(static_cast<long long>(packets_.live_count()) - live_before ==
               static_cast<long long>(nic.started_packets()) -
                   static_cast<long long>(nic.received_packets()) -
                   open_before &&
           "packet slots out of step with started minus ejected packets");
#endif

    const int buffered = router.buffered_flits();
    buffered_total_ += buffered - static_cast<long long>(node_buffered_[idx]);
    node_buffered_[idx] = static_cast<std::uint32_t>(buffered);

    auto& recs = nic.records();
    for (PacketRecord& rec : recs) {
      // Corrupted deliveries never count as received: they are dropped here
      // and either retried or declared lost. Clean deliveries additionally
      // account retry latency and detour hops while faults are active.
      if (fault_model_ && account_faulted_record(rec, injector)) {
        continue;
      }
      if (recorder_ != nullptr && recorder_->sampled(rec.packet_id)) {
        recorder_->record(obs::EventKind::kPacketEject, rec.eject_time,
                          cycle_, rec.packet_id, rec.dst,
                          static_cast<std::int32_t>(rec.hops), rec.tenant);
      }
      const double latency = rec.eject_time - rec.inject_time;
      tally(rec.tenant, [&](WindowTally& w) {
        ++w.received;
        w.flits_out += rec.length;
        if (rec.measured) {
          w.latency.add(latency);
          w.latency_hist.add(latency);
        }
      });
      ++total_received_;
      ++epoch_node_recv_[static_cast<std::size_t>(rec.dst)];
      if (rec.measured) epoch_hops_.add(static_cast<double>(rec.hops));
      if (injector != nullptr) injector->on_packet_delivered(rec);
    }
    recs.clear();

    // Quiescence test after the node's own activity; a send from a
    // later-indexed neighbor re-arms the flag for the *next* cycle, which
    // is exactly when its item can first become ready.
    if (buffered == 0 && (flit_pending_[idx] | credit_pending_[idx]) == 0 &&
        nic_inbound_empty(nic) && nic.idle()) {
      node_active_[idx] = 0;
    }
  }

  // Occupancy over *all* nodes: quiescent routers hold zero flits, so the
  // incrementally maintained integer total is exact.
  epoch_occupancy_.add(static_cast<double>(buffered_total_) /
                       active_capacity_);
  epoch_active_.add(static_cast<double>(stepped) / static_cast<double>(n));
  ++cycle_;
}

EpochStats Network::run_epoch(TrafficInjector* injector,
                              std::uint64_t router_cycles) {
  for (std::uint64_t i = 0; i < router_cycles; ++i) step(injector);
  return drain_epoch_stats();
}

int Network::active_capacity() const {
  int slots = 0;
  for (const NocConfig& c : per_router_configs_) {
    slots += topology_.radix() * c.active_vcs * c.active_depth;
  }
  return std::max(1, slots);
}

void Network::refresh_active_capacity() {
  active_capacity_ = static_cast<double>(active_capacity());
}

void Network::set_tenant_tracking(int num_tenants) {
  if (num_tenants < 0) {
    throw std::invalid_argument("set_tenant_tracking: negative tenant count");
  }
  tenant_windows_.clear();
  tenant_windows_.resize(static_cast<std::size_t>(num_tenants));
}

TenantEpochStats Network::WindowTally::drain() {
  TenantEpochStats s;
  s.packets_offered = std::exchange(offered, 0);
  s.packets_received = std::exchange(received, 0);
  s.packets_measured = latency.count();
  s.flits_ejected = std::exchange(flits_out, 0);
  s.avg_latency = latency.mean();
  s.p95_latency = latency_hist.percentile(0.95);
  s.max_latency = latency.count() ? latency.max() : 0.0;
  s.flits_dropped = std::exchange(flits_dropped, 0);
  s.retries = std::exchange(retries, 0);
  s.packets_lost = std::exchange(lost, 0);
  s.rerouted_hops = std::exchange(rerouted_hops, 0);
  latency.reset();
  latency_hist.reset();
  return s;
}

EpochStats Network::drain_epoch_stats() {
  EpochStats s;
  s.core_cycles = core_time_ - epoch_start_core_time_;
  s.router_cycles = cycle_ - epoch_start_cycle_;
  // Aggregate flits_ejected is NIC-counter based (below), not the tally's
  // clean-delivery count.
  const TenantEpochStats w = window_.drain();
  s.packets_offered = w.packets_offered;
  s.packets_received = w.packets_received;
  s.avg_latency = w.avg_latency;
  s.p95_latency = w.p95_latency;
  s.max_latency = w.max_latency;
  s.flits_dropped = w.flits_dropped;
  s.retries = w.retries;
  s.packets_lost = w.packets_lost;
  s.rerouted_hops = w.rerouted_hops;
  s.avg_hops = epoch_hops_.mean();
  const double node_cycles =
      s.core_cycles * static_cast<double>(num_nodes());
  s.offered_rate = node_cycles > 0.0
                       ? static_cast<double>(s.packets_offered) / node_cycles
                       : 0.0;
  s.accepted_rate = node_cycles > 0.0
                        ? static_cast<double>(s.packets_received) / node_cycles
                        : 0.0;
  s.avg_buffer_occupancy = epoch_occupancy_.mean();
  s.max_buffer_occupancy =
      epoch_occupancy_.count() ? epoch_occupancy_.max() : 0.0;
  s.avg_active_fraction = epoch_active_.mean();

  double recv_max = 0.0, recv_sum = 0.0;
  for (std::uint64_t c : epoch_node_recv_) {
    recv_max = std::max(recv_max, static_cast<double>(c));
    recv_sum += static_cast<double>(c);
  }
  const double recv_mean = recv_sum / static_cast<double>(num_nodes());
  s.hotspot_skew = recv_mean > 0.0 ? recv_max / recv_mean : 1.0;

  RouterActivity activity;
  std::uint64_t fin = 0, fout = 0;
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    Router& r = routers_[i];
    // Per-router metrics snapshot must happen before the activity reset.
    if (metrics_ != nullptr) {
      metrics_->sample_node(static_cast<int>(i), r.activity().link_flits,
                            r.buffered_flits(), r.max_vc_occupancy(),
                            nics_[i].source_queue_len());
    }
    activity += r.activity();
    r.reset_activity();
  }
  for (const Nic& nic : nics_) {
    fin += nic.injected_flits();
    fout += nic.ejected_flits();
  }
  s.flits_injected = fin - epoch_flits_in_;
  s.flits_ejected = fout - epoch_flits_out_;
  epoch_flits_in_ = fin;
  epoch_flits_out_ = fout;

  s.dynamic_energy_pj = power_.dynamic_energy(activity, config_.dvfs_level);
  const double wall_ns = s.core_cycles / power_.params().core_freq_ghz;
  s.static_energy_pj = power_.static_energy_slots(
      num_nodes(), num_links_, static_cast<double>(active_capacity()),
      config_.dvfs_level, wall_ns);

  std::uint64_t backlog = 0;
  for (const Nic& nic : nics_) backlog += nic.source_queue_len();
  s.source_queue_total = backlog;
  s.retry_latency = epoch_retry_latency_.mean();
  s.config = config_;
  s.tenants.reserve(tenant_windows_.size());
  for (WindowTally& t : tenant_windows_) s.tenants.push_back(t.drain());

  // Reset the window.
  epoch_start_core_time_ = core_time_;
  epoch_start_cycle_ = cycle_;
  epoch_retry_latency_.reset();
  epoch_hops_.reset();
  epoch_occupancy_.reset();
  epoch_active_.reset();
  std::fill(epoch_node_recv_.begin(), epoch_node_recv_.end(), 0);

  if (metrics_ != nullptr) metrics_->commit_epoch(core_time_, s);
  if (recorder_ != nullptr) {
    recorder_->record(obs::EventKind::kEpochBoundary, core_time_, cycle_, 0,
                      static_cast<std::int32_t>(s.packets_received),
                      static_cast<std::int32_t>(s.packets_offered));
  }
  return s;
}

bool Network::drained() const {
  // A retransmission waiting on its timeout is still in the system: the
  // fabric may be momentarily empty, but the packet will re-enter.
  if (fault_model_ && fault_model_->retries_pending()) return false;
  for (const Nic& nic : nics_)
    if (!nic.idle()) return false;
  for (const Router& r : routers_)
    if (!r.idle()) return false;
  for (const FlitChannel& fc : flit_channels_)
    if (!fc.empty()) return false;
  // Every tail has ejected, so every packet slot is released.
  assert(packets_.live_count() == 0);
  return true;
}

bool Network::nic_inbound_empty(const Nic& nic) const {
  return flit_channels_[static_cast<std::size_t>(nic.channels().eject_flits)]
             .empty() &&
         credit_channels_[static_cast<std::size_t>(
                              nic.channels().inject_credits)]
             .empty();
}

std::string Network::audit_quiescence() const {
  // Rebuild every node's pending masks from its non-empty inbound channels;
  // a non-empty channel must also have its receiver armed.
  const std::size_t n = routers_.size();
  std::vector<std::uint32_t> flits(n, 0), credits(n, 0);
  auto check_channels = [&](const auto& channels,
                            std::vector<std::uint32_t>& pending,
                            const char* item) -> std::string {
    for (const auto& ch : channels) {
      if (ch.empty()) continue;
      const auto to = static_cast<std::size_t>(ch.to());
      if (node_active_[to] == 0) {
        return "node " + std::to_string(to) + " is disarmed with a " + item +
               " in flight toward it";
      }
      pending[to] |= ch.pending_bit();
    }
    return "";
  };
  std::string error = check_channels(flit_channels_, flits, "flit");
  if (error.empty()) {
    error = check_channels(credit_channels_, credits, "credit");
  }
  if (!error.empty()) return error;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string where = "node " + std::to_string(i) + " ";
    if (flits[i] != flit_pending_[i] || credits[i] != credit_pending_[i]) {
      return where + "has pending masks that disagree with its channels";
    }
    if (node_active_[i] != 0) continue;
    if (!routers_[i].idle()) return where + "is disarmed with router flits";
    if (node_buffered_[i] != 0) {
      return where + "is disarmed with a stale occupancy mirror";
    }
    if (!nics_[i].idle()) return where + "is disarmed with a busy NIC";
  }
  return audit_packet_table();
}

std::string Network::audit_packet_table() const {
  std::vector<std::uint8_t> named(packets_.size(), 0);
  std::string error;
  const auto name = [&](PacketTable::Handle h) {
    if (!error.empty()) return;
    if (!packets_.live(h)) {
      error = "a flit or transmission names free packet slot " +
              std::to_string(h);
      return;
    }
    named[h] = 1;
  };
  const auto name_flit = [&](const Flit& f) { name(f.packet); };
  for (const FlitChannel& ch : flit_channels_) ch.for_each(name_flit);
  for (const Router& r : routers_) {
    r.for_each_buffered(fifo_arena_.data(), name_flit);
  }
  long long open = 0;
  for (const Nic& nic : nics_) {
    nic.for_each_transmitting(name);
    open += static_cast<long long>(nic.started_packets()) -
            static_cast<long long>(nic.received_packets());
  }
  if (!error.empty()) return error;
  for (std::size_t h = 0; h < named.size(); ++h) {
    if (packets_.live(static_cast<PacketTable::Handle>(h)) && !named[h]) {
      return "packet slot " + std::to_string(h) +
             " is live, but no flit or transmission names it";
    }
  }
  if (static_cast<long long>(packets_.live_count()) != open) {
    return std::to_string(packets_.live_count()) + " packet slots are live, " +
           "but " + std::to_string(open) +
           " packets started and have not ejected their tail";
  }
  return "";
}

std::uint64_t Network::total_flits_injected() const {
  std::uint64_t total = 0;
  for (const Nic& nic : nics_) total += nic.injected_flits();
  return total;
}

std::uint64_t Network::total_flits_ejected() const {
  std::uint64_t total = 0;
  for (const Nic& nic : nics_) total += nic.ejected_flits();
  return total;
}

}  // namespace drlnoc::noc
