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

Network::Network(NetworkParams params, PowerParams power_params,
                 std::vector<DvfsLevel> levels)
    : params_(std::move(params)),
      power_(power_params, std::move(levels)),
      config_(params_.initial_config),
      topology_(make_topology(params_.topology, params_.width,
                              params_.height)),
      routing_(make_routing(params_.routing, *topology_)),
      epoch_node_recv_(static_cast<std::size_t>(topology_->num_nodes()), 0) {
  if (config_.active_vcs < 1 || config_.active_vcs > params_.max_vcs ||
      config_.active_depth < 1 || config_.active_depth > params_.max_depth ||
      config_.dvfs_level < 0 || config_.dvfs_level >= power_.num_levels()) {
    throw std::invalid_argument("initial NocConfig out of range");
  }
  if (topology_->required_vc_classes() > params_.max_vcs) {
    throw std::invalid_argument(
        "topology needs more VC classes than physical VCs");
  }

  util::Rng master(params_.seed);
  const int n = topology_->num_nodes();
  node_rngs_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) node_rngs_.push_back(master.fork());

  RouterParams rp;
  rp.num_ports = topology_->radix();
  rp.max_vcs = params_.max_vcs;
  rp.max_depth = params_.max_depth;
  rp.vc_classes = topology_->required_vc_classes();
  rp.active_vcs = config_.active_vcs;
  rp.active_depth = config_.active_depth;
  rp.pipeline_stages = params_.pipeline_stages;

  NicParams np;
  np.max_vcs = params_.max_vcs;
  np.max_depth = params_.max_depth;
  np.vc_classes = rp.vc_classes;
  np.active_vcs = config_.active_vcs;
  np.flits_per_packet = params_.flits_per_packet;

  routers_.reserve(static_cast<std::size_t>(n));
  nics_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    routers_.push_back(std::make_unique<Router>(i, rp, *routing_));
    nics_.push_back(std::make_unique<Nic>(i, np));
  }
  // The SoA hot-state vectors must reach their final size before wire()
  // hands out pointers into them; everything starts armed.
  node_active_.assign(static_cast<std::size_t>(n), 1);
  node_buffered_.assign(static_cast<std::size_t>(n), 0);
  wire();
  per_router_configs_.assign(static_cast<std::size_t>(n), config_);
  refresh_active_capacity();
}

Network::~Network() = default;

void Network::wire() {
  struct PortChans {
    FlitChannel* in_flits = nullptr;
    CreditChannel* out_credits = nullptr;
    FlitChannel* out_flits = nullptr;
    CreditChannel* in_credits = nullptr;
    bool to_router = false;  ///< downstream endpoint is another router
  };
  const int radix = topology_->radix();
  const int n = topology_->num_nodes();
  std::vector<PortChans> chans(static_cast<std::size_t>(n * radix));
  auto at = [&](NodeId node, PortId port) -> PortChans& {
    return chans[static_cast<std::size_t>(node * radix + port)];
  };

  // Inter-router links: one flit channel downstream + one credit channel back.
  links_ = topology_->links();
  num_links_ = static_cast<int>(links_.size());
  auto wake_on_send = [&](auto& chan, NodeId node) {
    chan->set_wake(&node_active_[static_cast<std::size_t>(node)]);
  };
  for (const Link& link : links_) {
    auto fc = std::make_unique<FlitChannel>(params_.link_latency);
    auto cc = std::make_unique<CreditChannel>(params_.link_latency);
    wake_on_send(fc, link.to.node);
    wake_on_send(cc, link.from.node);
    at(link.from.node, link.from.port).out_flits = fc.get();
    at(link.from.node, link.from.port).in_credits = cc.get();
    at(link.from.node, link.from.port).to_router = true;
    at(link.to.node, link.to.port).in_flits = fc.get();
    at(link.to.node, link.to.port).out_credits = cc.get();
    flit_channels_.push_back(std::move(fc));
    credit_channels_.push_back(std::move(cc));
  }

  // NIC links (injection + ejection), latency 1.
  for (int i = 0; i < n; ++i) {
    auto inj_f = std::make_unique<FlitChannel>(1);
    auto inj_c = std::make_unique<CreditChannel>(1);
    auto ej_f = std::make_unique<FlitChannel>(1);
    auto ej_c = std::make_unique<CreditChannel>(1);
    // All four NIC channels terminate at node i (router or its own NIC).
    wake_on_send(inj_f, i);
    wake_on_send(ej_f, i);
    wake_on_send(inj_c, i);
    wake_on_send(ej_c, i);
    at(i, kLocalPort).in_flits = inj_f.get();
    at(i, kLocalPort).out_credits = inj_c.get();
    at(i, kLocalPort).out_flits = ej_f.get();
    at(i, kLocalPort).in_credits = ej_c.get();
    nics_[static_cast<std::size_t>(i)]->connect(inj_f.get(), inj_c.get(),
                                                ej_f.get(), ej_c.get());
    nics_[static_cast<std::size_t>(i)]->init_credits(config_.active_depth);
    flit_channels_.push_back(std::move(inj_f));
    flit_channels_.push_back(std::move(ej_f));
    credit_channels_.push_back(std::move(inj_c));
    credit_channels_.push_back(std::move(ej_c));
  }

  for (int i = 0; i < n; ++i) {
    for (int p = 0; p < radix; ++p) {
      const PortChans& pc = at(i, p);
      routers_[static_cast<std::size_t>(i)]->connect(
          p, pc.in_flits, pc.out_credits, pc.out_flits, pc.in_credits);
      if (pc.out_flits != nullptr) {
        // Credits for a downstream router reflect its active depth; the NIC
        // ejection buffer is never gated, so it advertises full depth.
        const int credits =
            pc.to_router ? config_.active_depth : params_.max_depth;
        routers_[static_cast<std::size_t>(i)]->init_output_credits(p, credits);
      }
    }
  }
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
}  // namespace

void Network::apply_config(const NocConfig& config) {
  validate_config(config, params_, power_.num_levels());
  for (auto& r : routers_) {
    r->set_active_vcs(config.active_vcs, cycle_);
    r->set_active_depth(config.active_depth, cycle_);
  }
  for (auto& nic : nics_) nic->set_active_vcs(config.active_vcs);
  config_ = config;
  per_router_configs_.assign(static_cast<std::size_t>(num_nodes()), config);
  refresh_active_capacity();
  if (recorder_ != nullptr) {
    recorder_->record(obs::EventKind::kConfigApply, core_time_, cycle_, 0,
                      config.active_vcs, config.active_depth,
                      config.dvfs_level);
  }
  // Reconfiguration touches every router (gating, depth, clock) — even
  // quiescent ones must re-run under the new configuration. Depth growth
  // also floods bonus credits, whose wake hooks alone would only wake
  // upstream neighbors.
  wake_all();
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
  NocConfig representative = configs.front();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    auto& r = routers_[i];
    r->set_active_vcs(configs[i].active_vcs, cycle_);
    r->set_active_depth(configs[i].active_depth, cycle_);
    nics_[i]->set_active_vcs(configs[i].active_vcs);
    representative.active_vcs =
        std::max(representative.active_vcs, configs[i].active_vcs);
    representative.active_depth =
        std::max(representative.active_depth, configs[i].active_depth);
  }
  // VC allocation gates on the *downstream* router's active VC set.
  for (const Link& link : links_) {
    routers_[static_cast<std::size_t>(link.from.node)]->set_output_active_vcs(
        link.from.port,
        configs[static_cast<std::size_t>(link.to.node)].active_vcs);
  }
  config_ = representative;
  per_router_configs_ = configs;
  refresh_active_capacity();
  if (recorder_ != nullptr) {
    recorder_->record(obs::EventKind::kConfigApply, core_time_, cycle_, 0,
                      representative.active_vcs, representative.active_depth,
                      representative.dvfs_level);
  }
  wake_all();
}

void Network::set_flight_recorder(obs::FlightRecorder* recorder) {
  recorder_ = recorder;
  // Attach through routers_ directly: the mutable router() accessor would
  // re-arm quiescent nodes and perturb the event-driven schedule.
  for (auto& r : routers_) r->set_flight_recorder(recorder);
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

void Network::inject_due_traffic(TrafficInjector* injector) {
  // Core ticks scheduled strictly before the *end* of this router cycle.
  const double divisor = power_.clock_divisor(config_.dvfs_level);
  const double end_time = core_time_ + divisor;
  const int n = num_nodes();
  while (static_cast<double>(next_core_tick_) < end_time) {
    const auto t = static_cast<double>(next_core_tick_);
    if (injector != nullptr) {
      for (int node = 0; node < n; ++node) {
        const NodeId dst =
            injector->generate(node, t, node_rngs_[static_cast<std::size_t>(node)]);
        if (dst == kInvalidNode) continue;
        assert(dst >= 0 && dst < n);
        const int length = injector->packet_length_for(node, t);
        // Clamp so a misbehaving injector cannot split its accounting
        // between slot 0 (offered) and the uint16_t-wrapped last slot
        // (received).
        const int tenant = std::max(0, injector->tenant_for(node, t));
        const std::uint64_t packet_id = next_packet_id_++;
        nics_[static_cast<std::size_t>(node)]->offer_packet(
            dst, t, measuring_, packet_id, length, tenant);
        wake(node);  // source NIC has work now
        injector->on_packet_injected(node, packet_id, t);
        if (recorder_ != nullptr && recorder_->sampled(packet_id)) {
          recorder_->record(
              obs::EventKind::kPacketInject, t, cycle_, packet_id, node, dst,
              length > 0 ? length : params_.flits_per_packet);
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
  fault_model_ = std::make_unique<FaultModel>(params, *topology_);
  fault_routing_ = std::make_unique<FaultAwareRouting>(*routing_, *topology_);
  node_step_divisor_.assign(static_cast<std::size_t>(num_nodes()), 1);
  for (auto& r : routers_) {
    r->set_routing(*fault_routing_);
    r->set_fault_model(fault_model_.get());
  }
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
        fault_routing_->recompute(fault_model_->dead_links());
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
    nics_[static_cast<std::size_t>(retry.src)]->offer_packet(
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
  if (fault_routing_->degraded()) {
    const auto minimal = static_cast<std::uint32_t>(
        topology_->min_hops(rec.src, rec.dst) + 1);
    if (rec.hops > minimal) {
      const std::uint64_t extra = rec.hops - minimal;
      tally(rec.tenant, [&](WindowTally& w) { w.rerouted_hops += extra; });
    }
  }
  return false;
}

void Network::step(TrafficInjector* injector) {
  obs::ScopedPhase prof(obs::Phase::kNetStep);
  if (fault_model_ != nullptr) service_faults();
  inject_due_traffic(injector);
  const double divisor = power_.clock_divisor(config_.dvfs_level);
  core_time_ += divisor;

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
    if (fault_model_ != nullptr) {
      // Router slowdown: a degraded node runs only every `div` router
      // cycles. It stays armed (its work is deferred, not done) and the
      // credit protocol bounds what can pile up on its inbound channels.
      const std::uint32_t div = node_step_divisor_[idx];
      if (div > 1 && cycle_ % div != 0) continue;
    }
    ++stepped;
    Nic& nic = *nics_[idx];
    Router& router = *routers_[idx];
    nic.step(cycle_, core_time_);
    router.step(cycle_);

    const int buffered = router.buffered_flits();
    buffered_total_ += buffered - static_cast<long long>(node_buffered_[idx]);
    node_buffered_[idx] = static_cast<std::uint32_t>(buffered);

    auto& recs = nic.records();
    for (PacketRecord& rec : recs) {
      // Corrupted deliveries never count as received: they are dropped here
      // and either retried or declared lost. Clean deliveries additionally
      // account retry latency and detour hops while faults are active.
      if (fault_model_ != nullptr && account_faulted_record(rec, injector)) {
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
    if (buffered == 0 && router.inbound_empty() && nic.inbound_empty() &&
        nic.idle()) {
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
    slots += topology_->radix() * c.active_vcs * c.active_depth;
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
    Router& r = *routers_[i];
    // Per-router metrics snapshot must happen before the activity reset.
    if (metrics_ != nullptr) {
      metrics_->sample_node(static_cast<int>(i), r.activity().link_flits,
                            r.buffered_flits(), r.max_vc_occupancy(),
                            nics_[i]->source_queue_len());
    }
    activity += r.activity();
    r.reset_activity();
  }
  for (auto& nic : nics_) {
    fin += nic->injected_flits();
    fout += nic->ejected_flits();
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
  for (auto& nic : nics_) backlog += nic->source_queue_len();
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
  if (fault_model_ != nullptr && fault_model_->retries_pending()) return false;
  for (const auto& nic : nics_)
    if (!nic->idle()) return false;
  for (const auto& r : routers_)
    if (!r->idle()) return false;
  for (const auto& fc : flit_channels_)
    if (!fc->empty()) return false;
  return true;
}

std::string Network::audit_quiescence() const {
  auto check_channels = [&](const auto& channels,
                            const char* item) -> std::string {
    for (const auto& ch : channels) {
      const std::uint8_t* flag = ch->wake_flag();
      if (*flag == 0 && !ch->empty()) {
        return "node " + std::to_string(flag - node_active_.data()) +
               " is disarmed with a " + item + " in flight toward it";
      }
    }
    return "";
  };
  std::string error = check_channels(flit_channels_, "flit");
  if (error.empty()) error = check_channels(credit_channels_, "credit");
  if (!error.empty()) return error;
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    if (node_active_[i] != 0) continue;
    const std::string where = "node " + std::to_string(i) + " is disarmed ";
    if (!routers_[i]->idle()) return where + "with flits in its router";
    if (node_buffered_[i] != 0) return where + "with a stale occupancy mirror";
    if (!nics_[i]->idle()) return where + "with a busy NIC";
  }
  return "";
}

std::uint64_t Network::total_flits_injected() const {
  std::uint64_t total = 0;
  for (const auto& nic : nics_) total += nic->injected_flits();
  return total;
}

std::uint64_t Network::total_flits_ejected() const {
  std::uint64_t total = 0;
  for (const auto& nic : nics_) total += nic->ejected_flits();
  return total;
}

}  // namespace drlnoc::noc
