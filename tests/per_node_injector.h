// PerNode: a test wrapper that forwards only the per-node injection protocol
// (generate, packet_length_for, tenant_for, on_packet_injected) and the
// delivery hooks to an inner injector. It does not override inject_tick, so
// the network drives the inner injector one node at a time through the
// default TrafficInjector::inject_tick, as bench/e2e's CountingInjector does.
#pragma once

#include <cstdint>
#include <string>

#include "noc/network.h"

namespace drlnoc {

class PerNode final : public noc::TrafficInjector {
 public:
  explicit PerNode(noc::TrafficInjector& inner) : inner_(inner) {}

  noc::NodeId generate(noc::NodeId src, double core_time,
                       util::Rng& rng) override {
    return inner_.generate(src, core_time, rng);
  }
  int packet_length_for(noc::NodeId src, double core_time) const override {
    return inner_.packet_length_for(src, core_time);
  }
  int tenant_for(noc::NodeId src, double core_time) const override {
    return inner_.tenant_for(src, core_time);
  }
  void on_packet_injected(noc::NodeId src, std::uint64_t packet_id,
                          double core_time) override {
    inner_.on_packet_injected(src, packet_id, core_time);
  }
  void on_packet_delivered(const noc::PacketRecord& rec) override {
    inner_.on_packet_delivered(rec);
  }
  void on_packet_lost(const noc::PacketRecord& rec) override {
    inner_.on_packet_lost(rec);
  }
  std::string name() const override { return "per_node"; }

 private:
  noc::TrafficInjector& inner_;
};

}  // namespace drlnoc
