#include "scenario/composite_workload.h"

#include <cassert>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace drlnoc::scenario {

CompositeWorkload::CompositeWorkload(int num_nodes,
                                     std::vector<TenantBinding> bindings)
    : tenants_(std::move(bindings)),
      sources_(static_cast<std::size_t>(num_nodes)),
      emitted_(tenants_.size(), 0),
      delivered_(tenants_.size(), 0) {
  if (num_nodes <= 0) {
    throw std::invalid_argument("CompositeWorkload: empty fabric");
  }
  if (tenants_.empty()) {
    throw std::invalid_argument("CompositeWorkload: no tenants");
  }
  local_of_.resize(tenants_.size());
  for (std::size_t ti = 0; ti < tenants_.size(); ++ti) {
    TenantBinding& b = tenants_[ti];
    if (b.remap && b.nodes.empty()) {
      throw std::invalid_argument("CompositeWorkload: tenant " +
                                  std::to_string(ti) +
                                  " remaps but lists no nodes");
    }
    if (b.nodes.empty()) {
      for (int n = 0; n < num_nodes; ++n) {
        sources_[static_cast<std::size_t>(n)].push_back(static_cast<int>(ti));
      }
      continue;
    }
    if (b.remap) {
      local_of_[ti].assign(static_cast<std::size_t>(num_nodes),
                           noc::kInvalidNode);
    }
    for (std::size_t li = 0; li < b.nodes.size(); ++li) {
      const noc::NodeId g = b.nodes[li];
      if (g < 0 || g >= num_nodes) {
        throw std::invalid_argument("CompositeWorkload: tenant " +
                                    std::to_string(ti) + " node " +
                                    std::to_string(g) + " out of range");
      }
      if (b.remap) {
        if (local_of_[ti][static_cast<std::size_t>(g)] != noc::kInvalidNode) {
          throw std::invalid_argument("CompositeWorkload: tenant " +
                                      std::to_string(ti) + " node " +
                                      std::to_string(g) + " listed twice");
        }
        local_of_[ti][static_cast<std::size_t>(g)] =
            static_cast<noc::NodeId>(li);
      }
      sources_[static_cast<std::size_t>(g)].push_back(static_cast<int>(ti));
    }
  }
  // Tenants were appended in id order per node, so every polling list is
  // already ascending — the order-stable merge tiebreak.
}

noc::NodeId CompositeWorkload::generate(noc::NodeId src, double core_time,
                                        util::Rng& rng) {
  assert(pending_tenant_ < 0 && "injection handshake out of order");
  for (int ti : sources_[static_cast<std::size_t>(src)]) {
    TenantBinding& b = tenants_[static_cast<std::size_t>(ti)];
    if (!window_active(b, core_time)) continue;
    const noc::NodeId local_src =
        b.remap ? local_of_[static_cast<std::size_t>(ti)]
                          [static_cast<std::size_t>(src)]
                : src;
    const noc::NodeId dst = std::visit(
        [&](auto& w) { return w.generate(local_src, core_time - b.start, rng); },
        b.workload);
    if (dst == noc::kInvalidNode) continue;
    pending_tenant_ = ti;
    ++emitted_[static_cast<std::size_t>(ti)];
    if (!b.remap) return dst;
    assert(dst >= 0 && static_cast<std::size_t>(dst) < b.nodes.size());
    return b.nodes[static_cast<std::size_t>(dst)];
  }
  return noc::kInvalidNode;
}

int CompositeWorkload::packet_length_for(noc::NodeId src,
                                         double core_time) const {
  assert(pending_tenant_ >= 0 && "packet_length_for without generate");
  const TenantBinding& b = tenants_[static_cast<std::size_t>(pending_tenant_)];
  const noc::NodeId local_src =
      b.remap ? local_of_[static_cast<std::size_t>(pending_tenant_)]
                        [static_cast<std::size_t>(src)]
              : src;
  return std::visit(
      [&](const auto& w) {
        return w.packet_length_for(local_src, core_time - b.start);
      },
      b.workload);
}

int CompositeWorkload::tenant_for(noc::NodeId /*src*/,
                                  double /*core_time*/) const {
  assert(pending_tenant_ >= 0 && "tenant_for without generate");
  return pending_tenant_;
}

void CompositeWorkload::on_packet_injected(noc::NodeId src,
                                           std::uint64_t packet_id,
                                           double core_time) {
  assert(pending_tenant_ >= 0 && "on_packet_injected without generate");
  const int ti = pending_tenant_;
  pending_tenant_ = -1;
  live_.insert(packet_id, ti);
  TenantBinding& b = tenants_[static_cast<std::size_t>(ti)];
  const noc::NodeId local_src =
      b.remap ? local_of_[static_cast<std::size_t>(ti)]
                        [static_cast<std::size_t>(src)]
              : src;
  std::visit(
      [&](auto& w) {
        w.on_packet_injected(local_src, packet_id, core_time - b.start);
      },
      b.workload);
}

noc::PacketRecord CompositeWorkload::to_local(
    int ti, const noc::PacketRecord& rec) const {
  const TenantBinding& b = tenants_[static_cast<std::size_t>(ti)];
  noc::PacketRecord local = rec;
  if (b.remap) {
    const auto& map = local_of_[static_cast<std::size_t>(ti)];
    local.src = map[static_cast<std::size_t>(rec.src)];
    local.dst = map[static_cast<std::size_t>(rec.dst)];
  }
  local.inject_time = rec.inject_time - b.start;
  local.eject_time = rec.eject_time - b.start;
  return local;
}

void CompositeWorkload::on_packet_delivered(const noc::PacketRecord& rec) {
  int ti = -1;
  if (!live_.take(rec.packet_id, ti)) return;  // not ours (pre-attach)
  ++delivered_[static_cast<std::size_t>(ti)];
  TenantBinding& b = tenants_[static_cast<std::size_t>(ti)];
  const noc::PacketRecord local =
      !b.remap && b.start == 0.0 ? rec : to_local(ti, rec);
  std::visit([&](auto& w) { w.on_packet_delivered(local); }, b.workload);
}

void CompositeWorkload::on_packet_lost(const noc::PacketRecord& rec) {
  int ti = -1;
  if (!live_.take(rec.packet_id, ti)) return;
  const noc::PacketRecord local = to_local(ti, rec);
  std::visit([&](auto& w) { w.on_packet_lost(local); },
             tenants_[static_cast<std::size_t>(ti)].workload);
}

bool CompositeWorkload::quiescent(double core_time) const {
  for (const TenantBinding& b : tenants_) {
    // A finished non-looping trace is quiet; otherwise a tenant is quiet
    // only once its window (capped by the horizon) has passed — after that
    // generate() can never fire for it again.
    const auto* tw = std::get_if<trace::TraceWorkload>(&b.workload);
    if (tw != nullptr && tw->done()) continue;
    const double end = b.stop < horizon_ ? b.stop : horizon_;
    if (core_time < end) return false;
  }
  return true;
}

std::string CompositeWorkload::name() const {
  std::ostringstream os;
  os << "composite[";
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    os << (i ? "+" : "") << tenants_[i].name;
  }
  os << "]";
  return os.str();
}

}  // namespace drlnoc::scenario
