#include "scenario/composite_workload.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace drlnoc::scenario {

CompositeWorkload::CompositeWorkload(int num_nodes,
                                     std::vector<TenantBinding> bindings)
    : tenants_(std::move(bindings)),
      claimed_(static_cast<std::size_t>(std::max(num_nodes, 0)), 0),
      emitted_(tenants_.size(), 0),
      delivered_(tenants_.size(), 0) {
  if (num_nodes <= 0) {
    throw std::invalid_argument("CompositeWorkload: empty fabric");
  }
  if (tenants_.empty()) {
    throw std::invalid_argument("CompositeWorkload: no tenants");
  }
  const auto nodes = static_cast<std::size_t>(num_nodes);
  std::vector<std::vector<int>> sources(nodes);
  local_of_.resize(tenants_.size());
  for (std::size_t ti = 0; ti < tenants_.size(); ++ti) {
    TenantBinding& b = tenants_[ti];
    if (b.remap && b.nodes.empty()) {
      throw std::invalid_argument("CompositeWorkload: tenant " +
                                  std::to_string(ti) +
                                  " remaps but lists no nodes");
    }
    if (b.nodes.empty()) {
      for (auto& list : sources) list.push_back(static_cast<int>(ti));
      continue;
    }
    if (b.remap) local_of_[ti].assign(nodes, noc::kInvalidNode);
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
      sources[static_cast<std::size_t>(g)].push_back(static_cast<int>(ti));
    }
  }
  // Tenants were appended in id order per node, so every polling list is
  // already ascending — the order-stable merge tiebreak.
  source_begin_.reserve(nodes + 1);
  source_begin_.push_back(0);
  for (const auto& list : sources) {
    source_tenants_.insert(source_tenants_.end(), list.begin(), list.end());
    source_begin_.push_back(
        static_cast<std::uint32_t>(source_tenants_.size()));
  }
}

void CompositeWorkload::inject_tick(double core_time, util::Rng* rngs, int n,
                                    std::uint64_t first_id,
                                    std::vector<noc::Emission>& out) {
  // Tenant by tenant in id order; see the header for why this polls every
  // node as generate() does.
  for (std::size_t ti = 0; ti < tenants_.size(); ++ti) {
    TenantBinding& b = tenants_[ti];
    if (!window_active(b, core_time)) continue;
    const double local_time = core_time - b.start;
    std::visit(
        [&](auto& w) {
          using W = std::decay_t<decltype(w)>;
          if constexpr (std::is_same_v<W, noc::SteadyWorkload>) {
            poll_tenant(ti, n, [&](noc::NodeId g, noc::NodeId local) {
              return Pending{{g, w.poll(local, rngs[g]), 0, 0}, kNoRecord};
            });
          } else if constexpr (std::is_same_v<W, noc::PhasedWorkload>) {
            const std::size_t phase = w.phase_index(local_time);
            const int length = w.phase_length(phase);
            poll_tenant(ti, n, [&](noc::NodeId g, noc::NodeId local) {
              return Pending{{g, w.poll(phase, local, rngs[g]), length, 0},
                             kNoRecord};
            });
          } else {
            // A trace draws nothing, so a tick with no record due is
            // skipped whole.
            if (w.ready_bound() > local_time) return;
            poll_tenant(ti, n, [&](noc::NodeId g, noc::NodeId local) {
              const std::size_t idx = w.take_due(local, local_time);
              if (idx == trace::TraceWorkload::kNone) {
                return Pending{{g, noc::kInvalidNode, 0, 0}, kNoRecord};
              }
              return Pending{{g, w.dst_of(idx), w.length_of(idx), 0}, idx};
            });
            w.refresh_ready_bound();
          }
        },
        b.workload);
  }
  if (pending_.empty()) return;
  first_id_ = std::min(first_id_, first_id);
  // Number the packets in ascending source order, as the per-node
  // protocol does, and do the per-packet bookkeeping in id order.
  std::sort(pending_.begin(), pending_.end(),
            [](const Pending& a, const Pending& c) {
              return a.e.src < c.e.src;
            });
  for (const Pending& p : pending_) {
    const std::uint64_t packet_id = first_id + out.size();
    const auto ti = static_cast<std::size_t>(p.e.tenant);
    ++emitted_[ti];
    if (p.record != kNoRecord) {
      std::get<trace::TraceWorkload>(tenants_[ti].workload)
          .bind(p.record, packet_id);
    }
    claimed_[static_cast<std::size_t>(p.e.src)] = 0;
    out.push_back(p.e);
  }
  pending_.clear();
}

noc::NodeId CompositeWorkload::generate(noc::NodeId src, double core_time,
                                        util::Rng& rng) {
  assert(pending_tenant_ < 0 && "injection handshake out of order");
  const auto g = static_cast<std::size_t>(src);
  for (std::uint32_t k = source_begin_[g]; k < source_begin_[g + 1]; ++k) {
    const int ti = source_tenants_[k];
    TenantBinding& b = tenants_[static_cast<std::size_t>(ti)];
    if (!window_active(b, core_time)) continue;
    const noc::NodeId local = local_src(ti, src);
    const noc::NodeId dst = std::visit(
        [&](auto& w) { return w.generate(local, core_time - b.start, rng); },
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
  const noc::NodeId local = local_src(pending_tenant_, src);
  return std::visit(
      [&](const auto& w) {
        return w.packet_length_for(local, core_time - b.start);
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
  first_id_ = std::min(first_id_, packet_id);
  TenantBinding& b = tenants_[static_cast<std::size_t>(ti)];
  const noc::NodeId local = local_src(ti, src);
  std::visit(
      [&](auto& w) {
        w.on_packet_injected(local, packet_id, core_time - b.start);
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

int CompositeWorkload::owner(const noc::PacketRecord& rec) const {
  if (rec.packet_id < first_id_) return -1;  // injected before our first
  if (rec.tenant >= tenants_.size()) {
    throw std::logic_error(
        "CompositeWorkload: delivery for tenant " +
        std::to_string(rec.tenant) + " of " +
        std::to_string(tenants_.size()) +
        " (another injector drove the network after the composite)");
  }
  return rec.tenant;
}

void CompositeWorkload::on_packet_delivered(const noc::PacketRecord& rec) {
  const int ti = owner(rec);
  if (ti < 0) return;
  ++delivered_[static_cast<std::size_t>(ti)];
  TenantBinding& b = tenants_[static_cast<std::size_t>(ti)];
  const noc::PacketRecord local =
      !b.remap && b.start == 0.0 ? rec : to_local(ti, rec);
  std::visit([&](auto& w) { w.on_packet_delivered(local); }, b.workload);
}

void CompositeWorkload::on_packet_lost(const noc::PacketRecord& rec) {
  const int ti = owner(rec);
  if (ti < 0) return;
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
