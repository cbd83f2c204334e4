#include "noc/faults.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/config.h"
#include "util/rng.h"

namespace drlnoc::noc {

namespace {

/// BFS live-hop distances toward every destination over the surviving
/// directed links. dist[dst * n + node] is the hop count from `node` to
/// `dst`; throws when any pair is disconnected. Shared by
/// FaultAwareRouting::recompute and the fail-fast scenario validation.
void build_fault_distances(const Topology& topo,
                           const std::vector<std::uint8_t>& dead,
                           std::vector<std::int16_t>& dist) {
  const int n = topo.num_nodes();
  const int radix = topo.radix();
  constexpr std::int16_t kUnreachable = -1;
  dist.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
              kUnreachable);

  // Reverse adjacency of the surviving links: rev[v] lists the nodes u with
  // a live directed link u -> v. Built once; reused by every BFS.
  std::vector<std::vector<NodeId>> rev(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    for (PortId p = 1; p < radix; ++p) {
      if (dead[static_cast<std::size_t>(u * radix + p)] != 0) continue;
      const auto nb = topo.neighbor(u, p);
      if (!nb) continue;
      rev[static_cast<std::size_t>(nb->node)].push_back(u);
    }
  }

  std::vector<NodeId> queue;
  queue.reserve(static_cast<std::size_t>(n));
  for (NodeId dst = 0; dst < n; ++dst) {
    std::int16_t* d = &dist[static_cast<std::size_t>(dst) *
                            static_cast<std::size_t>(n)];
    queue.clear();
    d[dst] = 0;
    queue.push_back(dst);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      for (const NodeId u : rev[static_cast<std::size_t>(v)]) {
        if (d[u] != kUnreachable) continue;
        d[u] = static_cast<std::int16_t>(d[v] + 1);
        queue.push_back(u);
      }
    }
    if (queue.size() != static_cast<std::size_t>(n)) {
      for (NodeId u = 0; u < n; ++u) {
        if (d[u] == kUnreachable) {
          throw std::runtime_error(
              "fault model: link failures disconnect the topology: node " +
              std::to_string(u) + " cannot reach node " + std::to_string(dst));
        }
      }
    }
  }
}

}  // namespace

std::string to_string(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kLinkDown: return "link_down";
    case FaultEvent::Kind::kSlowdown: return "slowdown";
  }
  return "unknown";
}

FaultParams FaultParams::from_config(const util::Config& cfg,
                                     FaultParams base) {
  base.link_fault_rate = cfg.get("fault_rate", base.link_fault_rate);
  base.seed = static_cast<std::uint64_t>(
      cfg.get("fault_seed", static_cast<long long>(base.seed)));
  const long long timeout =
      cfg.get("fault_timeout", static_cast<long long>(base.retry_timeout));
  if (timeout < 1) throw std::invalid_argument("fault_timeout must be >= 1");
  base.retry_timeout = static_cast<Cycle>(timeout);
  base.retry_backoff = cfg.get("fault_backoff", base.retry_backoff);
  base.retry_budget = cfg.get("fault_budget", base.retry_budget);
  return base;
}

void FaultParams::validate() const {
  if (!std::isfinite(link_fault_rate) || link_fault_rate < 0.0 ||
      link_fault_rate > 1.0) {
    throw std::invalid_argument(
        "faults: link_fault_rate must be finite in [0, 1]");
  }
  if (retry_timeout < 1) {
    throw std::invalid_argument("faults: retry_timeout must be >= 1");
  }
  if (!std::isfinite(retry_backoff) || retry_backoff < 1.0) {
    throw std::invalid_argument(
        "faults: retry_backoff must be finite and >= 1");
  }
  if (retry_budget < 0) {
    throw std::invalid_argument("faults: retry_budget must be >= 0");
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    const std::string where = "faults: event" + std::to_string(i) + ": ";
    if (e.kind == FaultEvent::Kind::kLinkDown && e.port == kLocalPort) {
      throw std::invalid_argument(where +
                                  "link_down cannot target the local port");
    }
    if (e.kind == FaultEvent::Kind::kSlowdown && e.factor < 1) {
      throw std::invalid_argument(where + "slowdown factor must be >= 1");
    }
  }
}

void FaultParams::validate(const Topology& topo) const {
  validate();
  const int n = topo.num_nodes();
  const int radix = topo.radix();
  std::vector<std::uint8_t> dead_at_zero(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(radix), 0);
  bool any_at_zero = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    const std::string where = "faults: event" + std::to_string(i) + ": ";
    if (e.node < 0 || e.node >= n) {
      throw std::invalid_argument(where + "node outside [0, " +
                                  std::to_string(n) + ")");
    }
    if (e.kind == FaultEvent::Kind::kLinkDown) {
      if (e.port < 1 || e.port >= radix) {
        throw std::invalid_argument(where + "port outside [1, " +
                                    std::to_string(radix) + ")");
      }
      if (!topo.neighbor(e.node, e.port)) {
        throw std::invalid_argument(where + "port is not a connected link");
      }
      if (e.at_cycle == 0) {
        dead_at_zero[static_cast<std::size_t>(e.node * radix + e.port)] = 1;
        any_at_zero = true;
      }
    }
  }
  if (any_at_zero) {
    std::vector<std::int16_t> dist;
    try {
      build_fault_distances(topo, dead_at_zero, dist);
    } catch (const std::runtime_error& err) {
      throw std::invalid_argument(
          std::string("faults: cycle-0 events reject: ") + err.what());
    }
  }
}

// --- FaultAwareRouting ------------------------------------------------------

FaultAwareRouting::FaultAwareRouting(const RoutingAlgorithm& base,
                                     const Topology& topo)
    : base_(base), topo_(topo) {}

void FaultAwareRouting::recompute(const std::vector<std::uint8_t>& dead) {
  build_fault_distances(topo_, dead, dist_);
  dead_ = dead;
  degraded_ = true;
}

void FaultAwareRouting::route(const Flit& flit, NodeId node, PortId in_port,
                              std::vector<RouteChoice>& out) const {
  if (!degraded_) {
    base_.route(flit, node, in_port, out);
    return;
  }
  if (node == flit.dst) {
    out.push_back(RouteChoice{kLocalPort, flit.vc_class});
    return;
  }
  const auto n = static_cast<std::size_t>(topo_.num_nodes());
  const std::int16_t* d = &dist_[static_cast<std::size_t>(flit.dst) * n];
  const int radix = topo_.radix();
  // Lowest-numbered live port on a minimal surviving path. Ascending port
  // order is east/west before north/south on meshes, biasing the detour
  // toward dimension order. A U-turn is only admissible as a last resort:
  // it can appear transiently when a recompute flips distances under a
  // packet already past `node`.
  PortId u_turn = -1;
  for (PortId p = 1; p < radix; ++p) {
    if (dead_[static_cast<std::size_t>(node * radix + p)] != 0) continue;
    const auto nb = topo_.neighbor(node, p);
    if (!nb) continue;
    if (d[nb->node] + 1 != d[node]) continue;
    // Dateline classes never reset under degraded routing: detours may mix
    // dimensions mid-path, so the conservative rule (escalate on every
    // dateline crossing, never de-escalate) keeps ring/torus wrap cycles
    // broken at the cost of restricting detoured packets to class 1.
    std::uint8_t cls = flit.vc_class;
    if (topo_.crosses_dateline(node, p)) cls = 1;
    if (p == in_port) {
      u_turn = p;
      continue;
    }
    out.push_back(RouteChoice{p, cls});
    return;
  }
  if (u_turn >= 0) {
    std::uint8_t cls = flit.vc_class;
    if (topo_.crosses_dateline(node, u_turn)) cls = 1;
    out.push_back(RouteChoice{u_turn, cls});
    return;
  }
  throw std::runtime_error(
      "fault routing: no live minimal port at node " + std::to_string(node) +
      " toward " + std::to_string(flit.dst));
}

// --- FaultModel -------------------------------------------------------------

FaultModel::FaultModel(FaultParams params, const Topology& topo)
    : params_(std::move(params)), radix_(topo.radix()) {
  params_.validate(topo);
  dead_.assign(static_cast<std::size_t>(topo.num_nodes()) *
                   static_cast<std::size_t>(radix_),
               0);
  // Deterministic firing order: by cycle, ties in declaration order.
  std::stable_sort(params_.events.begin(), params_.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_cycle < b.at_cycle;
                   });
}

bool FaultModel::corrupt_on_link(NodeId node, PortId port, const Flit& flit,
                                 Cycle cycle) const {
  const std::size_t li = link_index(node, port);
  if (dead_count_ > 0 && dead_[li] != 0) return true;
  if (params_.link_fault_rate <= 0.0) return false;
  // Stateless decision: a hash of (seed, link, cycle, packet, seq) so the
  // outcome is independent of node visit order and flit interleaving.
  std::uint64_t state =
      params_.seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(li) + 1));
  state ^= util::splitmix64(state) + cycle;
  state ^= 0x632be59bd9b4e019ULL * flit.packet_id + flit.seq;
  const std::uint64_t h = util::splitmix64(state);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < params_.link_fault_rate;
}

bool FaultModel::kill_link(NodeId node, PortId port) {
  std::uint8_t& flag = dead_[link_index(node, port)];
  if (flag != 0) return false;
  flag = 1;
  ++dead_count_;
  return true;
}

const FaultEvent* FaultModel::next_due_event(Cycle cycle) {
  if (next_event_ >= params_.events.size()) return nullptr;
  const FaultEvent& e = params_.events[next_event_];
  if (e.at_cycle > cycle) return nullptr;
  ++next_event_;
  return &e;
}

int FaultModel::attempts_of(std::uint64_t packet_id) const {
  for (const auto& [id, count] : attempts_) {
    if (id == packet_id) return count;
  }
  return 0;
}

void FaultModel::forget(std::uint64_t packet_id) {
  for (auto& entry : attempts_) {
    if (entry.first == packet_id) {
      entry = attempts_.back();
      attempts_.pop_back();
      return;
    }
  }
}

FaultModel::RetryVerdict FaultModel::on_corrupt_delivery(
    const PacketRecord& rec, Cycle cycle) {
  int attempts = 0;
  std::pair<std::uint64_t, int>* slot = nullptr;
  for (auto& entry : attempts_) {
    if (entry.first == rec.packet_id) {
      slot = &entry;
      attempts = entry.second;
      break;
    }
  }
  if (attempts >= params_.retry_budget) {
    if (slot != nullptr) forget(rec.packet_id);
    return RetryVerdict::kLost;
  }
  if (slot == nullptr) {
    attempts_.emplace_back(rec.packet_id, 0);
    slot = &attempts_.back();
  }
  ++slot->second;
  // timeout * backoff^attempt, clamped so an extreme budget cannot push the
  // due cycle past any practical horizon.
  double delay = static_cast<double>(params_.retry_timeout) *
                 std::pow(params_.retry_backoff, static_cast<double>(attempts));
  delay = std::min(delay, 1.0e15);
  const Cycle due =
      cycle + std::max<Cycle>(1, static_cast<Cycle>(std::llround(delay)));

  HeapEntry entry;
  entry.due = due;
  entry.seq = retry_seq_++;
  entry.retry.packet_id = rec.packet_id;
  entry.retry.src = rec.src;
  entry.retry.dst = rec.dst;
  entry.retry.inject_time = rec.inject_time;
  entry.retry.length = rec.length;
  entry.retry.tenant = rec.tenant;
  entry.retry.measured = rec.measured;
  retry_heap_.push_back(entry);
  std::push_heap(retry_heap_.begin(), retry_heap_.end(), heap_after);
  return RetryVerdict::kRetryScheduled;
}

bool FaultModel::pop_due_retry(Cycle cycle, Retry& out) {
  if (retry_heap_.empty() || retry_heap_.front().due > cycle) return false;
  std::pop_heap(retry_heap_.begin(), retry_heap_.end(), heap_after);
  out = retry_heap_.back().retry;
  retry_heap_.pop_back();
  return true;
}

}  // namespace drlnoc::noc
