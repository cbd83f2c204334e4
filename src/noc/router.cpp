#include "noc/router.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>
#include <utility>

#include "noc/faults.h"
#include "obs/flight_recorder.h"

namespace drlnoc::noc {

RouterActivity& RouterActivity::operator+=(const RouterActivity& o) {
  buffer_writes += o.buffer_writes;
  buffer_reads += o.buffer_reads;
  vc_allocs += o.vc_allocs;
  sw_arbs += o.sw_arbs;
  xbar_traversals += o.xbar_traversals;
  link_flits += o.link_flits;
  return *this;
}

Router::Router(NodeId id, RouterParams params, std::vector<PortChannels> ports)
    : id_(id), params_(params), ports_(std::move(ports)),
      inputs_(static_cast<std::size_t>(params.num_ports * params.max_vcs)),
      outputs_(static_cast<std::size_t>(params.num_ports * params.max_vcs)),
      out_active_vcs_(static_cast<std::size_t>(params.num_ports),
                      params.active_vcs),
      va_rr_(static_cast<std::size_t>(params.num_ports * params.max_vcs), 0),
      sa_in_rr_(static_cast<std::size_t>(params.num_ports), 0),
      sa_out_rr_(static_cast<std::size_t>(params.num_ports), 0),
      va_head_(static_cast<std::size_t>(params.num_ports * params.max_vcs),
               -1),
      va_next_(static_cast<std::size_t>(params.num_ports * params.max_vcs),
               -1),
      sa_ready_(static_cast<std::size_t>(params.num_ports), 0),
      vc_meta_(static_cast<std::size_t>(params.num_ports * params.max_vcs)) {
  // Hard limits of the compact pipeline state: VcMeta packs ports/VCs/depth
  // into int8, and the ready/pending masks hold one bit per port or per VC
  // in 32-bit words. NetworkParams::validate enforces them in every build;
  // topologies have radix <= 5.
  assert(params.num_ports <= 32 && params.max_vcs <= 32 &&
         params.max_depth <= 127);
  assert(static_cast<int>(ports_.size()) == params.num_ports);
  const auto num_inputs =
      static_cast<std::size_t>(params.num_ports * params.max_vcs);
  va_touched_.reserve(num_inputs);
  route_ready_.reserve(num_inputs);
  va_list_.reserve(num_inputs);
  sa_winners_.reserve(static_cast<std::size_t>(params.num_ports));
  assert(params.max_vcs % params.vc_classes == 0);
  assert(params.active_vcs >= 1 && params.active_vcs <= params.max_vcs);
  assert(params.active_depth >= 1 && params.active_depth <= params.max_depth);
  const auto fifo_depth =
      std::bit_ceil(static_cast<unsigned>(params_.max_depth));
  fifo_shift_ = std::countr_zero(fifo_depth);
  fifo_mask_ = static_cast<int>(fifo_depth) - 1;
  fifo_base_ = static_cast<std::size_t>(id) * fifo_slots(params_);
  for (auto& in : inputs_) {
    in.advertised = params_.active_depth;
    // Adaptive algorithms return at most 3 candidates; pre-sizing keeps
    // even a VC's first-ever route_compute allocation-free.
    in.candidates.reserve(4);
  }
  vcs_per_class_ = params_.max_vcs / params_.vc_classes;
  adm_begin_.resize(
      static_cast<std::size_t>(params_.num_ports * params_.vc_classes));
  adm_end_.resize(
      static_cast<std::size_t>(params_.num_ports * params_.vc_classes));
  refresh_admissible_cache();
}

std::size_t Router::fifo_slots(const RouterParams& params) {
  return static_cast<std::size_t>(params.num_ports * params.max_vcs) *
         std::bit_ceil(static_cast<std::size_t>(params.max_depth));
}

void Router::refresh_admissible_cache() {
  for (int p = 0; p < params_.num_ports; ++p) {
    for (int c = 0; c < params_.vc_classes; ++c) {
      const auto [begin, end] =
          admissible_range(static_cast<std::uint8_t>(c), p);
      adm_begin_[static_cast<std::size_t>(adm_index(p, c))] = begin;
      adm_end_[static_cast<std::size_t>(adm_index(p, c))] = end;
    }
  }
  va_stalled_ = false;  // newly admissible VCs may unblock waiting heads
}

void Router::init_output_credits(PortId port, int credits_per_vc) {
  assert(credits_per_vc >= 0 && credits_per_vc <= params_.max_depth);
  for (int v = 0; v < params_.max_vcs; ++v) {
    ovc(port, v).credits = credits_per_vc;
  }
}

void Router::set_output_active_vcs(PortId port, int vcs) {
  assert(vcs >= 1 && vcs <= params_.max_vcs);
  out_active_vcs_[static_cast<std::size_t>(port)] = vcs;
  refresh_admissible_cache();
}

int Router::output_active_vcs(PortId port) const {
  return out_active_vcs_[static_cast<std::size_t>(port)];
}

std::pair<VcId, VcId> Router::admissible_range(std::uint8_t vc_class,
                                               PortId out_port) const {
  const int active = out_active_vcs_[static_cast<std::size_t>(out_port)];
  const int per_class_phys = params_.max_vcs / params_.vc_classes;
  const int per_class_active = std::max(1, active / params_.vc_classes);
  const VcId begin = static_cast<VcId>(vc_class) * per_class_phys;
  const VcId end = begin + std::min(per_class_active, per_class_phys);
  return {begin, end};
}

void Router::step(Cycle cycle, const FabricView& view) {
  receive_phase(cycle, view);
  route_compute(view);
  vc_allocate(cycle, view);
  switch_allocate_and_traverse(cycle, view);
}

void Router::receive_phase(Cycle cycle, const FabricView& view) {
  // Only non-empty inbound channels are visited: a send sets its port's bit
  // of the node's pending masks (FabricView::send), and the bit is cleared
  // here once the channel is empty.
  std::uint32_t& flit_pending = view.flit_pending[id_];
  for (std::uint32_t m = flit_pending; m != 0; m &= m - 1) {
    const int p = std::countr_zero(m);
    FlitChannel& ch = view.flits[ports_[static_cast<std::size_t>(p)].in_flits];
    while (ch.ready(cycle)) {
      const Flit& flit = ch.receive(cycle);
      const VcId vc = flit.vc;
      assert(vc < params_.max_vcs);
      const int idx = p * params_.max_vcs + vc;
      VcMeta& meta = vc_meta_[static_cast<std::size_t>(idx)];
      assert(meta.occ < params_.max_depth &&
             "credit protocol violated: input buffer overflow");
      // Single copy: channel slot straight into the input FIFO slot.
      view.fifo[fifo_slot(idx, meta.occ)] = flit;
      if (++meta.occ == 1) {
        // A flit landing in an empty idle VC is a freshly routable head
        // (an idle VC with older flits was listed when its tail departed);
        // one landing in an empty active VC may make it SA-ready.
        if (meta.state == VcState::kIdle) {
          route_ready_.push_back(static_cast<std::int16_t>(idx));
        } else if (meta.state == VcState::kActive) {
          update_sa_ready(p, vc);
        }
      }
      ++buffered_total_;
      ++activity_.buffer_writes;
    }
    if (ch.empty()) flit_pending &= ~(1u << p);
  }
  std::uint32_t& credit_pending = view.credit_pending[id_];
  for (std::uint32_t m = credit_pending; m != 0; m &= m - 1) {
    const int p = std::countr_zero(m);
    CreditChannel& ch =
        view.credits[ports_[static_cast<std::size_t>(p)].in_credits];
    while (ch.ready(cycle)) {
      const Credit c = ch.receive(cycle);
      OutputVc& out = ovc(p, c.vc);
      ++out.credits;
      assert(out.credits <= params_.max_depth &&
             "credit protocol violated: credit overflow");
      // The first credit of a starved output VC may unblock its owner.
      if (out.credits == 1 && out.owner >= 0) {
        update_sa_ready(out.owner / params_.max_vcs,
                        out.owner % params_.max_vcs);
      }
    }
    if (ch.empty()) credit_pending &= ~(1u << p);
  }
}

void Router::update_sa_ready(PortId port, VcId vc) {
  const VcMeta& meta =
      vc_meta_[static_cast<std::size_t>(port * params_.max_vcs + vc)];
  std::uint32_t& mask = sa_ready_[static_cast<std::size_t>(port)];
  const std::uint32_t bit = 1u << vc;
  if (meta.state == VcState::kActive && meta.occ > 0 &&
      ovc(meta.out_port, meta.out_vc).credits > 0) {
    mask |= bit;
  } else {
    mask &= ~bit;
  }
  const std::uint32_t port_bit = 1u << port;
  if (mask != 0) {
    sa_ready_ports_ |= port_bit;
  } else {
    sa_ready_ports_ &= ~port_bit;
  }
}

void Router::route_compute(const FabricView& view) {
  // Event-driven: route_ready_ lists exactly the idle VCs whose head-of-line
  // flit is an unrouted packet head (filled by receive_phase and tail
  // departures). Routing-call order across VCs has no shared state, so the
  // event order is as good as the old ascending scan.
  if (route_ready_.empty()) return;
  va_stalled_ = false;  // new heads join va_list_
  for (const std::int16_t idx : route_ready_) {
    VcMeta& meta = vc_meta_[static_cast<std::size_t>(idx)];
    assert(meta.state == VcState::kIdle && meta.occ > 0);
    InputVc& in = inputs_[static_cast<std::size_t>(idx)];
    const Flit& head = view.fifo[fifo_slot(idx, 0)];
    assert(is_head(head.type) &&
           "input VC idle but head-of-line flit is not a packet head");
    in.candidates.clear();
    view.routing->route(head, id_, idx / params_.max_vcs, in.candidates);
    assert(!in.candidates.empty());
    meta.state = VcState::kVcAlloc;
    va_list_.push_back(idx);
  }
  route_ready_.clear();
}

void Router::vc_allocate(Cycle cycle, const FabricView& view) {
  // Stage 1: each waiting input VC nominates its single preferred
  // (out_port, out_vc): among route candidates, the free admissible VC with
  // the most downstream credits (adaptive routing's congestion signal).
  // Requests are bucketed per output VC slot in the persistent
  // va_head_/va_next_ intrusive lists — no per-cycle heap traffic. Only the
  // slots touched this cycle (va_touched_) are visited and reset, so a
  // cycle with no waiting packets costs one counter check. A round with no
  // request at all stalls VA until something can change that (va_stalled_):
  // whether a request exists depends only on va_list_, the owner of each
  // output VC and the admissible ranges, never on credits.
  if (va_list_.empty() || va_stalled_) return;
  const int num_inputs = params_.num_ports * params_.max_vcs;
  va_touched_.clear();

  for (const std::int16_t idx : va_list_) {
    assert(vc_meta_[static_cast<std::size_t>(idx)].state ==
           VcState::kVcAlloc);
    const InputVc& in = inputs_[static_cast<std::size_t>(idx)];
    int best_slot = -1;
    int best_credits = -1;
    for (const RouteChoice& cand : in.candidates) {
      const auto adm =
          static_cast<std::size_t>(adm_index(cand.port, cand.vc_class));
      const VcId begin = adm_begin_[adm];
      const VcId end = adm_end_[adm];
      for (VcId ov = begin; ov < end; ++ov) {
        const OutputVc& out = ovc(cand.port, ov);
        if (out.owner >= 0) continue;
        if (out.credits > best_credits) {
          best_credits = out.credits;
          best_slot = cand.port * params_.max_vcs + ov;
        }
      }
      // Deterministic algorithms have one candidate; adaptive ones are
      // compared purely on credits, so keep scanning all candidates.
    }
    if (best_slot >= 0) {
      if (va_head_[static_cast<std::size_t>(best_slot)] < 0) {
        va_touched_.push_back(best_slot);
      }
      va_next_[static_cast<std::size_t>(idx)] =
          va_head_[static_cast<std::size_t>(best_slot)];
      va_head_[static_cast<std::size_t>(best_slot)] = idx;
    }
  }
  if (va_touched_.empty()) {
    va_stalled_ = true;
    return;
  }

  // Stage 2: round-robin grant per output VC. The winner is the requester
  // with the minimum cyclic distance from the round-robin pointer; input
  // slot indices are unique, so list order is immaterial — and so is the
  // slot visit order, because each input requests exactly one slot and the
  // grants touch disjoint state.
  for (const int touched : va_touched_) {
    const auto slot = static_cast<std::size_t>(touched);
    int req = va_head_[slot];
    assert(req >= 0);
    OutputVc& out = outputs_[slot];
    assert(out.owner < 0);
    int& rr = va_rr_[slot];
    int winner = -1;
    int best_distance = num_inputs + 1;
    for (; req >= 0; req = va_next_[static_cast<std::size_t>(req)]) {
      int dist = req - rr;  // cyclic distance without the integer divide
      if (dist < 0) dist += num_inputs;
      if (dist < best_distance) {
        best_distance = dist;
        winner = req;
      }
    }
    VcMeta& wmeta = vc_meta_[static_cast<std::size_t>(winner)];
    wmeta.out_port = static_cast<std::int8_t>(touched / params_.max_vcs);
    wmeta.out_vc = static_cast<std::int8_t>(touched % params_.max_vcs);
    wmeta.state = VcState::kActive;
    out.owner = static_cast<std::int16_t>(winner);
    for (std::size_t i = 0; i < va_list_.size(); ++i) {  // tiny list
      if (va_list_[i] == winner) {
        va_list_[i] = va_list_.back();
        va_list_.pop_back();
        break;
      }
    }
    update_sa_ready(winner / params_.max_vcs, winner % params_.max_vcs);
    rr = winner + 1 == num_inputs ? 0 : winner + 1;
    ++activity_.vc_allocs;
    if (view.recorder != nullptr) {
      const std::uint64_t packet_id =
          (*view.packets)[view.fifo[fifo_slot(winner, 0)].packet].packet_id;
      if (view.recorder->sampled(packet_id)) {
        view.recorder->record(obs::EventKind::kPacketVcAlloc,
                              static_cast<double>(cycle), cycle, packet_id,
                              id_, wmeta.out_port, wmeta.out_vc);
      }
    }
    va_head_[slot] = -1;  // reset for the next cycle
  }
}

void Router::switch_allocate_and_traverse(Cycle cycle,
                                          const FabricView& view) {
  // Stage 1: per input port, round-robin across its ACTIVE VCs that have a
  // flit and a downstream credit — exactly the set bits of sa_ready_[p].
  // The winner is the first set bit at or after the round-robin pointer,
  // wrapping to the lowest set bit: the same VC the cyclic scan from the
  // pointer would stop at. Ports with no ready VC are never visited;
  // winners land in the small sa_winners_ scratch.
  if (sa_ready_ports_ == 0) return;
  sa_winners_.clear();
  std::uint32_t op_mask = 0;
  for (std::uint32_t ports = sa_ready_ports_; ports != 0;
       ports &= ports - 1) {
    const int p = std::countr_zero(ports);
    const std::uint32_t ready = sa_ready_[static_cast<std::size_t>(p)];
    const int rr = sa_in_rr_[static_cast<std::size_t>(p)];
    const std::uint32_t from_rr = ready >> rr;
    const int v = from_rr != 0 ? rr + std::countr_zero(from_rr)
                               : std::countr_zero(ready);
    const VcMeta& meta =
        vc_meta_[static_cast<std::size_t>(p * params_.max_vcs + v)];
    sa_winners_.push_back(SaWinner{static_cast<std::int8_t>(p),
                                   static_cast<std::int8_t>(v),
                                   meta.out_port});
    op_mask |= 1u << meta.out_port;
    ++activity_.sw_arbs;
  }

  // Stage 2: per output port with winners (ascending, via the bit mask),
  // round-robin across the requesting input ports; one flit per output per
  // cycle, then switch + link traversal. Each input port targets exactly
  // one output port, so the minimum-cyclic-distance winner over the
  // stage-1 winner list reproduces the old full bucketed scan.
  while (op_mask != 0) {
    const int op = std::countr_zero(op_mask);
    op_mask &= op_mask - 1;
    int& rr = sa_out_rr_[static_cast<std::size_t>(op)];
    int grant_port = -1;
    int grant_vc = -1;
    int best_distance = params_.num_ports + 1;
    for (const SaWinner& w : sa_winners_) {
      if (w.out_port != op) continue;
      int dist = w.in_port - rr;
      if (dist < 0) dist += params_.num_ports;
      if (dist < best_distance) {
        best_distance = dist;
        grant_port = w.in_port;
        grant_vc = w.in_vc;
      }
    }
    assert(grant_port >= 0);
    rr = grant_port + 1 == params_.num_ports ? 0 : grant_port + 1;
    // Advance the granted input port's VC round-robin so one persistently
    // busy VC cannot starve its siblings across back-to-back packets.
    sa_in_rr_[static_cast<std::size_t>(grant_port)] =
        grant_vc + 1 == params_.max_vcs ? 0 : grant_vc + 1;

    const auto grant_idx =
        static_cast<std::size_t>(grant_port * params_.max_vcs + grant_vc);
    InputVc& in = inputs_[grant_idx];
    VcMeta& gmeta = vc_meta_[grant_idx];
    const VcId out_vc = gmeta.out_vc;
    OutputVc& out = ovc(op, out_vc);
    // Update the flit in its FIFO slot and copy it once, straight into the
    // output channel slot.
    Flit& flit = view.fifo[fifo_slot(static_cast<int>(grant_idx), 0)];
    flit.vc = static_cast<std::uint8_t>(out_vc);
    // The VC class of the link actually taken; consumed by the next router's
    // routing function for dateline bookkeeping.
    flit.vc_class = static_cast<std::uint8_t>(out_vc / vcs_per_class_);
    ++flit.hops;
    // Link-fault hook: inter-router traversals may corrupt the flit (dead
    // link, or transient at link_fault_rate). The flit keeps flowing so
    // credits and quiescence counters stay exact; the destination NIC
    // discards the corrupted packet end to end.
    if (view.faults != nullptr && op != kLocalPort && !flit.corrupted &&
        view.faults->corrupt_on_link(
            id_, op, (*view.packets)[flit.packet].packet_id, flit.seq,
            cycle)) {
      flit.corrupted = true;
    }
    // Trace hook: one hop event per packet per link (head flits only),
    // ejections are traced at the NIC harvest instead of kLocalPort here.
    if (view.recorder != nullptr && op != kLocalPort && is_head(flit.type)) {
      const std::uint64_t packet_id = (*view.packets)[flit.packet].packet_id;
      if (view.recorder->sampled(packet_id)) {
        view.recorder->record(obs::EventKind::kPacketHop,
                              static_cast<double>(cycle), cycle, packet_id,
                              id_, op, static_cast<std::int32_t>(flit.hops));
      }
    }
    const bool tail = is_tail(flit.type);
    ++activity_.buffer_reads;
    ++activity_.xbar_traversals;

    --out.credits;
    assert(out.credits >= 0);
    const int out_ch = ports_[static_cast<std::size_t>(op)].out_flits;
    assert(out_ch >= 0 && "port with traffic must be wired");
    // Extra pipeline stages delay link entry; the channel keeps FIFO order
    // because every flit gets the same extra delay.
    view.send(out_ch, flit,
              cycle + static_cast<Cycle>(params_.pipeline_stages - 1));
    in.head = static_cast<std::uint8_t>((in.head + 1) & fifo_mask_);
    --gmeta.occ;
    --buffered_total_;
    ++activity_.link_flits;

    release_slot(grant_port, grant_vc, cycle, view);

    if (tail) {
      out.owner = -1;
      va_stalled_ = false;  // the freed output VC may serve a waiting head
      gmeta.state = VcState::kIdle;
      gmeta.out_port = -1;
      gmeta.out_vc = -1;
      in.candidates.clear();
      // Flits already queued behind the departed tail start the next
      // packet: its head becomes routable next cycle.
      if (gmeta.occ > 0) {
        route_ready_.push_back(static_cast<std::int16_t>(grant_idx));
      }
    }
    update_sa_ready(grant_port, grant_vc);
  }
}

void Router::release_slot(PortId port, VcId vc, Cycle cycle,
                          const FabricView& view) {
  InputVc& in = ivc(port, vc);
  if (in.advertised > params_.active_depth) {
    // Shrinking: withhold this credit; advertised capacity drops by one.
    --in.advertised;
    return;
  }
  const int ch = ports_[static_cast<std::size_t>(port)].out_credits;
  if (ch >= 0) view.send(ch, Credit{vc}, cycle);
}

void Router::set_active_vcs(int vcs, Cycle /*now*/) {
  assert(vcs >= 1 && vcs <= params_.max_vcs);
  params_.active_vcs = vcs;
  // Default assumption: a homogeneous network. Network overrides the
  // per-port downstream gating right after when configs are heterogeneous.
  std::fill(out_active_vcs_.begin(), out_active_vcs_.end(), vcs);
  refresh_admissible_cache();
}

void Router::set_active_depth(int depth, Cycle now, const FabricView& view) {
  assert(depth >= 1 && depth <= params_.max_depth);
  params_.active_depth = depth;
  for (int p = 0; p < params_.num_ports; ++p) {
    for (int v = 0; v < params_.max_vcs; ++v) {
      InputVc& in = ivc(p, v);
      // Growth: grant bonus credits immediately. Shrink happens lazily via
      // credit withholding in release_slot().
      while (in.advertised < depth) {
        ++in.advertised;
        const int ch = ports_[static_cast<std::size_t>(p)].out_credits;
        if (ch >= 0) view.send(ch, Credit{v}, now);
      }
    }
  }
}

int Router::max_vc_occupancy() const {
  int best = 0;
  for (const VcMeta& meta : vc_meta_) best = std::max(best, int{meta.occ});
  return best;
}

int Router::advertised_capacity(PortId port, VcId vc) const {
  return ivc(port, vc).advertised;
}

int Router::output_credits(PortId port, VcId vc) const {
  return outputs_[static_cast<std::size_t>(port * params_.max_vcs + vc)]
      .credits;
}

int Router::input_occupancy(PortId port, VcId vc) const {
  return vc_meta_[static_cast<std::size_t>(port * params_.max_vcs + vc)].occ;
}

std::string Router::audit_schedule_state() const {
  const std::string where = "router " + std::to_string(id_) + ": ";
  const int num_inputs = params_.num_ports * params_.max_vcs;
  for (int slot = 0; slot < num_inputs; ++slot) {
    const int owner = outputs_[static_cast<std::size_t>(slot)].owner;
    if (owner < 0) continue;
    const VcMeta& meta = vc_meta_[static_cast<std::size_t>(owner)];
    if (meta.state != VcState::kActive ||
        meta.out_port * params_.max_vcs + meta.out_vc != slot) {
      return where + "output VC slot " + std::to_string(slot) +
             " names owner " + std::to_string(owner) +
             ", which does not hold it";
    }
  }
  std::uint32_t ready_ports = 0;
  for (int p = 0; p < params_.num_ports; ++p) {
    std::uint32_t ready = 0;
    for (int v = 0; v < params_.max_vcs; ++v) {
      const int idx = p * params_.max_vcs + v;
      const VcMeta& meta = vc_meta_[static_cast<std::size_t>(idx)];
      if (meta.occ < 0 || meta.occ > params_.max_depth) {
        return where + "occupancy of input VC " + std::to_string(idx) +
               " is out of range";
      }
      if (meta.state != VcState::kActive) continue;
      const int slot = meta.out_port * params_.max_vcs + meta.out_vc;
      const OutputVc& out = outputs_[static_cast<std::size_t>(slot)];
      if (out.owner != idx) {
        return where + "active input VC " + std::to_string(idx) +
               " is not the owner of output VC slot " + std::to_string(slot);
      }
      if (meta.occ > 0 && out.credits > 0) ready |= 1u << v;
    }
    if (ready != sa_ready_[static_cast<std::size_t>(p)]) {
      return where + "SA-ready mask of port " + std::to_string(p) + " is " +
             std::to_string(sa_ready_[static_cast<std::size_t>(p)]) +
             ", expected " + std::to_string(ready);
    }
    if (ready != 0) ready_ports |= 1u << p;
  }
  if (ready_ports != sa_ready_ports_) {
    return where + "SA-ready port mask is " + std::to_string(sa_ready_ports_) +
           ", expected " + std::to_string(ready_ports);
  }
  if (va_stalled_) {
    // The stall flag is conservative: set, it claims no waiting head can
    // request any output VC. Checked against the uncached ranges.
    for (const std::int16_t idx : va_list_) {
      for (const RouteChoice& cand :
           inputs_[static_cast<std::size_t>(idx)].candidates) {
        const auto [begin, end] = admissible_range(cand.vc_class, cand.port);
        for (VcId ov = begin; ov < end; ++ov) {
          if (outputs_[static_cast<std::size_t>(cand.port * params_.max_vcs +
                                                ov)]
                  .owner < 0) {
            return where + "VA stalled, but input VC " + std::to_string(idx) +
                   " can request output VC " +
                   std::to_string(cand.port * params_.max_vcs + ov);
          }
        }
      }
    }
  }
  return "";
}

}  // namespace drlnoc::noc
