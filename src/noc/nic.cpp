#include "noc/nic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace drlnoc::noc {

Nic::Nic(NodeId id, NicParams params, NicChannels channels)
    : id_(id), params_(params), channels_(channels),
      credits_(static_cast<std::size_t>(params.max_vcs), params.max_depth),
      tx_(static_cast<std::size_t>(params.max_vcs)),
      rx_(static_cast<std::size_t>(params.max_vcs)) {}

void Nic::init_credits(int per_vc) {
  assert(per_vc >= 0 && per_vc <= params_.max_depth);
  std::fill(credits_.begin(), credits_.end(), per_vc);
}

void Nic::offer_packet(NodeId dst, double core_time, bool measured,
                       std::uint64_t packet_id, int length, int tenant) {
  if (length <= 0) length = params_.flits_per_packet;
  // A NaN time fails every compare, so it is refused too.
  const bool whole_tick = core_time >= 0.0 &&
                          core_time <= static_cast<double>(kMaxInjectTick) &&
                          core_time == std::floor(core_time);
  if (packet_id > kMaxPacketId || !whole_tick || dst < 0 || dst > 0xffff ||
      length > 0xffff || tenant < 0 || tenant > 0xffff) {
    throw std::out_of_range(
        "Nic::offer_packet: packet id " + std::to_string(packet_id) +
        ", time " + std::to_string(core_time) + ", dst " +
        std::to_string(dst) + ", length " + std::to_string(length) +
        " or tenant " + std::to_string(tenant) +
        " outside a queued packet's range");
  }
  source_queue_.push_back(PendingPacket{
      packet_id << 17 | static_cast<std::uint64_t>(tenant) << 1 |
          static_cast<std::uint64_t>(measured),
      static_cast<std::uint32_t>(core_time), static_cast<std::uint16_t>(dst),
      static_cast<std::uint16_t>(length)});
}

int Nic::pick_injection_vc() const {
  // Injected packets always start in VC class 0.
  const int per_class_phys = params_.max_vcs / params_.vc_classes;
  const int per_class_active =
      std::max(1, params_.active_vcs / params_.vc_classes);
  const int end = std::min(per_class_active, per_class_phys);
  int best = -1;
  int best_credits = 0;  // require at least one credit
  for (int v = 0; v < end; ++v) {
    if (tx_[static_cast<std::size_t>(v)].active) continue;
    if (credits_[static_cast<std::size_t>(v)] > best_credits) {
      best_credits = credits_[static_cast<std::size_t>(v)];
      best = v;
    }
  }
  return best;
}

void Nic::step(Cycle cycle, double core_time, const FabricView& view) {
  // 1. Ejection: drain every deliverable flit, return credits immediately.
  FlitChannel& eject = view.flits[channels_.eject_flits];
  while (eject.ready(cycle)) {
    const Flit flit = eject.receive(cycle);
    assert(flit.dst == id_ && "flit ejected at wrong node");
    RxState& rx = rx_[static_cast<std::size_t>(flit.vc)];
    if (is_head(flit.type)) {
      assert(!rx.active && "head flit interleaved into busy ejection VC");
      rx.active = true;
      rx.corrupted = false;
      rx.expected_seq = 0;
    }
    assert(rx.active);
    rx.corrupted = rx.corrupted || flit.corrupted;
    assert(flit.seq == rx.expected_seq && "flit reordering within a VC");
    ++rx.expected_seq;
    ++ejected_flits_;
    view.send(channels_.eject_credits, Credit{flit.vc}, cycle);
    if (is_tail(flit.type)) {
      rx.active = false;
      const PacketInfo& info = (*view.packets)[flit.packet];
      PacketRecord rec;
      rec.packet_id = info.packet_id;
      rec.src = flit.src;
      rec.dst = flit.dst;
      rec.length = info.packet_len;
      rec.inject_time = info.inject_time;
      rec.eject_time = core_time;
      rec.hops = flit.hops;
      rec.measured = info.measured;
      rec.tenant = info.tenant;
      rec.corrupted = rx.corrupted;
      records_.push_back(rec);
      view.packets->release(flit.packet);
      ++received_packets_;
    }
  }

  // 2. Credits from the router's local input unit.
  CreditChannel& credits = view.credits[channels_.inject_credits];
  while (credits.ready(cycle)) {
    const Credit c = credits.receive(cycle);
    ++credits_[static_cast<std::size_t>(c.vc)];
    assert(credits_[static_cast<std::size_t>(c.vc)] <= params_.max_depth);
  }

  // 3. Injection: the local link carries one flit per router cycle.
  //    Round-robin across in-progress transmissions first; start a new
  //    packet only when no transmission can make progress.
  int send_vc = -1;
  for (int k = 0; k < params_.max_vcs; ++k) {
    int v = rr_vc_ + k;
    if (v >= params_.max_vcs) v -= params_.max_vcs;
    if (tx_[static_cast<std::size_t>(v)].active &&
        credits_[static_cast<std::size_t>(v)] > 0) {
      send_vc = v;
      break;
    }
  }
  if (send_vc < 0 && !source_queue_.empty()) {
    const int v = pick_injection_vc();
    if (v >= 0) {
      const PendingPacket& p = source_queue_.front();
      TxState& tx = tx_[static_cast<std::size_t>(v)];
      tx.active = true;
      tx.dst = p.dst;
      tx.next_seq = 0;
      tx.length = p.length;
      tx.packet = view.packets->allocate(PacketInfo{
          p.packet_id(), static_cast<double>(p.inject_tick), p.length,
          p.tenant(), p.measured()});
      source_queue_.pop_front();
      ++started_packets_;
      send_vc = v;
    }
  }
  if (send_vc < 0) return;

  TxState& tx = tx_[static_cast<std::size_t>(send_vc)];
  Flit flit;
  flit.packet = tx.packet;
  flit.src = static_cast<std::uint16_t>(id_);
  flit.dst = tx.dst;
  flit.seq = tx.next_seq;
  flit.vc_class = 0;
  flit.vc = static_cast<std::uint8_t>(send_vc);
  const bool head = tx.next_seq == 0;
  const bool tail = tx.next_seq + 1 == tx.length;
  flit.type = head && tail ? FlitType::kHeadTail
              : head       ? FlitType::kHead
              : tail       ? FlitType::kTail
                           : FlitType::kBody;
  view.send(channels_.inject_flits, flit, cycle);
  --credits_[static_cast<std::size_t>(send_vc)];
  ++injected_flits_;
  ++tx.next_seq;
  if (tail) tx.active = false;
  rr_vc_ = send_vc + 1 == params_.max_vcs ? 0 : send_vc + 1;
  (void)core_time;
}

bool Nic::idle() const {
  if (!source_queue_.empty()) return false;
  for (const auto& tx : tx_)
    if (tx.active) return false;
  for (const auto& rx : rx_)
    if (rx.active) return false;
  return true;
}

}  // namespace drlnoc::noc
