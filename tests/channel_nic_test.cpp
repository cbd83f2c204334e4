// Channel delay-line semantics, the packet table, and NIC packetization and
// reassembly behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <stdexcept>

#include "noc/channel.h"
#include "noc/nic.h"

namespace drlnoc::noc {
namespace {

// Per-hop state is four words; per-packet fields live once in the table.
static_assert(sizeof(Flit) == 16);
static_assert(sizeof(PacketInfo) == 24);

TEST(PacketTable, ReusesTheMostRecentlyReleasedSlot) {
  PacketTable t(2);
  const PacketTable::Handle a = t.allocate(PacketInfo{.packet_id = 1});
  const PacketTable::Handle b = t.allocate(PacketInfo{.packet_id = 2});
  const PacketTable::Handle c = t.allocate(PacketInfo{.packet_id = 3});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  t.release(a);
  t.release(c);
  EXPECT_FALSE(t.live(a));
  EXPECT_EQ(t.live_count(), 1u);
  // LIFO: the last slot released is the first reused.
  EXPECT_EQ(t.allocate(PacketInfo{.packet_id = 4}), c);
  EXPECT_EQ(t.allocate(PacketInfo{.packet_id = 5}), a);
  EXPECT_EQ(t.allocate(PacketInfo{.packet_id = 6}), 3u);
  EXPECT_EQ(t[c].packet_id, 4u);
  EXPECT_EQ(t[a].packet_id, 5u);
  EXPECT_EQ(t[b].packet_id, 2u);
  EXPECT_EQ(t.live_count(), 4u);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_FALSE(t.live(4));
}

TEST(Channel, DeliversAfterExactLatency) {
  FlitChannel ch(3);
  PacketTable packets;
  Flit f;
  f.packet = packets.allocate(PacketInfo{.packet_id = 7});
  ch.send(f, /*now=*/10);
  for (Cycle t = 10; t < 13; ++t) EXPECT_FALSE(ch.ready(t)) << t;
  ASSERT_TRUE(ch.ready(13));
  EXPECT_EQ(packets[ch.receive(13).packet].packet_id, 7u);
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, PreservesFifoOrder) {
  Channel<int> ch(2);
  for (int i = 0; i < 5; ++i) ch.send(i, static_cast<Cycle>(i));
  std::vector<int> got;
  for (Cycle t = 0; t < 10; ++t) {
    while (ch.ready(t)) got.push_back(ch.receive(t));
  }
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, InFlightCount) {
  CreditChannel ch(5);
  EXPECT_EQ(ch.in_flight(), 0u);
  ch.send(Credit{1}, 0);
  ch.send(Credit{2}, 1);
  EXPECT_EQ(ch.in_flight(), 2u);
  (void)ch.receive(5);
  EXPECT_EQ(ch.in_flight(), 1u);
}

TEST(Channel, LateItemsStayReady) {
  Channel<int> ch(1);
  ch.send(42, 0);
  // Not picked up at cycle 1; still deliverable at cycle 10.
  EXPECT_TRUE(ch.ready(10));
  EXPECT_EQ(ch.receive(10), 42);
}

// NIC harness: a NIC at node 0 whose channels are index 0 (injection) and
// index 1 (ejection) of hand-held channel arrays, stepped manually through a
// FabricView over them and a packet table. The router-bound channels carry
// port 0's pending bit, the NIC-bound ones none. Flits sent toward the NIC
// by hand name packets registered in packets_.
class NicHarness : public ::testing::Test {
 protected:
  NicHarness()
      : flits_{FlitChannel(1, 0, 1u), FlitChannel(1, 0, 0u)},
        credits_{CreditChannel(1, 0, 0u), CreditChannel(1, 0, 1u)},
        nic_(0, NicParams{4, 8, 1, 4, 4}, NicChannels{0, 0, 1, 1}) {
    nic_.init_credits(8);
  }

  void step(Cycle cycle, double core_time) {
    const FabricView view{flits_.data(),   credits_.data(), nullptr,
                          &packets_,       &active_,        &flit_pending_,
                          &credit_pending_, nullptr,        nullptr,
                          nullptr};
    nic_.step(cycle, core_time, view);
  }

  std::vector<FlitChannel> flits_;
  std::vector<CreditChannel> credits_;
  std::uint8_t active_ = 0;
  std::uint32_t flit_pending_ = 0;
  std::uint32_t credit_pending_ = 0;
  PacketTable packets_;
  Nic nic_;
  FlitChannel& inj_f_ = flits_[0];
  CreditChannel& inj_c_ = credits_[0];
  FlitChannel& ej_f_ = flits_[1];
  CreditChannel& ej_c_ = credits_[1];
};

TEST_F(NicHarness, PacketizesWithCorrectFlitTypes) {
  nic_.offer_packet(5, 0.0, true, 1);
  std::vector<Flit> flits;
  for (Cycle t = 0; t < 10 && flits.size() < 4; ++t) {
    step(t, static_cast<double>(t));
    while (inj_f_.ready(t + 1)) flits.push_back(inj_f_.receive(t + 1));
  }
  ASSERT_EQ(flits.size(), 4u);
  EXPECT_EQ(flits[0].type, FlitType::kHead);
  EXPECT_EQ(flits[1].type, FlitType::kBody);
  EXPECT_EQ(flits[2].type, FlitType::kBody);
  EXPECT_EQ(flits[3].type, FlitType::kTail);
  // All flits of one packet ride the same VC with increasing seq.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(flits[i].vc, flits[0].vc);
    EXPECT_EQ(flits[i].seq, i);
  }
  EXPECT_EQ(packets_[flits[0].packet].packet_len, 4);
  EXPECT_EQ(nic_.injected_flits(), 4u);
}

TEST_F(NicHarness, SendsReArmTheReceiver) {
  // An injected flit arms node 0 and sets port 0's flit-pending bit; the
  // credit for an ejected flit sets port 0's credit-pending bit.
  nic_.offer_packet(3, 0.0, true, 1, /*length=*/1);
  step(0, 0.0);
  EXPECT_EQ(active_, 1);
  EXPECT_EQ(flit_pending_, 1u);
  EXPECT_EQ(credit_pending_, 0u);
  Flit f;
  f.packet = packets_.allocate(PacketInfo{.packet_id = 2});
  f.dst = 0;
  ej_f_.send(f, 0);
  active_ = 0;
  step(1, 1.0);
  EXPECT_EQ(active_, 1);
  EXPECT_EQ(credit_pending_, 1u);
  ASSERT_TRUE(ej_c_.ready(2));
  EXPECT_EQ(ej_c_.receive(2).vc, f.vc);
}

TEST_F(NicHarness, SingleFlitPacketIsHeadTail) {
  nic_.offer_packet(3, 0.0, true, 1, /*length=*/1);
  step(0, 0.0);
  ASSERT_TRUE(inj_f_.ready(1));
  EXPECT_EQ(inj_f_.receive(1).type, FlitType::kHeadTail);
}

TEST_F(NicHarness, StopsWhenOutOfCredits) {
  nic_.init_credits(2);
  nic_.offer_packet(5, 0.0, true, 1);  // 4 flits but only 2 credits on VC
  int sent = 0;
  for (Cycle t = 0; t < 8; ++t) {
    step(t, static_cast<double>(t));
    while (inj_f_.ready(t + 1)) {
      ++sent;
      (void)inj_f_.receive(t + 1);
    }
  }
  EXPECT_EQ(sent, 2);
  EXPECT_FALSE(nic_.idle());  // transmission stuck mid-packet
  // Return credits; transmission resumes.
  inj_c_.send(Credit{0}, 8);
  inj_c_.send(Credit{0}, 9);
  for (Cycle t = 9; t < 14; ++t) {
    step(t, static_cast<double>(t));
    while (inj_f_.ready(t + 1)) {
      ++sent;
      (void)inj_f_.receive(t + 1);
    }
  }
  EXPECT_EQ(sent, 4);
}

TEST_F(NicHarness, ReassemblesAndRecordsLatency) {
  // Deliver a 3-flit packet addressed to this NIC.
  const PacketTable::Handle packet = packets_.allocate(PacketInfo{
      .packet_id = 9, .inject_time = 2.0, .packet_len = 3, .measured = true});
  auto make = [&](std::uint16_t seq, FlitType type) {
    Flit f;
    f.packet = packet;
    f.src = 5;
    f.dst = 0;
    f.seq = seq;
    f.type = type;
    f.vc = 1;
    f.hops = 4;
    return f;
  };
  ej_f_.send(make(0, FlitType::kHead), 0);
  ej_f_.send(make(1, FlitType::kBody), 1);
  ej_f_.send(make(2, FlitType::kTail), 2);
  for (Cycle t = 0; t < 5; ++t) step(t, static_cast<double>(t) + 10.0);
  ASSERT_EQ(nic_.records().size(), 1u);
  const PacketRecord& r = nic_.records()[0];
  EXPECT_EQ(r.packet_id, 9u);
  EXPECT_EQ(r.length, 3);
  EXPECT_DOUBLE_EQ(r.inject_time, 2.0);
  EXPECT_GT(r.eject_time, r.inject_time);
  EXPECT_EQ(r.hops, 4u);
  // One credit returned per consumed flit.
  int credits = 0;
  for (Cycle t = 0; t < 10; ++t) {
    while (ej_c_.ready(t)) {
      EXPECT_EQ(ej_c_.receive(t).vc, 1);
      ++credits;
    }
  }
  EXPECT_EQ(credits, 3);
  EXPECT_EQ(nic_.ejected_flits(), 3u);
  EXPECT_EQ(nic_.received_packets(), 1u);
  EXPECT_EQ(packets_.live_count(), 0u);  // the tail released the slot
}

TEST_F(NicHarness, InterleavesPacketsAcrossVcs) {
  // Two queued packets: the NIC may pipeline them on different VCs; all
  // flits of each packet must still share one VC.
  nic_.offer_packet(5, 0.0, true, 1);
  nic_.offer_packet(6, 0.0, true, 2);
  std::map<std::uint64_t, VcId> vc_of;
  int got = 0;
  for (Cycle t = 0; t < 20 && got < 8; ++t) {
    step(t, static_cast<double>(t));
    while (inj_f_.ready(t + 1)) {
      const Flit f = inj_f_.receive(t + 1);
      const std::uint64_t id = packets_[f.packet].packet_id;
      auto [it, inserted] = vc_of.emplace(id, f.vc);
      if (!inserted) {
        EXPECT_EQ(it->second, f.vc) << "packet " << id;
      }
      ++got;
    }
  }
  EXPECT_EQ(got, 8);
  EXPECT_TRUE(nic_.idle());
}

TEST_F(NicHarness, RespectsActiveVcGating) {
  nic_.set_active_vcs(1);
  nic_.offer_packet(5, 0.0, true, 1);
  nic_.offer_packet(6, 0.0, true, 2);
  for (Cycle t = 0; t < 30; ++t) {
    step(t, static_cast<double>(t));
    while (inj_f_.ready(t + 1)) {
      EXPECT_EQ(inj_f_.receive(t + 1).vc, 0);
    }
  }
}

TEST_F(NicHarness, QueuedFieldsRoundTripAtTheirLimits) {
  // A queued packet packs its id, tenant and measured flag into one word
  // and keeps its inject time as a core tick. Each field's extremes must
  // reach the PacketRecord unchanged: the injection link is looped back
  // into the ejection link, so every packet is addressed to node 0.
  struct Case {
    std::uint64_t id;
    double time;
    int length;
    int tenant;
    bool measured;
  };
  const Case cases[] = {
      {Nic::kMaxPacketId, static_cast<double>(Nic::kMaxInjectTick), 1, 65535,
       true},
      {0, 0.0, 65535, 0, false},
      {Nic::kMaxPacketId - 1, 1.0, 2, 65534, false},
      {1, static_cast<double>(Nic::kMaxInjectTick) - 1.0, 3, 1, true},
  };
  for (const Case& c : cases) {
    nic_.offer_packet(0, c.time, c.measured, c.id, c.length, c.tenant);
  }
  for (Cycle t = 0; nic_.records().size() < std::size(cases) && t < 70000;
       ++t) {
    step(t, 0.0);
    while (inj_f_.ready(t + 1)) {
      const Flit f = inj_f_.receive(t + 1);
      ej_f_.send(f, t + 1);
      inj_c_.send(Credit{f.vc}, t + 1);
    }
    while (ej_c_.ready(t + 1)) (void)ej_c_.receive(t + 1);
  }
  ASSERT_EQ(nic_.records().size(), std::size(cases));
  for (const Case& c : cases) {
    const auto it =
        std::find_if(nic_.records().begin(), nic_.records().end(),
                     [&](const PacketRecord& r) { return r.packet_id == c.id; });
    ASSERT_NE(it, nic_.records().end()) << "packet " << c.id;
    EXPECT_EQ(it->inject_time, c.time) << "packet " << c.id;
    EXPECT_EQ(it->length, c.length) << "packet " << c.id;
    EXPECT_EQ(it->tenant, c.tenant) << "packet " << c.id;
    EXPECT_EQ(it->measured, c.measured) << "packet " << c.id;
    EXPECT_EQ(it->dst, 0);
  }
  EXPECT_TRUE(nic_.idle());
}

TEST_F(NicHarness, RefusesValuesAQueuedPacketCannotHold) {
  // One past each packed range throws in every build rather than wrapping.
  const double max_tick = static_cast<double>(Nic::kMaxInjectTick);
  EXPECT_THROW(nic_.offer_packet(0, 0.0, true, Nic::kMaxPacketId + 1),
               std::out_of_range);
  EXPECT_THROW(nic_.offer_packet(0, max_tick + 1.0, true, 1),
               std::out_of_range);
  EXPECT_THROW(nic_.offer_packet(0, -1.0, true, 1), std::out_of_range);
  EXPECT_THROW(nic_.offer_packet(0, 2.5, true, 1), std::out_of_range);
  EXPECT_THROW(nic_.offer_packet(0, std::nan(""), true, 1),
               std::out_of_range);
  EXPECT_THROW(nic_.offer_packet(0, 0.0, true, 1, 65536), std::out_of_range);
  EXPECT_THROW(nic_.offer_packet(0, 0.0, true, 1, 1, 65536),
               std::out_of_range);
  EXPECT_THROW(nic_.offer_packet(0, 0.0, true, 1, 1, -1), std::out_of_range);
  EXPECT_THROW(nic_.offer_packet(65536, 0.0, true, 1), std::out_of_range);
  EXPECT_EQ(nic_.source_queue_len(), 0u);  // nothing refused was queued
}

}  // namespace
}  // namespace drlnoc::noc
