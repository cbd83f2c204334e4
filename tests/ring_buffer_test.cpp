// util::RingBuffer (the allocation-free deque replacement) and the
// ring-backed Channel: wraparound, growth, capacity edges, slot reuse.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noc/channel.h"
#include "util/ring_buffer.h"

namespace drlnoc {
namespace {

TEST(RingBuffer, StartsEmpty) {
  util::RingBuffer<int> rb;
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 0u);
}

TEST(RingBuffer, CapacityHintRoundsToPowerOfTwo) {
  util::RingBuffer<int> rb(5);
  EXPECT_EQ(rb.capacity(), 8u);
  util::RingBuffer<int> exact(8);
  EXPECT_EQ(exact.capacity(), 8u);
}

TEST(RingBuffer, FifoOrder) {
  util::RingBuffer<int> rb(4);
  for (int i = 0; i < 4; ++i) rb.push_back(i);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapsAroundWithoutGrowing) {
  util::RingBuffer<int> rb(4);
  const std::size_t cap = rb.capacity();
  // Interleave pushes and pops so the head crosses the physical end many
  // times; occupancy never exceeds capacity, so no growth may happen.
  int next_push = 0, next_pop = 0;
  for (int round = 0; round < 100; ++round) {
    while (rb.size() < cap) rb.push_back(next_push++);
    while (rb.size() > 1) {
      EXPECT_EQ(rb.front(), next_pop++);
      rb.pop_front();
    }
  }
  EXPECT_EQ(rb.capacity(), cap);
}

TEST(RingBuffer, GrowsPreservingOrderAcrossWrap) {
  util::RingBuffer<int> rb(4);
  // Misalign head first so growth has to re-linearise a wrapped ring.
  for (int i = 0; i < 3; ++i) rb.push_back(-1);
  for (int i = 0; i < 3; ++i) rb.pop_front();
  for (int i = 0; i < 10; ++i) rb.push_back(i);  // forces growth mid-way
  EXPECT_GE(rb.capacity(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rb[static_cast<std::size_t>(i)], i);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
}

TEST(RingBuffer, PushExactlyToCapacityThenGrow) {
  util::RingBuffer<int> rb(2);
  rb.push_back(1);
  rb.push_back(2);
  EXPECT_EQ(rb.size(), rb.capacity());
  rb.push_back(3);  // the push that finds the ring full
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.front(), 1);
  EXPECT_EQ(rb.back(), 3);
}

TEST(RingBuffer, IndexingAndBack) {
  util::RingBuffer<std::string> rb(4);
  rb.push_back("a");
  rb.push_back("b");
  rb.push_back("c");
  EXPECT_EQ(rb[0], "a");
  EXPECT_EQ(rb[2], "c");
  EXPECT_EQ(rb.back(), "c");
  rb.pop_front();
  EXPECT_EQ(rb[0], "b");
}

TEST(RingBuffer, ClearKeepsCapacity) {
  util::RingBuffer<int> rb(16);
  for (int i = 0; i < 10; ++i) rb.push_back(i);
  const std::size_t cap = rb.capacity();
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.capacity(), cap);
  rb.push_back(42);
  EXPECT_EQ(rb.front(), 42);
}

TEST(RingBuffer, SlotReusePreservesElementCapacity) {
  // Popped slots keep their element alive; a later push copy-assigns into
  // it, so heap-owning elements reuse their allocation.
  util::RingBuffer<std::vector<int>> rb(2);
  rb.push_back(std::vector<int>(100, 7));
  rb.pop_front();
  std::vector<int> small(100, 9);
  rb.push_back(small);  // copy-assign into the retained slot
  EXPECT_EQ(rb.front().size(), 100u);
  EXPECT_EQ(rb.front()[0], 9);
}

TEST(RingBuffer, PushBackSlotOverwrite) {
  util::RingBuffer<int> rb(2);
  rb.push_back_slot() = 5;
  EXPECT_EQ(rb.size(), 1u);
  EXPECT_EQ(rb.front(), 5);
}

// --- Channel on top of the ring ---------------------------------------------

TEST(ChannelRing, ManyInFlightBeyondInitialCapacity) {
  // A depth-reconfiguration credit burst can exceed latency+1 entries; the
  // ring must grow transparently and stay FIFO.
  noc::CreditChannel ch(1);
  for (int i = 0; i < 40; ++i) ch.send(noc::Credit{i % 4}, 0);
  int received = 0;
  while (ch.ready(1)) {
    EXPECT_EQ(ch.receive(1).vc, received % 4);
    ++received;
  }
  EXPECT_EQ(received, 40);
  EXPECT_TRUE(ch.empty());
}

TEST(ChannelRing, SteadyStateReusesCapacity) {
  noc::FlitChannel ch(2);
  noc::PacketTable packets;
  noc::Flit f;
  // Long steady-state streaming: one send + receives per cycle.
  for (noc::Cycle t = 0; t < 1000; ++t) {
    f.packet = packets.allocate(noc::PacketInfo{.packet_id = t});
    ch.send(f, t);
    while (ch.ready(t)) {
      const noc::PacketTable::Handle h = ch.receive(t).packet;
      EXPECT_EQ(packets[h].packet_id, t - 2);
      packets.release(h);
    }
  }
  EXPECT_LE(ch.in_flight(), 3u);
}

TEST(ChannelRing, ReceiveReadsThePoppedSlot) {
  // receive() pops and returns the popped slot itself: readable, without a
  // copy, until the next send.
  noc::FlitChannel ch(1);
  noc::PacketTable packets;
  noc::Flit f;
  f.packet = packets.allocate(noc::PacketInfo{.packet_id = 99});
  f.vc = 3;
  ch.send(f, 0);
  ASSERT_TRUE(ch.ready(1));
  const noc::Flit& out = ch.receive(1);
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(out.vc, 3);
  EXPECT_EQ(packets[out.packet].packet_id, 99u);
}

}  // namespace
}  // namespace drlnoc
