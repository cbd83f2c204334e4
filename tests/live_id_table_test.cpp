// util::LiveIdTable: the dense live-packet-id window the injectors use to
// route delivery notifications. Pins out-of-order erase, gaps in the id
// sequence, the "not ours" answer for foreign ids, and the memory bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>

#include "util/live_id_table.h"

namespace drlnoc::util {
namespace {

TEST(LiveIdTable, OutOfOrderEraseCompactsTheFront) {
  LiveIdTable<int> t;
  for (int id = 10; id < 20; ++id) EXPECT_TRUE(t.insert(id, 100 + id));
  EXPECT_EQ(t.size(), 10u);
  EXPECT_EQ(t.span(), 10u);

  int v = 0;
  ASSERT_TRUE(t.take(15, v));
  EXPECT_EQ(v, 115);
  ASSERT_TRUE(t.take(12, v));
  EXPECT_EQ(v, 112);
  EXPECT_EQ(t.span(), 10u);  // the front (10) is still live
  ASSERT_TRUE(t.take(10, v));
  EXPECT_EQ(t.span(), 9u);  // window now starts at 11
  ASSERT_TRUE(t.take(11, v));
  EXPECT_EQ(t.span(), 7u);  // 12 was already gone: starts at 13
  ASSERT_TRUE(t.take(19, v));
  EXPECT_EQ(t.span(), 7u);  // erasing the back leaves its slot
  EXPECT_EQ(t.size(), 5u);
  for (int id : {13, 14, 16, 17, 18}) {
    ASSERT_TRUE(t.take(id, v));
    EXPECT_EQ(v, 100 + id);
  }
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.span(), 0u);
}

TEST(LiveIdTable, GapsInTheIdSequenceAreEmptySlots) {
  LiveIdTable<int> t;
  EXPECT_TRUE(t.insert(5, 1));
  EXPECT_TRUE(t.insert(9, 2));
  EXPECT_TRUE(t.insert(20, 3));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.span(), 16u);
  int v = 0;
  for (int gap : {6, 7, 8, 10, 19}) EXPECT_FALSE(t.take(gap, v));
  EXPECT_EQ(t.size(), 3u);
  ASSERT_TRUE(t.take(5, v));
  EXPECT_EQ(t.span(), 12u);  // 9..20: the gap behind 5 went with it
  ASSERT_TRUE(t.take(20, v));
  EXPECT_EQ(v, 3);
  ASSERT_TRUE(t.take(9, v));
  EXPECT_EQ(v, 2);
  EXPECT_EQ(t.span(), 0u);
  // An emptied table restarts its window at the next id.
  EXPECT_TRUE(t.insert(1000, 4));
  EXPECT_EQ(t.span(), 1u);
}

TEST(LiveIdTable, ForeignIdsAreNotOurs) {
  LiveIdTable<int> t;
  int v = -7;
  EXPECT_FALSE(t.take(1, v));  // empty table
  for (int id = 100; id < 105; ++id) t.insert(id, id);
  EXPECT_FALSE(t.take(3, v));     // below the window
  EXPECT_FALSE(t.take(99, v));    // just below
  EXPECT_FALSE(t.take(105, v));   // above: never inserted
  EXPECT_FALSE(t.take(1u << 30, v));
  EXPECT_EQ(v, -7);  // failed takes leave the output alone
  ASSERT_TRUE(t.take(102, v));
  EXPECT_FALSE(t.take(102, v));  // a second delivery of an erased id
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.span(), 5u);
}

TEST(LiveIdTable, DuplicateAndBelowWindowInserts) {
  LiveIdTable<int> t;
  EXPECT_TRUE(t.insert(10, 1));
  EXPECT_FALSE(t.insert(10, 2));  // already live: the first value stays
  EXPECT_TRUE(t.insert(7, 3));    // below the window: the window grows down
  EXPECT_EQ(t.span(), 4u);
  int v = 0;
  EXPECT_FALSE(t.take(8, v));
  ASSERT_TRUE(t.take(10, v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(t.take(7, v));
  EXPECT_EQ(v, 3);
  EXPECT_EQ(t.size(), 0u);
}

TEST(LiveIdTable, ClearForgetsEverything) {
  LiveIdTable<int> t;
  for (int id = 1; id <= 8; ++id) t.insert(id, id);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  int v = 0;
  EXPECT_FALSE(t.take(3, v));
  EXPECT_TRUE(t.insert(3, 30));  // ids may be reused after a clear
  ASSERT_TRUE(t.take(3, v));
  EXPECT_EQ(v, 30);
}

TEST(LiveIdTable, RejectsTheEmptyMarker) {
  // The largest value marks an empty slot, so it cannot be stored; every
  // other value can, negative ones included.
  LiveIdTable<int> t;
  EXPECT_THROW(t.insert(1, LiveIdTable<int>::kEmpty), std::invalid_argument);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.span(), 0u);
  ASSERT_TRUE(t.insert(2, -1));
  ASSERT_TRUE(t.insert(3, LiveIdTable<int>::kEmpty - 1));
  int v = 0;
  ASSERT_TRUE(t.take(2, v));
  EXPECT_EQ(v, -1);
  ASSERT_TRUE(t.take(3, v));
  EXPECT_EQ(v, LiveIdTable<int>::kEmpty - 1);

  LiveIdTable<std::uint32_t> u;
  EXPECT_THROW(u.insert(7, 0xffffffffu), std::invalid_argument);
  EXPECT_TRUE(u.insert(7, 0xfffffffeu));
}

TEST(LiveIdTable, MemoryIsBoundedByTheLiveSpan) {
  // A million ids stream through while at most 64 are live at a time; a
  // third of the ids belong to another injector, and each retirement takes
  // one of the four oldest live ids, so erases come out of order. The ring
  // follows the live span, not the number of ids that passed.
  LiveIdTable<std::uint64_t> t;
  constexpr std::size_t kWindow = 64;
  std::deque<std::uint64_t> live;
  std::size_t max_span = 0;
  for (std::uint64_t id = 1; id <= 1000000; ++id) {
    if (id % 3 == 0) continue;  // another injector's packet
    ASSERT_TRUE(t.insert(id, id));
    live.push_back(id);
    if (live.size() > kWindow) {
      const auto victim = live.begin() + static_cast<std::ptrdiff_t>(id % 4);
      std::uint64_t v = 0;
      ASSERT_TRUE(t.take(*victim, v));
      ASSERT_EQ(v, *victim);
      live.erase(victim);
    }
    ASSERT_EQ(t.size(), live.size());
    ASSERT_EQ(t.span(), live.empty() ? 0 : live.back() - live.front() + 1);
    max_span = std::max(max_span, t.span());
  }
  EXPECT_LE(max_span, 4 * kWindow);
  EXPECT_EQ(t.capacity(), std::bit_ceil(max_span));
}

}  // namespace
}  // namespace drlnoc::util
