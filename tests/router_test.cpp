// Unit-level router tests on a 2x1 mesh driven through Network, exercising
// the credit protocol, VC allocation, ordering, and live reconfiguration;
// plus a saturated 8x8 stress run that audits the routers' incrementally
// maintained scheduling state (ready masks, VA stall flag) and the
// network's quiescence of disarmed nodes every cycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden_hash.h"
#include "noc/network.h"
#include "noc/workload.h"

namespace drlnoc::noc {
namespace {

NetworkParams two_node(int depth = 4, int vcs = 2, Cycle link_latency = 1) {
  NetworkParams p;
  p.topology = "mesh";
  p.width = 2;
  p.height = 1;
  p.max_vcs = 4;
  p.max_depth = 8;
  p.initial_config = {vcs, depth, 3};
  p.flits_per_packet = 4;
  p.link_latency = link_latency;
  p.seed = 1;
  return p;
}

void drain(Network& net, int limit = 20000) {
  int guard = 0;
  while (!net.drained() && guard < limit) {
    net.step(nullptr);
    ++guard;
  }
  ASSERT_TRUE(net.drained());
}

TEST(Router, CreditConservationOnIdleLink) {
  Network net(two_node());
  // Router 0's east port (1) talks to router 1's west port (2).
  // At rest: credits held == advertised capacity, buffers empty.
  for (int vc = 0; vc < 4; ++vc) {
    EXPECT_EQ(net.router(0).output_credits(1, vc), 4);
    EXPECT_EQ(net.router(1).advertised_capacity(2, vc), 4);
    EXPECT_EQ(net.router(1).input_occupancy(2, vc), 0);
  }
}

TEST(Router, CreditsReturnAfterTraffic) {
  Network net(two_node());
  for (int i = 0; i < 20; ++i) {
    net.nic(0).offer_packet(1, 0.0, true, 100 + static_cast<std::uint64_t>(i));
  }
  drain(net);
  for (int vc = 0; vc < 4; ++vc) {
    EXPECT_EQ(net.router(0).output_credits(1, vc), 4) << "vc " << vc;
    EXPECT_EQ(net.router(1).input_occupancy(2, vc), 0);
  }
  EXPECT_EQ(net.total_packets_received(), 20u);
}

TEST(Router, BufferNeverExceedsConfiguredDepth) {
  // Depth 2 with a blocked receiver: at most 2 flits may sit in the input VC.
  Network net(two_node(/*depth=*/2));
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "neighbor", 0.8);
  for (int i = 0; i < 500; ++i) {
    net.step(&w);
    for (int vc = 0; vc < 4; ++vc) {
      EXPECT_LE(net.router(1).input_occupancy(2, vc), 2);
      EXPECT_LE(net.router(0).input_occupancy(1, vc), 2);
    }
  }
}

TEST(Router, DepthOneStillDelivers) {
  Network net(two_node(/*depth=*/1, /*vcs=*/1));
  net.nic(0).offer_packet(1, 0.0, true, 1);
  drain(net);
  EXPECT_EQ(net.total_packets_received(), 1u);
}

TEST(Router, ShallowBuffersThrottleThroughputOnLongLinks) {
  // With link latency 4 the credit round trip is ~9 cycles; depth 1 caps a
  // single stream at ~1/9 flit/cycle while depth 8 covers the RTT.
  auto cycles_to_deliver = [](int depth) {
    NetworkParams p = two_node(depth, /*vcs=*/1, /*link_latency=*/4);
    Network net(p);
    for (int i = 0; i < 25; ++i) {
      net.nic(0).offer_packet(1, 0.0, true, static_cast<std::uint64_t>(i) + 1);
    }
    int guard = 0;
    while (!net.drained() && guard < 50000) {
      net.step(nullptr);
      ++guard;
    }
    EXPECT_EQ(net.total_packets_received(), 25u);
    return guard;
  };
  const int slow = cycles_to_deliver(1);
  const int fast = cycles_to_deliver(8);
  EXPECT_GT(slow, 3 * fast);
}

TEST(Router, PerVcPairOrderingPreserved) {
  // Deterministic routing: packets between one (src, dst) pair must eject in
  // injection order (heads cannot overtake across the same path when the
  // NIC reassembles per VC and records completion order).
  Network net(two_node());
  for (int i = 0; i < 50; ++i) {
    net.nic(0).offer_packet(1, static_cast<double>(i), true,
                            static_cast<std::uint64_t>(i) + 1);
  }
  drain(net);
  const auto records = net.drain_records();
  ASSERT_EQ(records.size(), 50u);
  // Completion times must be non-decreasing in inject order per packet id
  // stream... packets may ride different VCs; require: among packets on the
  // same VC path the eject order matches inject order. Weaker global check:
  // eject_time ordering respects inject_time ordering within each VC is not
  // observable here, so assert no packet finishes before an *earlier* packet
  // that shares its VC by checking tail flit ordering via packet ids per VC
  // is monotone. The NIC asserts in-order flit sequences internally; here we
  // check every packet arrived intact.
  for (const auto& r : records) {
    EXPECT_EQ(r.length, 4);
    EXPECT_EQ(r.src, 0);
    EXPECT_EQ(r.dst, 1);
  }
}

TEST(Router, VcGatingRestrictsNewAllocations) {
  // With 1 active VC, only VC 0 ever holds flits on the inter-router link.
  Network net(two_node(/*depth=*/4, /*vcs=*/1));
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "neighbor", 0.5);
  for (int i = 0; i < 400; ++i) {
    net.step(&w);
    for (int vc = 1; vc < 4; ++vc) {
      EXPECT_EQ(net.router(1).input_occupancy(2, vc), 0) << "cycle " << i;
    }
  }
}

TEST(Router, DepthGrowthIsEagerAndExact) {
  Network net(two_node(/*depth=*/2));
  EXPECT_EQ(net.router(0).output_credits(1, 0), 2);
  net.apply_config(NocConfig{2, 7, 3});
  // Credits travel one link-latency cycle; step once without traffic.
  net.step(nullptr);
  net.step(nullptr);
  EXPECT_EQ(net.router(0).output_credits(1, 0), 7);
  EXPECT_EQ(net.router(1).advertised_capacity(2, 0), 7);
}

TEST(Router, DepthShrinkWithholdsCreditsLazily) {
  Network net(two_node(/*depth=*/8));
  net.apply_config(NocConfig{2, 2, 3});
  // No traffic has flowed: advertised stays 8 until dequeues happen.
  EXPECT_EQ(net.router(1).advertised_capacity(2, 0), 8);
  // Push traffic through VC 0; withholding shrinks the advertisement.
  for (int i = 0; i < 30; ++i) {
    net.nic(0).offer_packet(1, 0.0, true, static_cast<std::uint64_t>(i) + 1);
  }
  drain(net);
  for (int vc = 0; vc < 2; ++vc) {
    if (net.router(1).advertised_capacity(2, vc) == 8) continue;  // unused VC
    EXPECT_EQ(net.router(1).advertised_capacity(2, vc), 2);
    EXPECT_EQ(net.router(0).output_credits(1, vc), 2);
  }
  // At least one VC must have carried traffic and shrunk.
  EXPECT_LT(net.router(1).advertised_capacity(2, 0), 8);
}

TEST(Router, ActivityCountersTrackTraffic) {
  Network net(two_node());
  for (int i = 0; i < 10; ++i) {
    net.nic(0).offer_packet(1, 0.0, true, static_cast<std::uint64_t>(i) + 1);
  }
  drain(net);
  const RouterActivity& a0 = net.router(0).activity();
  // Router 0 forwarded 40 flits: 40 writes (from NIC), 40 reads, 40 xbar.
  EXPECT_EQ(a0.buffer_writes, 40u);
  EXPECT_EQ(a0.buffer_reads, 40u);
  EXPECT_EQ(a0.xbar_traversals, 40u);
  EXPECT_EQ(a0.vc_allocs, 10u);  // one per packet
  net.router(0).reset_activity();
  EXPECT_EQ(net.router(0).activity().buffer_writes, 0u);
}

TEST(Router, AdaptiveRoutingAvoidsCongestedPort) {
  // On a 3x3 mesh with west-first routing, a packet from (0,0) to (2,2) has
  // east and north candidates; jam the east link and check the router still
  // delivers everything (it can escape via north).
  NetworkParams p;
  p.topology = "mesh";
  p.width = 3;
  p.height = 3;
  p.routing = "westfirst";
  p.seed = 5;
  Network net(p);
  // Heavy east-row cross traffic + diagonal measured packets.
  for (int i = 0; i < 30; ++i) {
    net.nic(0).offer_packet(8, 0.0, true, 1000 + static_cast<std::uint64_t>(i));
    net.nic(1).offer_packet(2, 0.0, false, 2000 + static_cast<std::uint64_t>(i));
  }
  int guard = 0;
  while (!net.drained() && guard < 20000) {
    net.step(nullptr);
    ++guard;
  }
  ASSERT_TRUE(net.drained());
  EXPECT_EQ(net.total_packets_received(), 60u);
}

// --- scheduling-state consistency -------------------------------------------

/// Every router's audit of its ready masks and VA stall flag, through the
/// const accessor (the mutable one would re-arm nodes and perturb the
/// event-driven schedule). Returns the first mismatch, or "".
std::string audit_all(const Network& net) {
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    std::string error = net.router(n).audit_schedule_state();
    if (!error.empty()) return error;
  }
  return "";
}

/// A saturated 8x8 mesh under everything that moves the scheduling state:
/// apply_config every 64 cycles (VC gating, depth shrink and grow, DVFS),
/// periodic heterogeneous apply_per_router, transient link faults with a
/// one-retry budget (so some packets are lost), two link deaths and router
/// slowdowns that start and end. `each_cycle` runs after every step; the
/// return value hashes every delivered record.
std::uint64_t stress_run(
    const std::function<void(const Network&)>& each_cycle) {
  NetworkParams p;
  p.width = p.height = 8;
  p.max_vcs = 4;
  p.max_depth = 8;
  p.seed = 77;
  Network net(p);
  FaultParams fp;
  fp.seed = 9;
  fp.link_fault_rate = 0.002;
  fp.retry_timeout = 32;
  fp.retry_budget = 1;
  auto event = [](Cycle at, FaultEvent::Kind kind, NodeId node, PortId port,
                  int factor) {
    FaultEvent e;
    e.at_cycle = at;
    e.kind = kind;
    e.node = node;
    e.port = port;
    e.factor = factor;
    return e;
  };
  using Kind = FaultEvent::Kind;
  fp.events = {event(200, Kind::kSlowdown, 10, 1, 3),
               event(300, Kind::kLinkDown, 27, 1, 2),
               event(900, Kind::kSlowdown, 50, 1, 2),
               event(1500, Kind::kLinkDown, 36, 3, 2),
               event(2000, Kind::kSlowdown, 10, 1, 1)};
  net.set_fault_model(fp);
  // Far past the ~0.06 uniform saturation point of an 8x8 mesh.
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.2);

  const NocConfig configs[] = {{4, 8, 3}, {1, 2, 0}, {2, 8, 1}, {4, 1, 2},
                               {3, 5, 0}, {1, 8, 3}, {2, 3, 2}};
  int reconfigs = 0;
  for (int cycle = 1; cycle <= 3200; ++cycle) {
    net.step(&w);
    each_cycle(net);
    if (cycle % 64 != 0) continue;
    ++reconfigs;
    if (reconfigs % 5 == 0) {
      std::vector<NocConfig> per(static_cast<std::size_t>(net.num_nodes()));
      for (std::size_t i = 0; i < per.size(); ++i) {
        per[i] = {1 + static_cast<int>((i + reconfigs) % 4),
                  1 + static_cast<int>((3 * i + reconfigs) % 8), 1};
      }
      net.apply_per_router(per);
    } else {
      net.apply_config(configs[reconfigs % 7]);
    }
  }
  // Drain on full resources, still auditing every cycle.
  net.apply_config({4, 8, 3});
  for (int i = 0; i < 100000 && !net.drained(); ++i) {
    net.step(nullptr);
    each_cycle(net);
  }
  EXPECT_TRUE(net.drained());
  // The run must actually reach the fault paths it claims to cover.
  const EpochStats stats = net.drain_epoch_stats();
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.packets_lost, 0u);
  EXPECT_GT(stats.rerouted_hops, 0u);
  GoldenHash h;
  mix_records(h, net.drain_records());
  return h.value();
}

// Every cycle of the stress run checks two things: each router's
// scheduling state against brute force, and the network's skip decisions —
// every disarmed node must be provably quiescent, with no inbound flit or
// credit, an empty router and an idle NIC (Network::audit_quiescence).
TEST(RouterScheduleState, MatchesBruteForceEveryCycleUnderStress) {
  std::string first_error;
  Cycle error_cycle = 0;
  std::uint64_t disarmed_node_cycles = 0;
  const std::uint64_t hash = stress_run([&](const Network& net) {
    disarmed_node_cycles +=
        static_cast<std::uint64_t>(net.num_nodes() - net.active_nodes());
    if (!first_error.empty()) return;
    first_error = audit_all(net);
    if (first_error.empty()) first_error = net.audit_quiescence();
    error_cycle = net.cycle();
  });
  EXPECT_EQ(first_error, "") << "at cycle " << error_cycle;
  EXPECT_GT(disarmed_node_cycles, 0u);  // the audit saw skipped nodes
  // Pinned from the build before the ready masks existed: the masks change
  // how the stages find work, never what they decide.
  EXPECT_EQ(hash, 0x5049b742a17fa156ULL);
}

TEST(RouterScheduleState, ThirtyTwoVcsIsTheLimit) {
  NetworkParams p = two_node();
  p.max_vcs = 33;
  p.initial_config = {4, 4, 3};
  EXPECT_THROW(Network{p}, std::invalid_argument);

  // 32 VCs: the masks use every bit of their word.
  p.max_vcs = 32;
  p.initial_config = {32, 4, 3};
  Network net(p);
  for (std::uint64_t i = 0; i < 200; ++i) {
    net.nic(0).offer_packet(1, 0.0, true, 1 + i);
    net.nic(1).offer_packet(0, 0.0, true, 1000 + i);
  }
  for (int i = 0; i < 20000 && !net.drained(); ++i) {
    net.step(nullptr);
    ASSERT_EQ(audit_all(net), "") << "at cycle " << net.cycle();
  }
  ASSERT_TRUE(net.drained());
  EXPECT_EQ(net.total_packets_received(), 400u);
}

}  // namespace
}  // namespace drlnoc::noc
