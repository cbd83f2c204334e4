// Quiescence edge cases for the event-driven network core: a router leaves
// the active set only when it is *provably* idle (no buffered flits, no
// in-flight channel traffic, idle NIC) and must re-arm on every event that
// can touch it — reconfiguration credits, tenant window boundaries, and
// trace-replay dependency releases into an already-drained region.
//
// The golden hashes were captured from the pre-event-driven build (every
// router stepped every cycle), so these tests pin that skipping quiescent
// work never moves a single bit.
#include <gtest/gtest.h>

#include <cstdint>

#include "golden_hash.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "scenario/runtime.h"
#include "scenario/scenario.h"
#include "trace/recorder.h"
#include "trace/trace_workload.h"
#include "util/rng.h"

namespace drlnoc {
namespace {

/// mix_stats plus every per-tenant slice.
void mix_tenant_stats(GoldenHash& h, const noc::EpochStats& s) {
  mix_stats(h, s);
  for (const noc::TenantEpochStats& t : s.tenants) {
    h.mix(t.packets_offered);
    h.mix(t.packets_received);
    h.mix(t.packets_measured);
    h.mix(t.flits_ejected);
    h.mix(t.avg_latency);
    h.mix(t.p95_latency);
    h.mix(t.max_latency);
  }
}

/// Uniform traffic gated to two bursts with a long fully-idle gap between
/// them: [0, 200) and [1500, 1700) core cycles. Outside the windows no RNG
/// is drawn, so the burst traffic is identical whatever happens in the gap.
class WindowedUniform : public noc::TrafficInjector {
 public:
  WindowedUniform(const noc::Topology& topo, double rate)
      : inner_(noc::SteadyWorkload::make(topo, "uniform", rate)) {}

  noc::NodeId generate(noc::NodeId src, double t, util::Rng& rng) override {
    const bool in_window = t < 200.0 || (t >= 1500.0 && t < 1700.0);
    if (!in_window) return noc::kInvalidNode;
    return inner_.generate(src, t, rng);
  }
  std::string name() const override { return "windowed_uniform"; }

 private:
  noc::SteadyWorkload inner_;
};

// A mid-epoch reconfiguration lands while the whole fabric is quiescent:
// the depth growth floods bonus credits into every channel and the next
// burst must find every router re-armed with the new configuration. The
// hash covers both bursts, the drain, and the final microarchitectural
// state (advertised capacities prove the reconfig reached idle routers).
TEST(Quiescence, RearmAfterMidEpochReconfigWhileIdle) {
  noc::NetworkParams p;
  p.width = p.height = 8;
  p.seed = 17;
  p.initial_config = noc::NocConfig{4, 4, 3};
  noc::Network net(p);
  WindowedUniform w(net.topology(), 0.10);
  trace::TraceRecorder rec(net.num_nodes(), &w);

  GoldenHash h;
  // Burst [0,200) plus full drain: the fabric is silent long before cycle
  // 700 (dvfs level 3 runs routers at the core clock).
  mix_tenant_stats(h, net.run_epoch(&rec, 700));
  EXPECT_TRUE(net.drained());
  // The drained fabric must have fully quiesced: every node left the
  // active worklist.
  EXPECT_EQ(net.active_nodes(), 0);
  // Reconfigure the idle fabric: fewer VCs, *deeper* buffers (bonus credits
  // flow upstream through every channel), slower clock.
  net.apply_config(noc::NocConfig{2, 8, 2});
  // Reconfiguration re-arms everyone (gating and credits changed).
  EXPECT_EQ(net.active_nodes(), net.num_nodes());
  // Second burst [1500,1700) core time falls inside this epoch
  // (700 + 900 router cycles x divisor 4/3 = 1900 core cycles).
  mix_tenant_stats(h, net.run_epoch(&rec, 900));
  mix_tenant_stats(h, net.run_epoch(&rec, 600));  // drain tail
  EXPECT_TRUE(net.drained());
  mix_records(h, rec.records());
  mix_router_state(h, net);

  EXPECT_EQ(h.value(), 17408074369770322554ULL);
}

// Composite-workload tenant activation at a [start,stop) boundary: tenant 1
// wakes a fabric that fully drained after tenant 0's window closed. The
// per-tenant slices pin that the window edges (inclusive start, exclusive
// stop) did not move.
TEST(Quiescence, TenantActivationAtWindowBoundaryAfterDrain) {
  scenario::Scenario s;
  s.name = "window_boundary";
  s.net.width = s.net.height = 8;
  s.net.seed = 5;
  s.duration = 4000;
  s.cycle_limit = 100000;

  scenario::TenantSpec t0;
  t0.name = "early";
  t0.kind = scenario::WorkloadKind::kSteady;
  t0.pattern = "uniform";
  t0.rate = 0.06;
  for (int i = 0; i < 16; ++i) t0.nodes.push_back(i);
  t0.start = 0.0;
  t0.stop = 600.0;

  scenario::TenantSpec t1;
  t1.name = "late";
  t1.kind = scenario::WorkloadKind::kSteady;
  t1.pattern = "transpose";
  t1.rate = 0.05;
  for (int i = 48; i < 64; ++i) t1.nodes.push_back(i);
  t1.start = 2500.0;  // fabric fully drained long before this boundary
  t1.stop = 3200.0;

  s.tenants = {t0, t1};

  const noc::RunResult r = scenario::run_scenario(s);
  EXPECT_TRUE(r.completed);
  ASSERT_EQ(r.stats.tenants.size(), 2u);
  EXPECT_GT(r.stats.tenants[0].packets_received, 0u);
  EXPECT_GT(r.stats.tenants[1].packets_received, 0u);

  GoldenHash h;
  mix_tenant_stats(h, r.stats);
  h.mix(static_cast<std::uint64_t>(r.cycles));
  EXPECT_EQ(h.value(), 6449430330483873073ULL);
}

// Trace-replay dependency release into a quiescent region: each record
// depends on the previous one with a compute delay long enough for the
// whole fabric to drain in between, so every release after the first must
// re-arm sleeping routers at distant corners of the mesh.
TEST(Quiescence, DependencyReleaseIntoQuiescentRegion) {
  trace::Trace t;
  t.nodes = 64;
  t.default_length = 4;
  t.records = {
      {1, 0, 63, 0.0, 4, {}},
      {2, 63, 0, 3000.0, 4, {1}},    // fabric idle for ~3000 cycles first
      {3, 7, 56, 2500.0, 6, {2}},    // far corner pair, also after a gap
      {4, 56, 7, 10.0, 2, {3}},      // quick chained reply
  };

  noc::NetworkParams p;
  p.width = p.height = 8;
  p.seed = 9;
  noc::Network net(p);
  trace::TraceWorkload workload(std::move(t));

  const noc::RunResult r = trace::run_trace_replay(net, workload, 100000);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(workload.delivered(), 4u);

  GoldenHash h;
  mix_tenant_stats(h, r.stats);
  h.mix(static_cast<std::uint64_t>(r.cycles));
  mix_router_state(h, net);
  EXPECT_EQ(h.value(), 8664398725549031137ULL);
}

// A fully drained network must stay bit-frozen under further stepping: no
// statistics move and nothing is offered or delivered.
TEST(Quiescence, DrainedNetworkStepsAreNoOps) {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 3;
  noc::Network net(p);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.10);
  (void)net.run_epoch(&w, 500);
  (void)net.run_epoch(nullptr, 2000);  // drain
  ASSERT_TRUE(net.drained());
  EXPECT_EQ(net.active_nodes(), 0);
  (void)net.drain_epoch_stats();

  const noc::EpochStats idle = net.run_epoch(nullptr, 1000);
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(net.active_nodes(), 0);
  EXPECT_EQ(idle.avg_active_fraction, 0.0);
  EXPECT_EQ(idle.packets_offered, 0u);
  EXPECT_EQ(idle.packets_received, 0u);
  EXPECT_EQ(idle.flits_injected, 0u);
  EXPECT_EQ(idle.flits_ejected, 0u);
  EXPECT_EQ(idle.source_queue_total, 0u);
  EXPECT_EQ(idle.avg_buffer_occupancy, 0.0);
}

// --- fault events x quiescence ---------------------------------------------
// External mutation through the fault layer must re-arm exactly the nodes
// the event touches, and a re-armed idle node must re-quiesce on its own.

// A slowdown on a fully drained fabric wakes only the target node. The event
// cycle is chosen so the new divisor gates the first step (1001 % 4 != 0),
// which keeps the node observably armed; at the next divisor boundary the
// idle node steps once and leaves the worklist again.
TEST(Quiescence, SlowdownOnDrainedFabricArmsExactlyTarget) {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 11;
  noc::Network net(p);

  noc::FaultParams fp;
  noc::FaultEvent ev;
  ev.at_cycle = 1001;
  ev.kind = noc::FaultEvent::Kind::kSlowdown;
  ev.node = 10;
  ev.factor = 4;
  fp.events = {ev};
  net.set_fault_model(fp);

  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.10);
  (void)net.run_epoch(&w, 400);
  (void)net.run_epoch(nullptr, 400);  // drained long before cycle 1001
  ASSERT_TRUE(net.drained());
  ASSERT_EQ(net.active_nodes(), 0);

  while (net.cycle() <= 1001) net.step(nullptr);
  EXPECT_EQ(net.active_nodes(), 1);
  EXPECT_TRUE(net.node_armed(10));

  for (int i = 0; i < 8; ++i) net.step(nullptr);  // crosses a %4 boundary
  EXPECT_EQ(net.active_nodes(), 0);
  EXPECT_TRUE(net.drained());
}

// A permanent link failure changes minimal paths fabric-wide, so the event
// must wake *every* node for exactly one step — even on an idle fabric —
// and they must all re-quiesce immediately after re-running under the new
// tables.
TEST(Quiescence, LinkDownOnDrainedFabricRearmsEveryNode) {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 13;
  noc::Network net(p);

  noc::FaultParams fp;
  noc::FaultEvent ev;
  ev.at_cycle = 900;
  ev.kind = noc::FaultEvent::Kind::kLinkDown;
  ev.node = 5;
  ev.port = 1;  // east output of node 5
  fp.events = {ev};
  net.set_fault_model(fp);

  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.10);
  (void)net.run_epoch(&w, 300);
  (void)net.run_epoch(nullptr, 500);
  ASSERT_TRUE(net.drained());
  ASSERT_EQ(net.active_nodes(), 0);

  while (net.cycle() < 900) net.step(nullptr);  // idle run-up to the event
  const noc::EpochStats idle = net.drain_epoch_stats();
  EXPECT_EQ(idle.avg_active_fraction, 0.0);

  net.step(nullptr);  // cycle 900: link dies, routing recomputes
  const noc::EpochStats fire = net.drain_epoch_stats();
  EXPECT_EQ(fire.avg_active_fraction, 1.0);
  // Waking was exact, not sticky: every idle router stepped once under the
  // recomputed tables and immediately left the worklist again.
  EXPECT_EQ(net.active_nodes(), 0);
  EXPECT_TRUE(net.drained());
}

// A pending retransmission is in-system state: the fabric may be physically
// silent (zero armed nodes) yet must not report drained until the timer
// fires, and the firing must wake exactly the source NIC. With rate 1.0 the
// retry corrupts too, exhausting the budget of 1 and losing the packet.
TEST(Quiescence, PendingRetryBlocksDrainAndWakesExactlySource) {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 7;
  noc::Network net(p);

  noc::FaultParams fp;
  fp.link_fault_rate = 1.0;  // every link traversal corrupts
  fp.retry_timeout = 300;    // long enough for a full physical drain first
  fp.retry_backoff = 1.0;
  fp.retry_budget = 1;
  net.set_fault_model(fp);

  net.nic(0).offer_packet(/*dst=*/1, /*core_time=*/0.0, /*measured=*/true,
                          /*packet_id=*/1, /*length=*/4, /*tenant=*/0);
  int guard = 0;
  do {
    net.step(nullptr);
  } while (net.active_nodes() > 0 && ++guard < 1000);
  ASSERT_LT(guard, 1000);
  // Physically silent, but the retransmission timer holds the drain.
  EXPECT_EQ(net.active_nodes(), 0);
  EXPECT_FALSE(net.drained());

  guard = 0;
  while (net.active_nodes() == 0 && ++guard < 2000) net.step(nullptr);
  ASSERT_LT(guard, 2000);
  EXPECT_EQ(net.active_nodes(), 1);
  EXPECT_TRUE(net.node_armed(0));  // the retry woke exactly the source

  guard = 0;
  while (!net.drained() && ++guard < 2000) net.step(nullptr);
  EXPECT_TRUE(net.drained());
  const noc::EpochStats s = net.drain_epoch_stats();
  EXPECT_EQ(s.packets_received, 0u);  // both attempts arrived corrupted
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.packets_lost, 1u);
  EXPECT_EQ(s.flits_dropped, 8u);  // 4 flits on the first try + 4 retried
}

}  // namespace
}  // namespace drlnoc
