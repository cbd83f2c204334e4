#include <gtest/gtest.h>

#include "noc/simulator.h"
#include "noc/workload.h"

namespace drlnoc::noc {
namespace {

NetworkParams mesh4(std::uint64_t seed = 1) {
  NetworkParams p;
  p.width = p.height = 4;
  p.seed = seed;
  return p;
}

TEST(SteadyState, LowLoadIsUnsaturatedAndDrains) {
  const SteadyResult r = measure_point(mesh4(), "uniform", 0.03);
  EXPECT_FALSE(r.saturated);
  EXPECT_TRUE(r.drained);
  EXPECT_NEAR(r.stats.offered_rate, 0.03, 0.008);
  EXPECT_NEAR(r.stats.accepted_rate, r.stats.offered_rate, 0.01);
  EXPECT_GT(r.stats.avg_latency, 5.0);
  EXPECT_LT(r.stats.avg_latency, 40.0);
}

TEST(SteadyState, OverloadIsDetectedAsSaturated) {
  SteadyRunParams run;
  run.drain_limit = 30000;
  const SteadyResult r = measure_point(mesh4(), "uniform", 0.30, run);
  EXPECT_TRUE(r.saturated);
  // Accepted throughput plateaus well below offered.
  EXPECT_LT(r.stats.accepted_rate, 0.22);
}

TEST(SteadyState, AcceptedNeverExceedsOfferedSignificantly) {
  for (double rate : {0.02, 0.06, 0.10, 0.20}) {
    const SteadyResult r = measure_point(mesh4(7), "uniform", rate);
    EXPECT_LE(r.stats.accepted_rate, r.stats.offered_rate + 0.01) << rate;
  }
}

TEST(SteadyState, LatencyMonotoneInLoad) {
  double prev = 0.0;
  for (double rate : {0.02, 0.06, 0.10, 0.14}) {
    const SteadyResult r = measure_point(mesh4(9), "uniform", rate);
    EXPECT_GT(r.stats.avg_latency, prev) << rate;
    prev = r.stats.avg_latency;
  }
}

TEST(SteadyState, P95AtLeastMean) {
  const SteadyResult r = measure_point(mesh4(11), "uniform", 0.10);
  EXPECT_GE(r.stats.p95_latency, r.stats.avg_latency * 0.9);
  EXPECT_GE(r.stats.max_latency, r.stats.p95_latency);
}

TEST(SteadyState, DeterministicForSeed) {
  auto run = [] {
    const SteadyResult r = measure_point(mesh4(21), "transpose", 0.08);
    return std::tuple{r.stats.avg_latency, r.stats.packets_received,
                      r.stats.dynamic_energy_pj};
  };
  EXPECT_EQ(run(), run());
}

TEST(SteadyState, DifferentSeedsGiveDifferentTraces) {
  const SteadyResult a = measure_point(mesh4(1), "uniform", 0.08);
  const SteadyResult b = measure_point(mesh4(2), "uniform", 0.08);
  EXPECT_NE(a.stats.packets_received, b.stats.packets_received);
}

TEST(SteadyState, WarmupPacketsExcludedFromLatencyStats) {
  // With a warmup much longer than measurement, measured-packet count is
  // bounded by what the measurement window can generate.
  NetworkParams p = mesh4(5);
  Network net(p);
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.05);
  SteadyRunParams run;
  run.warmup_cycles = 6000;
  run.measure_cycles = 1000;
  const SteadyResult r = run_steady_state(net, w, run);
  // ~16 nodes * 1000 cycles * 0.05 = ~800 generated in-window.
  EXPECT_LE(r.stats.packets_offered, 1100u);
  EXPECT_GE(r.stats.packets_offered, 500u);
}

TEST(SteadyState, HopCountsMatchPattern) {
  // Neighbor traffic: 3 of 4 sources per row are 1 hop away, the row-wrap
  // source is 3 mesh hops -> mean 1.5 inter-router hops = 2.5 traversals.
  const SteadyResult r = measure_point(mesh4(13), "neighbor", 0.05);
  EXPECT_NEAR(r.stats.avg_hops, 2.5, 0.02);
  // Uniform on 4x4: mean Manhattan distance over distinct pairs is 8/3
  // -> 8/3 + 1 ~= 3.67 traversals.
  const SteadyResult u = measure_point(mesh4(13), "uniform", 0.05);
  EXPECT_NEAR(u.stats.avg_hops, 8.0 / 3.0 + 1.0, 0.12);
}

TEST(SteadyState, EnergyBalancesAcrossDvfs) {
  // Same work at lower DVFS: dynamic energy drops (V^2), static grows
  // (longer wall time), total power strictly lower.
  auto at_level = [](int level) {
    NetworkParams p = mesh4(15);
    p.initial_config.dvfs_level = level;
    return measure_point(p, "uniform", 0.02).stats;
  };
  const EpochStats hi = at_level(3);
  const EpochStats lo = at_level(1);
  EXPECT_LT(lo.dynamic_energy_pj / lo.flits_ejected,
            hi.dynamic_energy_pj / hi.flits_ejected);
  EXPECT_LT(lo.avg_power_mw(2.0), hi.avg_power_mw(2.0));
}

TEST(RunUntil, StopsAtTheCycleLimit) {
  Network net(mesh4(3));
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.05);
  const RunResult r = run_until(net, &w, [] { return false; }, 500);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.cycles, 500u);
  EXPECT_EQ(r.stats.router_cycles, 500u);
  EXPECT_GT(r.stats.packets_offered, 0u);
}

TEST(RunUntil, NullInjectorDrains) {
  Network net(mesh4(4));
  SteadyWorkload w = SteadyWorkload::make(net.topology(), "uniform", 0.08);
  for (int i = 0; i < 300; ++i) net.step(&w);
  ASSERT_FALSE(net.drained());
  const RunResult r = run_until(net, nullptr, [] { return true; }, 100000);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(net.drained());
  EXPECT_GT(r.cycles, 0u);
  EXPECT_LT(r.cycles, 100000u);
  EXPECT_EQ(net.total_packets_received(), net.total_packets_offered());
  // A drained fabric whose work is done takes no further step.
  EXPECT_EQ(run_until(net, nullptr, [] { return true; }, 100).cycles, 0u);
}

TEST(RunUntil, DoneIsRecheckedEveryCycle) {
  // The fabric is idle throughout, so only `done` keeps the loop going: it
  // must stop on the exact cycle `done` turns true.
  Network net(mesh4(5));
  const RunResult r = run_until(
      net, nullptr, [&net] { return net.cycle() >= 250; }, 100000);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.cycles, 250u);
  EXPECT_EQ(net.cycle(), 250u);
}

}  // namespace
}  // namespace drlnoc::noc
