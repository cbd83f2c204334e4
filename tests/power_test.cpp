#include <gtest/gtest.h>

#include "noc/power.h"

namespace drlnoc::noc {
namespace {

RouterActivity some_activity() {
  RouterActivity a;
  a.buffer_writes = 100;
  a.buffer_reads = 100;
  a.vc_allocs = 25;
  a.sw_arbs = 110;
  a.xbar_traversals = 100;
  a.link_flits = 100;
  return a;
}

TEST(PowerModel, DefaultLevelsAreOrdered) {
  const auto levels = default_dvfs_levels();
  ASSERT_EQ(levels.size(), 4u);
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_GT(levels[i].freq_ghz, levels[i - 1].freq_ghz);
    EXPECT_GT(levels[i].voltage, levels[i - 1].voltage);
  }
}

TEST(PowerModel, ClockDivisorInverseToFrequency) {
  PowerModel pm({}, default_dvfs_levels());
  EXPECT_DOUBLE_EQ(pm.clock_divisor(3), 1.0);   // 2.0 / 2.0
  EXPECT_DOUBLE_EQ(pm.clock_divisor(1), 2.0);   // 2.0 / 1.0
  EXPECT_DOUBLE_EQ(pm.clock_divisor(0), 4.0);   // 2.0 / 0.5
  for (int l = 0; l < pm.num_levels(); ++l) EXPECT_GE(pm.clock_divisor(l), 1.0);
}

TEST(PowerModel, RejectsOverclockedLevels) {
  PowerParams pp;
  pp.core_freq_ghz = 1.0;
  EXPECT_THROW(PowerModel(pp, {{2.0, 1.0, "too-fast"}}),
               std::invalid_argument);
  EXPECT_THROW(PowerModel(pp, {}), std::invalid_argument);
}

TEST(PowerModel, DynamicEnergyVoltageSquaredLaw) {
  PowerParams pp;
  pp.v_nom = 1.0;
  PowerModel pm(pp, {{1.0, 0.5, "a"}, {1.0, 1.0, "b"}});
  const RouterActivity a = some_activity();
  EXPECT_NEAR(pm.dynamic_energy(a, 0), 0.25 * pm.dynamic_energy(a, 1), 1e-9);
}

TEST(PowerModel, DynamicEnergyLinearInActivity) {
  PowerModel pm({}, default_dvfs_levels());
  RouterActivity a = some_activity();
  RouterActivity twice = a;
  twice += a;
  EXPECT_NEAR(pm.dynamic_energy(twice, 2), 2.0 * pm.dynamic_energy(a, 2),
              1e-9);
  EXPECT_DOUBLE_EQ(pm.dynamic_energy(RouterActivity{}, 2), 0.0);
}

// Property: static energy is monotone in every resource axis (invariant 5).
class StaticMonotone : public ::testing::TestWithParam<int> {};

// Static energy of `routers` uniform 5-port routers with `vcs` x `depth`
// active slots per port and `links` links.
double uniform_static_energy(const PowerModel& pm, int routers, int links,
                             int vcs, int depth, int level, double wall_ns) {
  return pm.static_energy_slots(routers, links, routers * 5.0 * vcs * depth,
                                level, wall_ns);
}

TEST_P(StaticMonotone, InResourcesAndTime) {
  PowerModel pm({}, default_dvfs_levels());
  const int level = GetParam();
  const auto energy = [&](int routers, int links, int vcs, int depth,
                          double wall_ns) {
    return uniform_static_energy(pm, routers, links, vcs, depth, level,
                                 wall_ns);
  };
  const double base = energy(16, 48, 2, 4, 1000.0);
  EXPECT_GT(energy(16, 48, 4, 4, 1000.0), base);
  EXPECT_GT(energy(16, 48, 2, 8, 1000.0), base);
  EXPECT_GT(energy(32, 48, 2, 4, 1000.0), base);
  EXPECT_GT(energy(16, 96, 2, 4, 1000.0), base);
  EXPECT_NEAR(energy(16, 48, 2, 4, 2000.0), 2.0 * base, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Levels, StaticMonotone, ::testing::Values(0, 1, 2, 3));

TEST(PowerModel, StaticEnergyMonotoneInVoltage) {
  PowerModel pm({}, default_dvfs_levels());
  double prev = 0.0;
  for (int level = 0; level < pm.num_levels(); ++level) {
    const double e = uniform_static_energy(pm, 16, 48, 4, 8, level, 1000.0);
    EXPECT_GT(e, prev);
    prev = e;
  }
}

TEST(RouterActivityStruct, AccumulatesAndResets) {
  RouterActivity a = some_activity();
  RouterActivity b;
  b += a;
  b += a;
  EXPECT_EQ(b.buffer_writes, 200u);
  EXPECT_EQ(b.link_flits, 200u);
  b.reset();
  EXPECT_EQ(b.buffer_writes, 0u);
  EXPECT_EQ(b.sw_arbs, 0u);
}

}  // namespace
}  // namespace drlnoc::noc
