#include <gtest/gtest.h>

#include "noc/network.h"
#include "noc/topology.h"
#include "noc/workload.h"
#include "trace/recorder.h"

namespace drlnoc::noc {
namespace {

TEST(SteadyWorkload, ValidatesInputs) {
  Mesh2D mesh(4, 4);
  EXPECT_THROW(SteadyWorkload::make(mesh, "uniform", 1.5),
               std::invalid_argument);
  EXPECT_THROW(SteadyWorkload::make(mesh, "uniform", -0.1),
               std::invalid_argument);
  EXPECT_NO_THROW(SteadyWorkload::make(mesh, "uniform", 0.0));
}

TEST(SteadyWorkload, GeneratesAtConfiguredRate) {
  Mesh2D mesh(4, 4);
  SteadyWorkload w = SteadyWorkload::make(mesh, "uniform", 0.2);
  util::Rng rng(1);
  int fired = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    if (w.generate(0, 0.0, rng) != kInvalidNode) ++fired;
  }
  EXPECT_NEAR(fired / static_cast<double>(trials), 0.2, 0.01);
  w.set_rate(0.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(w.generate(0, 0.0, rng), kInvalidNode);
}

TEST(SteadyWorkload, NameReflectsPattern) {
  Mesh2D mesh(4, 4);
  SteadyWorkload w = SteadyWorkload::make(mesh, "tornado", 0.1);
  EXPECT_NE(w.name().find("tornado"), std::string::npos);
}

TEST(PhasedWorkload, ValidatesPhases) {
  Mesh2D mesh(4, 4);
  EXPECT_THROW(PhasedWorkload(mesh, {}), std::invalid_argument);
  EXPECT_THROW(PhasedWorkload(mesh, {{"uniform", 0.1, 0.0, "bernoulli"}}),
               std::invalid_argument);
  EXPECT_THROW(PhasedWorkload(mesh, {{"warp", 0.1, 10.0, "bernoulli"}}),
               std::invalid_argument);
}

TEST(PhasedWorkload, OffsetShiftsPhaseLookup) {
  Mesh2D mesh(4, 4);
  PhasedWorkload w(mesh, {{"uniform", 0.05, 100.0, "bernoulli"},
                          {"hotspot", 0.1, 100.0, "bernoulli"}});
  EXPECT_EQ(w.phase_index(0.0), 0u);
  w.set_start_offset(100.0);
  EXPECT_EQ(w.phase_index(0.0), 1u);
  EXPECT_EQ(w.phase_index(100.0), 0u);  // wraps
  w.set_start_offset(150.0);
  EXPECT_EQ(w.phase_index(0.0), 1u);
  EXPECT_EQ(w.phase_index(49.9), 1u);
  EXPECT_EQ(w.phase_index(50.0), 0u);
}

TEST(PhasedWorkload, RateFollowsActivePhase) {
  Mesh2D mesh(4, 4);
  PhasedWorkload w(mesh, {{"uniform", 0.0, 1000.0, "bernoulli"},
                          {"uniform", 0.5, 1000.0, "bernoulli"}});
  util::Rng rng(3);
  int fired_phase0 = 0, fired_phase1 = 0;
  for (int i = 0; i < 2000; ++i) {
    if (w.generate(0, 500.0, rng) != kInvalidNode) ++fired_phase0;
    if (w.generate(0, 1500.0, rng) != kInvalidNode) ++fired_phase1;
  }
  EXPECT_EQ(fired_phase0, 0);
  EXPECT_NEAR(fired_phase1 / 2000.0, 0.5, 0.05);
}

TEST(PhasedWorkload, StandardPhasesSaneOnMeshAndRing) {
  Mesh2D mesh(4, 4);
  const auto mesh_phases = PhasedWorkload::standard_phases(mesh);
  ASSERT_EQ(mesh_phases.size(), 4u);
  EXPECT_EQ(mesh_phases[3].pattern, "transpose");  // square mesh
  for (const Phase& ph : mesh_phases) {
    EXPECT_GT(ph.duration_core_cycles, 0.0);
    EXPECT_GE(ph.rate, 0.0);
    EXPECT_LE(ph.rate, 0.2);
  }
  Ring ring(8);
  const auto ring_phases = PhasedWorkload::standard_phases(ring);
  EXPECT_EQ(ring_phases[3].pattern, "uniform");  // no transpose on a ring
  EXPECT_NO_THROW(PhasedWorkload(ring, ring_phases));
}

TEST(PhasedWorkload, MultiLoopWraparound) {
  Mesh2D mesh(4, 4);
  PhasedWorkload w(mesh, {{"uniform", 0.0, 100.0, "bernoulli"},
                          {"uniform", 0.5, 60.0, "bernoulli"}});
  ASSERT_DOUBLE_EQ(w.total_duration(), 160.0);
  // Several full loops, probing both phases each time around.
  for (int loop = 0; loop < 5; ++loop) {
    const double base = 160.0 * loop;
    EXPECT_EQ(w.phase_index(base), 0u) << "loop " << loop;
    EXPECT_EQ(w.phase_index(base + 99.9), 0u) << "loop " << loop;
    EXPECT_EQ(w.phase_index(base + 100.0), 1u) << "loop " << loop;
    EXPECT_EQ(w.phase_index(base + 159.9), 1u) << "loop " << loop;
  }
  // generate() must follow the wrapped phase, not the raw time: the silent
  // phase stays silent on every loop.
  util::Rng rng(5);
  int fired_silent = 0, fired_active = 0;
  for (int loop = 1; loop <= 20; ++loop) {
    const double base = 160.0 * loop;
    for (int i = 0; i < 50; ++i) {
      if (w.generate(0, base + 10.0, rng) != kInvalidNode) ++fired_silent;
      if (w.generate(0, base + 120.0, rng) != kInvalidNode) ++fired_active;
    }
  }
  EXPECT_EQ(fired_silent, 0);
  EXPECT_NEAR(fired_active / 1000.0, 0.5, 0.05);
  // Offset + wraparound compose: offset past several loops lands mid-cycle.
  w.set_start_offset(160.0 * 3 + 100.0);
  EXPECT_EQ(w.phase_index(0.0), 1u);
  EXPECT_EQ(w.phase_index(60.0), 0u);
}

TEST(PhasedWorkload, PerPhaseFlitsPerPacketOverride) {
  Mesh2D mesh(4, 4);
  Phase control{"uniform", 0.1, 100.0, "bernoulli"};
  control.flits_per_packet = 1;  // short control packets
  Phase data{"uniform", 0.1, 100.0, "bernoulli"};
  data.flits_per_packet = 9;  // long data packets
  Phase defaulted{"uniform", 0.1, 100.0, "bernoulli"};
  ASSERT_EQ(defaulted.flits_per_packet, 0);  // network default

  PhasedWorkload w(mesh, {control, data, defaulted});
  EXPECT_EQ(w.packet_length(0.0), 1);
  EXPECT_EQ(w.packet_length(150.0), 9);
  EXPECT_EQ(w.packet_length(250.0), 0);
  // Wraparound keeps the per-phase override.
  EXPECT_EQ(w.packet_length(300.0), 1);
  EXPECT_EQ(w.packet_length(460.0), 9);

  // End to end: the per-packet injector hook must deliver the override to
  // the NIC — packets generated in the data phase carry 9 flits.
  NetworkParams p;
  p.width = p.height = 4;
  p.flits_per_packet = 4;
  Network net(p);
  PhasedWorkload driver(net.topology(), {control, data, defaulted});
  trace::TraceRecorder recorder(net.num_nodes(), &driver);
  for (int i = 0; i < 700; ++i) net.step(&recorder);
  recorder.set_source(nullptr);
  while (!net.drained()) net.step(&recorder);
  int seen[10] = {};
  for (const PacketRecord& rec : recorder.records()) {
    ASSERT_LT(rec.length, 10);
    ++seen[rec.length];
    const std::size_t phase = driver.phase_index(rec.inject_time);
    const int expected = phase == 0 ? 1 : (phase == 1 ? 9 : 4);
    EXPECT_EQ(rec.length, expected)
        << "packet injected at " << rec.inject_time << " in phase " << phase;
  }
  EXPECT_GT(seen[1], 0);  // control phase
  EXPECT_GT(seen[9], 0);  // data phase
  EXPECT_GT(seen[4], 0);  // defaulted phase -> network flits_per_packet
}

TEST(PhasedWorkload, ScaleMultipliesRates) {
  Mesh2D mesh(4, 4);
  const auto base = PhasedWorkload::standard_phases(mesh, 1.0);
  const auto scaled = PhasedWorkload::standard_phases(mesh, 0.5);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(scaled[i].rate, 0.5 * base[i].rate, 1e-12);
  }
}

}  // namespace
}  // namespace drlnoc::noc
