// Power-reference calibration: the reward's power normaliser is a pure
// function of core::PowerRefKey. Pins the calibrated value bit for bit for
// a phased, a trace and a two-tenant scenario environment (values recorded
// when calibration still ran inside the NocConfigEnv constructor), and
// checks that every calibration input moves the key while inputs the
// calibration never reads leave it alone.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/env_noc.h"
#include "core/parallel.h"
#include "scenario/scenario.h"
#include "trace/generators.h"

namespace drlnoc::core {
namespace {

NocEnvParams phased_env() {
  NocEnvParams ep;
  ep.net.width = ep.net.height = 4;
  ep.net.seed = 3;
  return ep;  // standard phases
}

/// A one-tenant scenario looping a DNN trace at 2.5x its rate.
NocEnvParams trace_env() {
  auto scn = std::make_shared<scenario::Scenario>();
  scn->net.width = scn->net.height = 4;
  // A looping tenant needs a horizon to validate; RL episodes run a fixed
  // number of epochs whatever it is.
  scn->duration = 1e9;
  scenario::TenantSpec dnn;
  dnn.name = "dnn";
  dnn.kind = scenario::WorkloadKind::kTrace;
  dnn.trace = std::make_shared<const trace::Trace>(
      trace::generate_dnn_pipeline({16, 4, 4, 3, 64.0, 32.0, 8}));
  dnn.rate_scale = 2.5;
  dnn.loop = true;
  scn->tenants.push_back(dnn);
  NocEnvParams ep;
  ep.scenario = scn;
  ep.net.seed = 5;
  return ep;
}

NocEnvParams two_tenant_env() {
  auto scn = std::make_shared<scenario::Scenario>();
  scn->name = "pin_two_tenant";
  scn->net.width = scn->net.height = 4;
  scn->net.seed = 11;
  scn->duration = 20000.0;
  scenario::TenantSpec critical;
  critical.name = "critical";
  critical.kind = scenario::WorkloadKind::kSteady;
  critical.rate = 0.02;
  critical.qos = scenario::QosClass::kLatencyCritical;
  critical.p95_target = 300.0;
  scn->tenants.push_back(critical);
  scenario::TenantSpec background;
  background.name = "background";
  background.kind = scenario::WorkloadKind::kSteady;
  background.rate = 0.04;
  background.qos = scenario::QosClass::kBackground;
  scn->tenants.push_back(background);
  NocEnvParams ep;
  ep.scenario = scn;
  ep.net.seed = 7;  // the env's traffic seed, not the scenario's
  return ep;
}

struct Pinned {
  const char* name;
  NocEnvParams params;
  double power_ref_mw;
};

TEST(PowerRef, CalibrationIsPinnedBitForBit) {
  const std::vector<Pinned> pins = {
      {"phased", phased_env(), 0x1.1cb1d60631727p+9},
      {"trace", trace_env(), 0x1.d429468017119p+8},
      {"two_tenant", two_tenant_env(), 0x1.872b7ed41b75bp+8},
  };
  for (const Pinned& pin : pins) {
    EXPECT_EQ(calibrate_power_ref(power_ref_key(pin.params)),
              pin.power_ref_mw)
        << pin.name;
    EXPECT_EQ(NocConfigEnv(pin.params).power_ref_mw(), pin.power_ref_mw)
        << pin.name;
    EXPECT_EQ(with_calibrated_power_ref(pin.params).reward.power_ref_mw,
              pin.power_ref_mw)
        << pin.name;
  }
}

TEST(PowerRef, PresetReferenceSkipsCalibration) {
  NocEnvParams ep = phased_env();
  ep.reward.power_ref_mw = 123.5;
  EXPECT_EQ(NocConfigEnv(ep).power_ref_mw(), 123.5);
  EXPECT_EQ(with_calibrated_power_ref(ep).reward.power_ref_mw, 123.5);
}

TEST(PowerRef, KeyHoldsTheResolvedCalibrationInputs) {
  const PowerRefKey phased = power_ref_key(phased_env());
  EXPECT_EQ(phased.net.width, 4);
  EXPECT_EQ(phased.net.seed, 3u);
  const ActionSpace actions = ActionSpace::standard();
  EXPECT_EQ(phased.net.initial_config, actions.decode(actions.max_action()));
  EXPECT_GT(phased.peak_rate, 0.0);

  // The trace rate is scaled, not clamped, at this load.
  const NocEnvParams trace = trace_env();
  const scenario::TenantSpec& t = trace.scenario->tenants[0];
  EXPECT_EQ(power_ref_key(trace).peak_rate,
            t.trace->summary().offered_rate * t.rate_scale);

  // A scenario supplies the fabric; the env keeps the traffic seed.
  const PowerRefKey scn = power_ref_key(two_tenant_env());
  EXPECT_EQ(scn.net.seed, 7u);
  EXPECT_EQ(scn.peak_rate, 0.04);
}

TEST(PowerRef, KeyCoversEveryCalibrationInput) {
  const NocEnvParams base = phased_env();
  const PowerRefKey key = power_ref_key(base);
  EXPECT_EQ(power_ref_key(base), key);

  using Mutation = void (*)(NocEnvParams&);
  const std::vector<std::pair<const char*, Mutation>> changes = {
      {"net.topology", [](NocEnvParams& p) { p.net.topology = "torus"; }},
      {"net.width", [](NocEnvParams& p) { p.net.width = 5; }},
      {"net.height", [](NocEnvParams& p) { p.net.height = 5; }},
      {"net.routing", [](NocEnvParams& p) { p.net.routing = "xy"; }},
      {"net.max_vcs", [](NocEnvParams& p) { p.net.max_vcs = 8; }},
      {"net.max_depth", [](NocEnvParams& p) { p.net.max_depth = 16; }},
      {"net.flits_per_packet",
       [](NocEnvParams& p) { p.net.flits_per_packet = 8; }},
      {"net.link_latency", [](NocEnvParams& p) { p.net.link_latency = 2; }},
      {"net.pipeline_stages",
       [](NocEnvParams& p) { p.net.pipeline_stages = 2; }},
      {"net.seed", [](NocEnvParams& p) { p.net.seed = 4; }},
      {"power.core_freq_ghz",
       [](NocEnvParams& p) { p.power.core_freq_ghz = 1.5; }},
      {"power.v_nom", [](NocEnvParams& p) { p.power.v_nom = 0.9; }},
      {"power.e_buffer_write",
       [](NocEnvParams& p) { p.power.e_buffer_write += 0.1; }},
      {"power.e_buffer_read",
       [](NocEnvParams& p) { p.power.e_buffer_read += 0.1; }},
      {"power.e_vc_alloc", [](NocEnvParams& p) { p.power.e_vc_alloc += 0.1; }},
      {"power.e_sw_arb", [](NocEnvParams& p) { p.power.e_sw_arb += 0.1; }},
      {"power.e_xbar", [](NocEnvParams& p) { p.power.e_xbar += 0.1; }},
      {"power.e_link", [](NocEnvParams& p) { p.power.e_link += 0.1; }},
      {"power.p_static_router_base",
       [](NocEnvParams& p) { p.power.p_static_router_base += 0.1; }},
      {"power.p_static_per_vc_slot",
       [](NocEnvParams& p) { p.power.p_static_per_vc_slot += 0.01; }},
      {"power.p_static_link",
       [](NocEnvParams& p) { p.power.p_static_link += 0.1; }},
      {"actions max config",
       [](NocEnvParams& p) {
         p.actions = ActionSpace({1, 2}, {2, 4}, {0, 3});
       }},
      {"peak rate (phases)",
       [](NocEnvParams& p) {
         noc::Phase only;
         only.rate = 0.07;
         p.scenario = std::make_shared<scenario::Scenario>(
             scenario::phased_scenario(p.net, {only}));
       }},
  };
  for (const auto& [what, mutate] : changes) {
    NocEnvParams p = base;
    mutate(p);
    EXPECT_FALSE(power_ref_key(p) == key) << what << " left the key unchanged";
  }

  // Inputs the calibration never reads leave the key alone: the fabric's
  // start-up configuration (calibration runs the max config), the episode
  // shape and the reward weights.
  std::vector<NocEnvParams> same(4, base);
  same[0].net.initial_config = {1, 2, 0};
  same[1].epoch_cycles = 128;
  same[2].epochs_per_episode = 3;
  same[3].reward.w_power = 2.0;
  for (const NocEnvParams& p : same) EXPECT_EQ(power_ref_key(p), key);
}

TEST(PowerRef, KeyValidatesLikeTheEnvironment) {
  NocEnvParams ep = phased_env();
  ep.net.max_vcs = 2;  // the standard space includes 4 VCs
  EXPECT_THROW(power_ref_key(ep), std::invalid_argument);
  NocEnvParams qos = two_tenant_env();
  qos.reward.tenant_qos.resize(1);  // the scenario has two tenants
  EXPECT_THROW(power_ref_key(qos), std::invalid_argument);
}

}  // namespace
}  // namespace drlnoc::core
