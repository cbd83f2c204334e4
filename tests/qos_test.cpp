// QoS battery: tenant-aware reward shaping (validation, per-tenant terms
// summing exactly to the scalar reward, SLO penalties, background energy
// credits), per-tenant feature slices, `.drlsc` QoS/[controller] parsing
// (negative cases + round-trips), controller-schedule execution, per-tenant
// accounting invariants under the experiment engine, and the pinning tests
// that keep QoS-off behavior bit-identical to the pre-QoS code.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "core/env_noc.h"
#include "core/features.h"
#include "core/reward.h"
#include "core/trainer.h"
#include "golden_hash.h"
#include "rl/dqn.h"
#include "scenario/runtime.h"
#include "scenario/scenario_io.h"
#include "trace/generators.h"
#include "trace/recorder.h"
#include "util/thread_pool.h"

namespace drlnoc {
namespace {

using core::RewardFunction;
using core::RewardParams;
using core::TenantQosClass;
using core::TenantQosSpec;

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- fixtures ---------------------------------------------------------------

/// A plausible mid-load epoch with two tenant slices.
noc::EpochStats two_tenant_stats() {
  noc::EpochStats s;
  s.core_cycles = 512.0;
  s.packets_offered = 120;
  s.packets_received = 110;
  s.avg_latency = 55.0;
  s.p95_latency = 140.0;
  s.offered_rate = 0.08;
  s.accepted_rate = 0.075;
  s.source_queue_total = 4;
  s.dynamic_energy_pj = 40000.0;
  s.static_energy_pj = 30000.0;
  s.tenants.resize(2);
  s.tenants[0].packets_offered = 50;
  s.tenants[0].packets_received = 48;
  s.tenants[0].packets_measured = 48;
  s.tenants[0].flits_ejected = 192;
  s.tenants[0].avg_latency = 60.0;
  s.tenants[0].p95_latency = 150.0;
  s.tenants[1].packets_offered = 70;
  s.tenants[1].packets_received = 62;
  s.tenants[1].packets_measured = 62;
  s.tenants[1].flits_ejected = 248;
  s.tenants[1].avg_latency = 50.0;
  s.tenants[1].p95_latency = 120.0;
  return s;
}

RewardParams qos_params(double target = 200.0) {
  RewardParams rp;
  rp.power_ref_mw = 300.0;
  rp.tenant_qos.resize(2);
  rp.tenant_qos[0].cls = TenantQosClass::kLatencyCritical;
  rp.tenant_qos[0].p95_target = target;
  rp.tenant_qos[1].cls = TenantQosClass::kBackground;
  return rp;
}

trace::Trace dnn_trace() {
  return trace::generate_dnn_pipeline({16, 4, 4, 3, 64.0, 32.0, 8});
}

/// DNN trace + windowed background on a 4x4 mesh; optionally QoS-annotated.
scenario::Scenario mixed_scenario(bool with_qos, std::uint64_t seed = 42) {
  scenario::Scenario s;
  s.name = "qos_mix";
  s.net.width = s.net.height = 4;
  s.net.seed = seed;
  scenario::TenantSpec dnn;
  dnn.name = "dnn";
  dnn.kind = scenario::WorkloadKind::kTrace;
  dnn.trace = std::make_shared<const trace::Trace>(dnn_trace());
  if (with_qos) {
    dnn.qos = scenario::QosClass::kLatencyCritical;
    dnn.p95_target = 250.0;
  }
  s.tenants.push_back(std::move(dnn));
  scenario::TenantSpec bg;
  bg.name = "bg";
  bg.kind = scenario::WorkloadKind::kSteady;
  bg.rate = 0.05;
  bg.start = 100.0;
  bg.stop = 3000.0;
  if (with_qos) bg.qos = scenario::QosClass::kBackground;
  s.tenants.push_back(std::move(bg));
  return s;
}

// --- RewardParams validation -------------------------------------------------

TEST(RewardValidate, RejectsBadWeightsAndRefs) {
  const auto expect_invalid = [](RewardParams rp) {
    EXPECT_THROW(RewardFunction{rp}, std::invalid_argument);
  };
  RewardParams rp;
  EXPECT_NO_THROW(RewardFunction{rp});  // defaults are valid

  rp = {}; rp.w_latency = -0.5; expect_invalid(rp);
  rp = {}; rp.w_power = std::nan(""); expect_invalid(rp);
  rp = {}; rp.w_saturation = -1.0; expect_invalid(rp);
  rp = {}; rp.w_slo = kInf; expect_invalid(rp);
  rp = {}; rp.w_background_energy = -0.1; expect_invalid(rp);
  rp = {}; rp.latency_ref = 0.0; expect_invalid(rp);
  rp = {}; rp.latency_ref = -60.0; expect_invalid(rp);
  rp = {}; rp.power_ref_mw = -1.0; expect_invalid(rp);
  rp = {}; rp.power_ref_mw = kInf; expect_invalid(rp);
  EXPECT_THROW(RewardFunction(RewardParams{}, 0.0), std::invalid_argument);
}

TEST(RewardValidate, RejectsContradictoryQosTargets) {
  // latency_critical without a target.
  RewardParams rp;
  rp.tenant_qos.resize(1);
  rp.tenant_qos[0].cls = TenantQosClass::kLatencyCritical;
  EXPECT_THROW(RewardFunction{rp}, std::invalid_argument);
  // ... or with a nonfinite / negative one.
  rp.tenant_qos[0].p95_target = kInf;
  EXPECT_THROW(RewardFunction{rp}, std::invalid_argument);
  rp.tenant_qos[0].p95_target = -5.0;
  EXPECT_THROW(RewardFunction{rp}, std::invalid_argument);
  rp.tenant_qos[0].p95_target = 200.0;
  EXPECT_NO_THROW(RewardFunction{rp});
  // Targets on non-critical classes are rejected.
  rp.tenant_qos[0].cls = TenantQosClass::kBestEffort;
  EXPECT_THROW(RewardFunction{rp}, std::invalid_argument);
  rp.tenant_qos[0].cls = TenantQosClass::kBackground;
  EXPECT_THROW(RewardFunction{rp}, std::invalid_argument);
  // The error message names the offending knob.
  try {
    RewardFunction{rp};
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("p95_target"), std::string::npos);
  }
}

// --- QoS reward shaping ------------------------------------------------------

TEST(QosReward, PerTenantTermsSumExactlyToScalarReward) {
  const RewardFunction reward(qos_params());
  const noc::EpochStats stats = two_tenant_stats();
  const auto b = reward.breakdown(stats);
  ASSERT_EQ(b.tenants.size(), 2u);

  double slo_sum = 0.0, credit_sum = 0.0;
  for (const auto& t : b.tenants) {
    slo_sum += t.slo_term;
    credit_sum += t.energy_credit;
  }
  // Exact (bit-level) identity, not approximate: the acceptance criterion
  // for QoS-mode inspectability.
  EXPECT_EQ(b.reward, -(b.latency_term + b.power_term + b.saturation_term +
                        slo_sum - credit_sum));
  EXPECT_EQ(reward.compute(stats), b.reward);
}

TEST(QosReward, SloPenaltyTracksTargetViolation) {
  const RewardFunction reward(qos_params(/*target=*/200.0));
  noc::EpochStats ok = two_tenant_stats();
  ok.tenants[0].p95_latency = 150.0;  // inside the SLO
  const auto b_ok = reward.breakdown(ok);
  EXPECT_EQ(b_ok.tenants[0].slo_term, 0.0);

  noc::EpochStats bad = ok;
  bad.tenants[0].p95_latency = 400.0;  // 2x the target
  const auto b_bad = reward.breakdown(bad);
  EXPECT_GT(b_bad.tenants[0].slo_term, 0.0);
  EXPECT_LT(b_bad.reward, b_ok.reward);

  noc::EpochStats worse = ok;
  worse.tenants[0].p95_latency = 800.0;  // 4x: penalty grows monotonically
  const auto b_worse = reward.breakdown(worse);
  EXPECT_GT(b_worse.tenants[0].slo_term, b_bad.tenants[0].slo_term);
  EXPECT_LE(b_worse.tenants[0].slo_term, reward.params().w_slo);  // bounded
}

TEST(QosReward, StarvedCriticalTenantTakesFullPenalty) {
  const RewardFunction reward(qos_params());
  noc::EpochStats starved = two_tenant_stats();
  starved.tenants[0].packets_received = 0;
  starved.tenants[0].packets_measured = 0;
  starved.tenants[0].p95_latency = 0.0;  // no deliveries, no percentile
  const auto b = reward.breakdown(starved);
  EXPECT_EQ(b.tenants[0].slo_term, reward.params().w_slo);
}

TEST(QosReward, BackgroundEarnsCreditOnlyWhenPowerRunsBelowRef) {
  RewardParams rp = qos_params();
  const RewardFunction reward(rp);
  noc::EpochStats stats = two_tenant_stats();
  // 70000 pJ over 512 cycles @2GHz = ~273 mW < 300 mW ref: saving exists.
  const auto b = reward.breakdown(stats);
  EXPECT_GT(b.tenants[1].energy_credit, 0.0);
  EXPECT_EQ(b.tenants[0].energy_credit, 0.0);  // critical tenants earn none

  // At/above the reference the credit vanishes.
  noc::EpochStats hot = stats;
  hot.dynamic_energy_pj = 200000.0;
  const auto b_hot = reward.breakdown(hot);
  EXPECT_EQ(b_hot.tenants[1].energy_credit, 0.0);

  // Credit scales with the background share of delivered flits.
  noc::EpochStats minority = stats;
  minority.tenants[1].flits_ejected = 62;  // shrink bg share
  const auto b_min = reward.breakdown(minority);
  EXPECT_LT(b_min.tenants[1].energy_credit, b.tenants[1].energy_credit);
}

TEST(QosReward, RejectsTenantCountMismatch) {
  const RewardFunction reward(qos_params());
  noc::EpochStats stats = two_tenant_stats();
  stats.tenants.resize(1);
  EXPECT_THROW(reward.breakdown(stats), std::invalid_argument);
  stats.tenants.clear();
  EXPECT_THROW(reward.compute(stats), std::invalid_argument);
}

TEST(QosReward, QosOffMatchesLegacyFormulaBitExactly) {
  // The aggregate objective must stay bit-identical to the pre-QoS
  // implementation; this reimplements that formula and compares exactly.
  RewardParams rp;
  rp.power_ref_mw = 250.0;
  const RewardFunction reward(rp);
  noc::EpochStats stats = two_tenant_stats();  // tenant slices are ignored
  const double l = stats.avg_latency / rp.latency_ref;
  const double lat_term = rp.w_latency * (l / (l + 1.0));
  const double power = stats.avg_power_mw(noc::PowerParams{}.core_freq_ghz);
  const double pow_term = rp.w_power * std::min(2.0, power / rp.power_ref_mw);
  double sat = std::max(0.0, stats.offered_rate - stats.accepted_rate) /
               stats.offered_rate;
  const double backlog_pressure =
      static_cast<double>(stats.source_queue_total) /
      std::max<double>(1.0,
                       static_cast<double>(stats.packets_offered) + 1.0);
  sat = std::min(1.0, sat + 0.5 * std::min(1.0, backlog_pressure));
  const double sat_term = rp.w_saturation * sat;
  const double expected = -(lat_term + pow_term + sat_term);

  EXPECT_EQ(reward.compute(stats), expected);
  const auto b = reward.breakdown(stats);
  EXPECT_TRUE(b.tenants.empty());
  EXPECT_EQ(b.reward, expected);
}

// --- per-tenant features -----------------------------------------------------

TEST(QosFeatures, AppendsThreeSlotsPerTenant) {
  const core::ActionSpace space = core::ActionSpace::standard();
  const core::FeatureExtractor plain(space, 16);
  std::vector<TenantQosSpec> qos(2);
  qos[0].cls = TenantQosClass::kLatencyCritical;
  qos[0].p95_target = 200.0;
  qos[1].cls = TenantQosClass::kBackground;
  core::FeatureExtractor tenant_aware(space, 16, {}, qos);
  EXPECT_EQ(tenant_aware.state_size(), plain.state_size() + 6);

  const auto names = tenant_aware.feature_names();
  ASSERT_EQ(names.size(), tenant_aware.state_size());
  EXPECT_EQ(names[names.size() - 6], "t0_share");
  EXPECT_EQ(names[names.size() - 5], "t0_p95");
  EXPECT_EQ(names[names.size() - 4], "t0_shortfall");
  EXPECT_EQ(names[names.size() - 1], "t1_shortfall");

  const rl::State s = tenant_aware.extract(two_tenant_stats());
  ASSERT_EQ(s.size(), tenant_aware.state_size());
  for (double v : s) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // t0: 50/120 offered share; p95 150 of a 200 SLO -> 150/400;
  // 2 of 50 packets undelivered.
  const std::size_t base = s.size() - 6;
  EXPECT_DOUBLE_EQ(s[base + 0], 50.0 / 120.0);
  EXPECT_DOUBLE_EQ(s[base + 1], 150.0 / 400.0);
  EXPECT_DOUBLE_EQ(s[base + 2], 1.0 - 48.0 / 50.0);
}

TEST(QosFeatures, RejectsTenantCountMismatch) {
  const core::ActionSpace space = core::ActionSpace::standard();
  std::vector<TenantQosSpec> qos(3);
  core::FeatureExtractor fx(space, 16, {}, qos);
  EXPECT_THROW(fx.extract(two_tenant_stats()), std::invalid_argument);
}

// --- environment wiring ------------------------------------------------------

TEST(QosEnv, ScenarioAnnotationsSwitchRewardAndFeatures) {
  auto s = std::make_shared<scenario::Scenario>(mixed_scenario(true));
  s->tenants[0].loop = true;
  s->tenants[1].stop = kInf;
  s->duration = 1e6;

  core::NocEnvParams ep;
  ep.scenario = s;
  ep.net.seed = 42;
  ep.epoch_cycles = 256;
  ep.epochs_per_episode = 3;
  core::NocConfigEnv env(ep);

  // Reward picked up the annotations...
  ASSERT_EQ(env.reward().params().tenant_qos.size(), 2u);
  EXPECT_EQ(env.reward().params().tenant_qos[0].cls,
            TenantQosClass::kLatencyCritical);
  EXPECT_DOUBLE_EQ(env.reward().params().tenant_qos[0].p95_target, 250.0);
  EXPECT_EQ(env.reward().params().tenant_qos[1].cls,
            TenantQosClass::kBackground);

  // ...and the observation grew the per-tenant slices.
  core::NocEnvParams agg = ep;
  agg.scenario_qos = false;
  core::NocConfigEnv agg_env(agg);
  EXPECT_EQ(env.state_size(), agg_env.state_size() + 6);
  EXPECT_TRUE(agg_env.reward().params().tenant_qos.empty());

  // Episodes run and produce finite QoS-shaped rewards.
  rl::State st = env.reset();
  EXPECT_EQ(st.size(), env.state_size());
  const rl::StepResult r = env.step(0);
  EXPECT_TRUE(std::isfinite(r.reward));
  EXPECT_EQ(r.next_state.size(), env.state_size());
}

TEST(QosEnv, QosFreeScenarioIsBitIdenticalEitherWay) {
  // Without annotations the scenario_qos flag must not change anything:
  // same state size, same features, same rewards.
  auto s = std::make_shared<scenario::Scenario>(mixed_scenario(false));
  s->tenants[0].loop = true;
  s->tenants[1].stop = kInf;
  s->duration = 1e6;
  const auto run = [&](bool qos_flag) {
    core::NocEnvParams ep;
    ep.scenario = s;
    ep.net.seed = 42;
    ep.epoch_cycles = 256;
    ep.epochs_per_episode = 2;
    ep.scenario_qos = qos_flag;
    core::NocConfigEnv env(ep);
    env.set_eval_mode(true);
    rl::State st = env.reset();
    const rl::StepResult r = env.step(1);
    st.insert(st.end(), r.next_state.begin(), r.next_state.end());
    st.push_back(r.reward);
    return st;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(QosEnv, RejectsQosSpecsWithoutScenario) {
  core::NocEnvParams ep;
  ep.net.width = ep.net.height = 4;
  ep.reward.power_ref_mw = 300.0;
  ep.reward.tenant_qos.resize(1);
  EXPECT_THROW(core::NocConfigEnv{ep}, std::invalid_argument);
}

TEST(QosEnv, RejectsQosSpecCountMismatch) {
  core::NocEnvParams ep;
  ep.scenario = std::make_shared<scenario::Scenario>(mixed_scenario(true));
  ep.reward.power_ref_mw = 300.0;
  ep.reward.tenant_qos.resize(3);  // scenario has 2 tenants
  for (auto& q : ep.reward.tenant_qos) q.cls = TenantQosClass::kBestEffort;
  EXPECT_THROW(core::NocConfigEnv{ep}, std::invalid_argument);
}

// --- .drlsc parsing ----------------------------------------------------------

namespace {
const char kQosScenarioText[] =
    "drlsc 1\n"
    "name = qos\n"
    "width = 4\nheight = 4\nseed = 7\nduration = 5000\n"
    "tenants = 2\n"
    "tenant0.name = svc\n"
    "tenant0.workload = steady\n"
    "tenant0.rate = 0.03\n"
    "tenant0.qos = latency_critical\n"
    "tenant0.p95_target = 220\n"
    "tenant1.name = bulk\n"
    "tenant1.workload = steady\n"
    "tenant1.rate = 0.05\n"
    "tenant1.qos = background\n";
}  // namespace

TEST(QosScenarioIo, ParsesQosKeysAndControllerBlock) {
  const std::string text = std::string(kQosScenarioText) +
                           "\n[controller]\n"
                           "type = static-max\n"
                           "epoch_cycles = 256\n"
                           "epochs = 8\n";
  const scenario::Scenario s = scenario::ScenarioReader::read_text(text);
  ASSERT_EQ(s.tenants.size(), 2u);
  EXPECT_EQ(s.tenants[0].qos, scenario::QosClass::kLatencyCritical);
  EXPECT_DOUBLE_EQ(s.tenants[0].p95_target, 220.0);
  EXPECT_EQ(s.tenants[1].qos, scenario::QosClass::kBackground);
  EXPECT_TRUE(s.has_qos());
  EXPECT_EQ(s.controller.type, "static-max");
  EXPECT_EQ(s.controller.epoch_cycles, 256u);
  EXPECT_EQ(s.controller.epochs, 8);
}

TEST(QosScenarioIo, NegativeParseCases) {
  // Unknown QoS class.
  EXPECT_THROW(
      scenario::ScenarioReader::read_text(
          "drlsc 1\nwidth = 4\nheight = 4\nduration = 100\ntenants = 1\n"
          "tenant0.workload = steady\ntenant0.qos = golden\n"),
      std::invalid_argument);
  // Malformed p95_target.
  EXPECT_THROW(
      scenario::ScenarioReader::read_text(
          "drlsc 1\nwidth = 4\nheight = 4\nduration = 100\ntenants = 1\n"
          "tenant0.workload = steady\n"
          "tenant0.qos = latency_critical\ntenant0.p95_target = fast\n"),
      std::invalid_argument);
  // latency_critical without a target.
  EXPECT_THROW(
      scenario::ScenarioReader::read_text(
          "drlsc 1\nwidth = 4\nheight = 4\nduration = 100\ntenants = 1\n"
          "tenant0.workload = steady\ntenant0.qos = latency_critical\n"),
      std::invalid_argument);
  // p95_target on a non-critical tenant.
  EXPECT_THROW(
      scenario::ScenarioReader::read_text(
          "drlsc 1\nwidth = 4\nheight = 4\nduration = 100\ntenants = 1\n"
          "tenant0.workload = steady\ntenant0.p95_target = 100\n"),
      std::invalid_argument);
  // Controller policy file missing.
  EXPECT_THROW(
      scenario::ScenarioReader::read_text(
          std::string(kQosScenarioText) +
          "[controller]\ntype = drl\npolicy = does_not_exist.policy\n"),
      std::invalid_argument);
  // drl schedule without a policy at all.
  EXPECT_THROW(
      scenario::ScenarioReader::read_text(std::string(kQosScenarioText) +
                                          "[controller]\ntype = drl\n"),
      std::invalid_argument);
  // Unknown controller type.
  EXPECT_THROW(
      scenario::ScenarioReader::read_text(std::string(kQosScenarioText) +
                                          "[controller]\ntype = pid\n"),
      std::invalid_argument);
  // Negative epoch_cycles must not wrap through the uint64 cast.
  EXPECT_THROW(
      scenario::ScenarioReader::read_text(
          std::string(kQosScenarioText) +
          "[controller]\ntype = heuristic\nepoch_cycles = -1\n"),
      std::invalid_argument);
  EXPECT_THROW(
      scenario::ScenarioReader::read_text(
          std::string(kQosScenarioText) +
          "[controller]\ntype = heuristic\nepochs = -3\n"),
      std::invalid_argument);
  // Duplicate [controller] block.
  EXPECT_THROW(
      scenario::ScenarioReader::read_text(
          std::string(kQosScenarioText) +
          "[controller]\ntype = heuristic\n[controller]\ntype = drl\n"),
      std::invalid_argument);
  // Unknown section.
  EXPECT_THROW(
      scenario::ScenarioReader::read_text(std::string(kQosScenarioText) +
                                          "[controllers]\n"),
      std::invalid_argument);
  // Unknown keys inside the controller block are typos too.
  EXPECT_THROW(
      scenario::ScenarioReader::read_text(
          std::string(kQosScenarioText) +
          "[controller]\ntype = heuristic\npolciy = x\n"),
      std::invalid_argument);
}

TEST(QosScenarioIo, QosAndControllerRoundTrip) {
  // A trained policy on disk, referenced from the [controller] block.
  scenario::Scenario s = scenario::ScenarioReader::read_text(kQosScenarioText);
  core::NocEnvParams probe_ep;
  probe_ep.scenario = std::make_shared<scenario::Scenario>(s);
  probe_ep.reward.power_ref_mw = 300.0;  // skip calibration
  core::NocConfigEnv probe(probe_ep);
  rl::DqnAgent agent(probe.state_size(), probe.num_actions(), rl::DqnParams{});
  std::ostringstream blob;
  agent.save(blob);
  const std::string policy_path = ::testing::TempDir() + "qos_rt.policy";
  {
    std::ofstream out(policy_path, std::ios::binary);
    out << blob.str();
  }
  s.controller.type = "drl";
  s.controller.policy_file = "qos_rt.policy";
  s.controller.policy_blob = blob.str();
  s.controller.epoch_cycles = 128;
  s.controller.epochs = 6;

  std::ostringstream os;
  scenario::ScenarioWriter::write_text(os, s);
  const scenario::Scenario back =
      scenario::ScenarioReader::read_text(os.str(), ::testing::TempDir());
  ASSERT_EQ(back.tenants.size(), 2u);
  EXPECT_EQ(back.tenants[0].qos, scenario::QosClass::kLatencyCritical);
  EXPECT_DOUBLE_EQ(back.tenants[0].p95_target, 220.0);
  EXPECT_EQ(back.tenants[1].qos, scenario::QosClass::kBackground);
  EXPECT_DOUBLE_EQ(back.tenants[1].p95_target, 0.0);
  EXPECT_EQ(back.controller.type, "drl");
  EXPECT_EQ(back.controller.policy_file, "qos_rt.policy");
  EXPECT_EQ(back.controller.policy_blob, s.controller.policy_blob);
  EXPECT_EQ(back.controller.epoch_cycles, 128u);
  EXPECT_EQ(back.controller.epochs, 6);
}

// --- controller schedules ----------------------------------------------------

TEST(ControllerSchedule, StaticScheduleDrivesTheRun) {
  scenario::Scenario s = mixed_scenario(true);
  s.tenants[0].loop = true;
  s.tenants[1].stop = kInf;
  s.duration = 1e6;
  s.controller.type = "static-max";
  s.controller.epoch_cycles = 256;
  s.controller.epochs = 4;

  const scenario::ScheduledRunResult r = scenario::run_scheduled(s);
  EXPECT_EQ(r.episode.controller, "static-max");
  EXPECT_EQ(r.episode.actions.size(), 4u);
  ASSERT_EQ(r.episode.tenants.size(), 2u);
  EXPECT_GT(r.episode.tenants[0].packets_received, 0u);
  // The critical tenant carries SLO accounting; background does not.
  EXPECT_GT(r.episode.tenants[0].slo_epochs, 0u);
  EXPECT_EQ(r.episode.tenants[1].slo_epochs, 0u);
  EXPECT_DOUBLE_EQ(r.episode.tenants[1].slo_hit_rate, 1.0);
  EXPECT_GE(r.episode.tenants[0].slo_hit_rate, 0.0);
  EXPECT_LE(r.episode.tenants[0].slo_hit_rate, 1.0);
  EXPECT_GT(r.power_ref_mw, 0.0);
}

TEST(ControllerSchedule, HeuristicScheduleRuns) {
  scenario::Scenario s = mixed_scenario(false);
  s.tenants[0].loop = true;
  s.tenants[1].stop = kInf;
  s.duration = 1e6;
  s.controller.type = "heuristic";
  s.controller.epoch_cycles = 256;
  s.controller.epochs = 3;
  const scenario::ScheduledRunResult r = scenario::run_scheduled(s);
  EXPECT_EQ(r.episode.controller, "heuristic");
  EXPECT_EQ(r.episode.actions.size(), 3u);
}

TEST(ControllerSchedule, DurationCapsOnlyPlainRuns) {
  // A scheduled run lasts controller.epochs x controller.epoch_cycles router
  // cycles whatever Scenario::duration says; only a plain run_scenario
  // stops the tenants at the duration.
  scenario::Scenario s = mixed_scenario(true);
  s.tenants[0].loop = true;
  s.tenants[1].stop = kInf;
  s.controller.type = "static-max";
  s.controller.epoch_cycles = 256;
  s.controller.epochs = 4;
  s.duration = 300.0;
  const scenario::ScheduledRunResult short_run = scenario::run_scheduled(s);
  const noc::RunResult short_plain = scenario::run_scenario(s);
  s.duration = 1e6;
  const scenario::ScheduledRunResult long_run = scenario::run_scheduled(s);
  s.duration = 3000.0;
  const noc::RunResult long_plain = scenario::run_scenario(s);

  const core::EpisodeResult& a = short_run.episode;
  const core::EpisodeResult& b = long_run.episode;
  EXPECT_EQ(a.total_reward, b.total_reward);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.mean_power_mw, b.mean_power_mw);
  EXPECT_EQ(a.mean_edp, b.mean_edp);
  EXPECT_EQ(a.offered_rate, b.offered_rate);
  EXPECT_EQ(a.accepted_rate, b.accepted_rate);
  EXPECT_EQ(a.backlog_end, b.backlog_end);
  EXPECT_EQ(a.actions, b.actions);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].packets_offered, b.tenants[t].packets_offered);
    EXPECT_EQ(a.tenants[t].packets_received, b.tenants[t].packets_received);
    EXPECT_EQ(a.tenants[t].slo_hits, b.tenants[t].slo_hits);
  }
  EXPECT_EQ(short_run.power_ref_mw, long_run.power_ref_mw);
  // 4 x 256 router cycles offer traffic well past the 300-cycle duration,
  // which the plain runs do honour.
  EXPECT_GT(a.tenants[1].packets_offered,
            short_plain.stats.tenants[1].packets_offered);
  EXPECT_LT(short_plain.stats.packets_offered,
            long_plain.stats.packets_offered);
}

TEST(ControllerSchedule, DrlScheduleLoadsAndValidatesThePolicy) {
  scenario::Scenario s = mixed_scenario(true);
  s.tenants[0].loop = true;
  s.tenants[1].stop = kInf;
  s.duration = 1e6;

  // A policy with the matching (QoS-extended) dimensions runs...
  core::NocEnvParams ep;
  ep.scenario = std::make_shared<scenario::Scenario>(s);
  ep.reward.power_ref_mw = 300.0;
  core::NocConfigEnv env(ep);
  s.controller.type = "drl";
  s.controller.epoch_cycles = 256;
  s.controller.epochs = 3;
  rl::DqnAgent agent(env.state_size(), env.num_actions(), rl::DqnParams{});
  std::ostringstream blob;
  agent.save(blob);
  s.controller.policy_file = "fit.policy";
  s.controller.policy_blob = blob.str();
  const scenario::ScheduledRunResult r = scenario::run_scheduled(s);
  EXPECT_EQ(r.episode.actions.size(), 3u);

  // ...a mismatched one (trained without the QoS slices) is diagnosed...
  rl::DqnAgent small(env.state_size() - 6, env.num_actions(), rl::DqnParams{});
  std::ostringstream small_blob;
  small.save(small_blob);
  s.controller.policy_blob = small_blob.str();
  EXPECT_THROW(scenario::run_scheduled(s), std::invalid_argument);

  // ...and garbage is rejected as not-a-policy.
  s.controller.policy_blob = "not a policy";
  EXPECT_THROW(scenario::run_scheduled(s), std::invalid_argument);
}

TEST(ControllerSchedule, RequiresASchedule) {
  scenario::Scenario s = mixed_scenario(false);
  s.duration = 5000.0;
  EXPECT_THROW(scenario::run_scheduled(s), std::invalid_argument);
}

// --- per-tenant accounting invariants under the experiment engine ------------

/// Runs one merged scenario and checks the slice/aggregate invariants;
/// returns a fold of the per-tenant counters for the thread-invariance check.
std::uint64_t checked_accounting_fold(std::uint64_t seed) {
  scenario::Scenario s = mixed_scenario(true, seed);
  auto net = scenario::build_network(s);
  auto w = scenario::build_workload(s, net->topology());
  const noc::RunResult r = scenario::run_scenario(*net, *w);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.stats.tenants.size(), 2u);

  std::uint64_t offered = 0, received = 0, flits = 0;
  std::vector<std::uint64_t> counters;
  for (const noc::TenantEpochStats& ts : r.stats.tenants) {
    offered += ts.packets_offered;
    received += ts.packets_received;
    flits += ts.flits_ejected;
    EXPECT_LE(ts.packets_measured, ts.packets_received);
    if (ts.packets_measured > 0) {
      // The p95 of a latency distribution sits at or above its mean for
      // these workloads (pinned: a regression in the per-tenant histogram
      // plumbing would push p95 under the mean immediately).
      EXPECT_GE(ts.p95_latency, ts.avg_latency * 0.95);
      EXPECT_LE(ts.avg_latency, ts.max_latency);
      EXPECT_LE(ts.p95_latency, ts.max_latency + 2.0);  // bucket resolution
    }
    counters.insert(counters.end(), {ts.packets_offered, ts.packets_received,
                                     ts.flits_ejected});
  }
  // Tenant slices partition the aggregate exactly.
  EXPECT_EQ(offered, r.stats.packets_offered);
  EXPECT_EQ(received, r.stats.packets_received);
  EXPECT_EQ(flits, r.stats.flits_ejected);
  return fold_words(counters);
}

TEST(QosAccounting, TenantSlicesPartitionAggregateAtAnyThreadCount) {
  std::uint64_t combined[3] = {};
  const int jobs_options[3] = {1, 2, 8};
  for (int k = 0; k < 3; ++k) {
    combined[k] = fold_words(util::parallel_map<std::uint64_t>(
        4, jobs_options[k], [](int i) {
          return checked_accounting_fold(11 + static_cast<std::uint64_t>(i));
        }));
  }
  EXPECT_EQ(combined[0], combined[1]);
  EXPECT_EQ(combined[0], combined[2]);
}

// --- QoS-off pinning ---------------------------------------------------------

TEST(QosPinning, AnnotationsNeverPerturbTheTrafficStream) {
  // QoS is an objective, not a workload: the same scenario with and without
  // annotations must deliver a bit-identical packet stream and identical
  // per-tenant accounting.
  const auto run = [](bool with_qos) {
    scenario::Scenario s = mixed_scenario(with_qos);
    auto net = scenario::build_network(s);
    auto w = scenario::build_workload(s, net->topology());
    // run_scenario's steps, driven through a recorder to see the stream.
    net->set_tenant_tracking(w->num_tenants());
    trace::TraceRecorder rec(net->num_nodes(), w.get());
    const noc::RunResult r = noc::run_until(
        *net, &rec, [&] { return w->quiescent(net->core_time()); },
        scenario::ScenarioRunParams{}.cycle_limit);
    EXPECT_TRUE(r.completed);
    std::uint64_t h = tenant_stream_hash(rec.records());
    h ^= 0x9e3779b97f4a7c15ULL * (r.stats.tenants[0].packets_received + 1);
    h ^= 0xc2b2ae3d27d4eb4fULL * (r.stats.tenants[1].packets_received + 1);
    return h;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(QosPinning, SloAccountingReachesEvaluate) {
  auto s = std::make_shared<scenario::Scenario>(mixed_scenario(true));
  s->tenants[0].loop = true;
  s->tenants[1].stop = kInf;
  s->duration = 1e6;

  const auto hit_rate_with_target = [&](double target) {
    auto scn = std::make_shared<scenario::Scenario>(*s);
    scn->tenants[0].p95_target = target;
    core::NocEnvParams ep;
    ep.scenario = scn;
    ep.net.seed = 42;
    ep.epoch_cycles = 256;
    ep.epochs_per_episode = 4;
    ep.reward.power_ref_mw = 300.0;
    core::NocConfigEnv env(ep);
    auto ctrl = core::StaticController::maximal(env.actions());
    const core::EpisodeResult res = core::evaluate(env, *ctrl);
    EXPECT_EQ(res.tenants[0].slo_hits + 0u,
              static_cast<std::uint64_t>(res.tenants[0].slo_hit_rate *
                                             static_cast<double>(
                                                 res.tenants[0].slo_epochs) +
                                         0.5));
    return res.tenants[0].slo_hit_rate;
  };
  // A generous SLO is always met; an absurdly tight one never is.
  EXPECT_DOUBLE_EQ(hit_rate_with_target(1e6), 1.0);
  EXPECT_DOUBLE_EQ(hit_rate_with_target(1e-3), 0.0);
}

}  // namespace
}  // namespace drlnoc
