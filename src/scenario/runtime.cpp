#include "scenario/runtime.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/controller.h"
#include "core/env_noc.h"
#include "nn/layers.h"
#include "noc/topology.h"
#include "noc/traffic.h"
#include "rl/dqn.h"
#include "rl/policy_io.h"
#include "util/log.h"

namespace drlnoc::scenario {

std::unique_ptr<noc::Network> build_network(const Scenario& scenario) {
  auto net = std::make_unique<noc::Network>(scenario.net);
  // Fault-free scenarios never attach a model, keeping the stepping hot
  // path (and every golden determinism hash) bit-identical to a build
  // without the fault layer.
  if (scenario.faults.enabled()) net->set_fault_model(scenario.faults);
  return net;
}

std::unique_ptr<CompositeWorkload> build_workload(const Scenario& scenario,
                                                  const noc::Topology& topo) {
  // Callers (the loader, the env, run_scenario) validate once up front;
  // re-validating here would re-walk every trace record on each RL episode
  // reset.
  if (topo.num_nodes() < scenario.net.width * scenario.net.height) {
    throw std::invalid_argument(
        "scenario: topology smaller than the scenario's fabric");
  }
  std::vector<TenantBinding> bindings;
  bindings.reserve(scenario.tenants.size());
  for (const TenantSpec& t : scenario.tenants) {
    TenantBinding b;
    b.name = t.name;
    b.nodes = t.nodes;
    b.start = t.start;
    b.stop = t.stop;
    switch (t.kind) {
      case WorkloadKind::kTrace: {
        trace::TraceWorkloadParams tw;
        tw.rate_scale = t.rate_scale;
        tw.loop = t.loop;
        auto child = std::make_unique<trace::TraceWorkload>(t.trace, tw);
        b.trace = child.get();
        // A placement list puts trace endpoint i on nodes[i]; without one
        // the trace addresses fabric ids directly.
        b.remap = !t.nodes.empty();
        b.injector = std::move(child);
        break;
      }
      case WorkloadKind::kSteady:
        b.injector = std::make_unique<noc::SteadyWorkload>(
            noc::SteadyWorkload::make(topo, t.pattern, t.rate, t.process));
        break;
      case WorkloadKind::kPhased:
        b.injector = std::make_unique<noc::PhasedWorkload>(
            topo, t.phases.empty()
                      ? noc::PhasedWorkload::standard_phases(topo,
                                                             t.phase_scale)
                      : t.phases);
        break;
    }
    bindings.push_back(std::move(b));
  }
  return std::make_unique<CompositeWorkload>(topo.num_nodes(),
                                             std::move(bindings));
}

double peak_offered_rate(const Scenario& scenario) {
  double peak = 0.0;
  std::unique_ptr<noc::Topology> topo;  // built lazily for standard phases
  for (const TenantSpec& t : scenario.tenants) {
    switch (t.kind) {
      case WorkloadKind::kTrace:
        peak = std::max(peak,
                        std::clamp(t.trace->summary().offered_rate *
                                       t.rate_scale,
                                   0.01, 0.5));
        break;
      case WorkloadKind::kSteady:
        peak = std::max(peak, t.rate);
        break;
      case WorkloadKind::kPhased: {
        std::vector<noc::Phase> phases = t.phases;
        if (phases.empty()) {
          if (!topo) {
            topo = noc::make_topology(scenario.net.topology,
                                      scenario.net.width,
                                      scenario.net.height);
          }
          phases = noc::PhasedWorkload::standard_phases(*topo, t.phase_scale);
        }
        for (const noc::Phase& ph : phases) peak = std::max(peak, ph.rate);
        break;
      }
    }
  }
  return peak;
}

noc::RunResult run_scenario(noc::Network& net, CompositeWorkload& workload,
                            const ScenarioRunParams& params) {
  if (params.duration > 0.0) workload.set_horizon(params.duration);
  net.set_tenant_tracking(workload.num_tenants());
  return noc::run_until(
      net, &workload,
      [&net, &workload] { return workload.quiescent(net.core_time()); },
      params.cycle_limit);
}

noc::RunResult run_scenario(const Scenario& scenario,
                            obs::FlightRecorder* recorder,
                            obs::NetworkMetrics* metrics) {
  scenario.validate();
  auto net = build_network(scenario);
  net->set_flight_recorder(recorder);
  net->set_metrics(metrics);
  auto workload = build_workload(scenario, net->topology());
  ScenarioRunParams p;
  p.cycle_limit = scenario.cycle_limit;
  p.duration = scenario.duration;
  return run_scenario(*net, *workload, p);
}

std::unique_ptr<core::Controller> build_scheduled_controller(
    const Scenario& scenario, const core::NocConfigEnv& env) {
  const ControllerSchedule& ctl = scenario.controller;
  if (!ctl.scheduled()) {
    throw std::invalid_argument(
        "scenario: no controller schedule (add a [controller] block)");
  }
  if (ctl.type == "static-max") {
    return core::StaticController::maximal(env.actions());
  }
  if (ctl.type == "static-min") {
    return core::StaticController::minimal(env.actions());
  }
  if (ctl.type == "heuristic") {
    core::HeuristicParams hp;
    hp.num_nodes = scenario.net.width * scenario.net.height;
    return std::make_unique<core::HeuristicController>(env.actions(), hp);
  }
  if (ctl.type == "drl") {
    // Pin check first: it is a pure byte comparison, so a wrong policy
    // file is rejected before any parsing can muddy the message.
    if (!ctl.policy_pin.empty()) {
      const std::string fp = rl::policy_fingerprint(ctl.policy_blob);
      if (fp != ctl.policy_pin) {
        throw std::invalid_argument(
            "scenario: controller policy fingerprint " + fp +
            " does not match the pinned version " + ctl.policy_pin +
            " (the policy file changed since it was pinned)");
      }
    }
    // Probe the policy's architecture first for a diagnosable mismatch
    // (DqnAgent::load_weights would adopt whatever the blob holds).
    // Accepts drlpol checkpoints and legacy bare mlp blobs alike.
    rl::PolicyCheckpoint ckpt;
    try {
      ckpt = rl::read_policy_blob(ctl.policy_blob);
    } catch (const std::exception& e) {
      throw std::invalid_argument(
          "scenario: controller policy is not a DqnAgent::save artifact (" +
          std::string(e.what()) + ")");
    }
    if (ckpt.net.input_size() != env.state_size() ||
        ckpt.net.output_size() !=
            static_cast<std::size_t>(env.num_actions())) {
      throw std::invalid_argument(
          "scenario: controller policy expects state " +
          std::to_string(ckpt.net.input_size()) + " / actions " +
          std::to_string(ckpt.net.output_size()) +
          " but the environment has state " +
          std::to_string(env.state_size()) + " / actions " +
          std::to_string(env.num_actions()) +
          " (was the policy trained with the same QoS annotations?)");
    }
    // Scenario-hash provenance is advisory: fleets legitimately evaluate
    // one policy across scenario variants, so a mismatch warns but runs.
    if (ckpt.header && !ckpt.header->scenario_hash.empty()) {
      const std::string here = content_hash_hex(scenario);
      if (ckpt.header->scenario_hash != here) {
        LOG_WARN << "policy '" << ctl.policy_file << "' was trained on "
                 << "scenario " << ckpt.header->scenario_hash
                 << " but is serving scenario " << here
                 << " ('" << scenario.name << "')";
      }
    }
    auto agent = std::make_unique<rl::DqnAgent>(
        env.state_size(), env.num_actions(), rl::DqnParams{});
    // Install the probed network itself, so the weights that were
    // dimension-checked are exactly the weights that run.
    agent->load_weights(std::move(ckpt.net));
    return std::make_unique<core::OwningDrlController>(
        env.actions(), std::move(agent), "drl[" + ctl.policy_file + "]");
  }
  throw std::invalid_argument("scenario: unknown controller type '" +
                              ctl.type + "'");
}

ScheduledRunResult run_scheduled(const Scenario& scenario,
                                 obs::FlightRecorder* recorder,
                                 obs::NetworkMetrics* metrics) {
  scenario.validate();
  core::NocEnvParams ep;
  ep.scenario = std::make_shared<Scenario>(scenario);
  ep.net.seed = scenario.net.seed;  // standalone runs use the scenario seed
  ep.epoch_cycles = scenario.controller.epoch_cycles;
  ep.epochs_per_episode = scenario.controller.epochs;
  ep.recorder = recorder;
  ep.metrics = metrics;
  core::NocConfigEnv env(ep);
  const auto controller = build_scheduled_controller(scenario, env);
  ScheduledRunResult out;
  out.episode = core::evaluate(env, *controller);
  out.power_ref_mw = env.power_ref_mw();
  return out;
}

std::vector<TenantReport> tenant_reports(const Scenario& scenario,
                                         const noc::EpochStats& stats) {
  if (stats.tenants.size() != scenario.tenants.size()) {
    throw std::invalid_argument(
        "tenant_reports: epoch has no per-tenant slices for this scenario "
        "(was tenant tracking enabled?)");
  }
  std::uint64_t total_flits = 0;
  for (const noc::TenantEpochStats& ts : stats.tenants) {
    total_flits += ts.flits_ejected;
  }
  const double node_cycles =
      stats.core_cycles *
      static_cast<double>(scenario.net.width * scenario.net.height);
  std::vector<TenantReport> out;
  out.reserve(stats.tenants.size());
  for (std::size_t i = 0; i < stats.tenants.size(); ++i) {
    const noc::TenantEpochStats& ts = stats.tenants[i];
    TenantReport r;
    r.name = scenario.tenants[i].name;
    r.packets_offered = ts.packets_offered;
    r.packets_received = ts.packets_received;
    r.flits_ejected = ts.flits_ejected;
    r.avg_latency = ts.avg_latency;
    r.p95_latency = ts.p95_latency;
    r.throughput = node_cycles > 0.0
                       ? static_cast<double>(ts.packets_received) / node_cycles
                       : 0.0;
    r.energy_share_pj =
        total_flits > 0
            ? stats.total_energy_pj() *
                  (static_cast<double>(ts.flits_ejected) /
                   static_cast<double>(total_flits))
            : 0.0;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace drlnoc::scenario
