#include "scenario/runtime.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/controller.h"
#include "core/env_noc.h"
#include "nn/layers.h"
#include "noc/topology.h"
#include "noc/traffic.h"
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
                                                  const noc::Topology& topo,
                                                  double phase_start) {
  // Callers (the loader, the env, run_scenario) validate once up front;
  // re-validating here would re-walk every trace record on each RL episode
  // reset.
  if (topo.num_nodes() < scenario.net.width * scenario.net.height) {
    throw std::invalid_argument(
        "scenario: topology smaller than the scenario's fabric");
  }
  const auto child = [&](const TenantSpec& t) -> TenantWorkload {
    switch (t.kind) {
      case WorkloadKind::kTrace:
        return trace::TraceWorkload(t.trace, {t.rate_scale, t.loop});
      case WorkloadKind::kSteady:
        return noc::SteadyWorkload::make(topo, t.pattern, t.rate, t.process);
      case WorkloadKind::kPhased: {
        noc::PhasedWorkload w(
            topo, t.phases.empty() ? noc::PhasedWorkload::standard_phases(
                                         topo, t.phase_scale)
                                   : t.phases);
        w.set_start_offset(phase_start * w.total_duration());
        return w;
      }
    }
    throw std::logic_error("scenario: unknown workload kind");
  };
  std::vector<TenantBinding> bindings;
  bindings.reserve(scenario.tenants.size());
  for (const TenantSpec& t : scenario.tenants) {
    // A trace placement list puts endpoint i on nodes[i]; without one the
    // trace addresses fabric ids directly. Synthetic tenants keep global
    // ids and only source from their nodes.
    bindings.push_back({.name = t.name,
                        .workload = child(t),
                        .nodes = t.nodes,
                        .remap = t.kind == WorkloadKind::kTrace &&
                                 !t.nodes.empty(),
                        .start = t.start,
                        .stop = t.stop});
  }
  return std::make_unique<CompositeWorkload>(topo.num_nodes(),
                                             std::move(bindings));
}

double peak_offered_rate(const Scenario& scenario) {
  double peak = 0.0;
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
          phases = noc::PhasedWorkload::standard_phases(
              noc::make_topology(scenario.net.topology, scenario.net.width,
                                 scenario.net.height),
              t.phase_scale);
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
    // Accepts drlpol checkpoints and legacy bare mlp blobs alike.
    rl::PolicyCheckpoint ckpt;
    try {
      ckpt = rl::read_policy_blob(ctl.policy_blob);
    } catch (const std::exception& e) {
      throw std::invalid_argument(
          "scenario: controller policy is not a DqnAgent::save artifact (" +
          std::string(e.what()) + ")");
    }
    // The controller's constructor is the dimension check.
    auto controller = std::make_unique<core::DrlController>(
        env, std::move(ckpt.net), "drl[" + ctl.policy_file + "]");
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
    return controller;
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
