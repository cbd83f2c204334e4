// Scenario runtime: turns a Scenario description into live simulation
// objects (Network + CompositeWorkload), runs it to completion with
// per-tenant accounting, derives per-tenant reports from epoch statistics,
// and executes scenario-level controller schedules ([controller] blocks) so
// `scenarioctl run` can replay controller-vs-workload paper rows without
// the bench binaries. This is the layer scenarioctl, traffic_explorer and
// the multi-tenant benches share.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "noc/simulator.h"
#include "scenario/composite_workload.h"
#include "scenario/scenario.h"

namespace drlnoc::obs {
class FlightRecorder;
class NetworkMetrics;
}  // namespace drlnoc::obs

namespace drlnoc::scenario {

/// Builds the scenario's fabric (topology/seed/etc. from `scenario.net`).
std::unique_ptr<noc::Network> build_network(const Scenario& scenario);

/// Builds the merged injector for `scenario` over `topo` (the fabric's
/// topology — synthetic tenants draw destinations from it). Tenant ids are
/// the declaration indices. The scenario must already be validated (the
/// loader, the env, and run_scenario(Scenario) all do so); this runs on
/// every RL episode reset and skips the O(records) re-walk.
std::unique_ptr<CompositeWorkload> build_workload(const Scenario& scenario,
                                                  const noc::Topology& topo);

/// Peak synthetic-equivalent offered rate across tenants (packets/node/
/// core-cycle); the scenario counterpart of the phased workload's busiest
/// phase, used to calibrate the reward's power normaliser.
double peak_offered_rate(const Scenario& scenario);

struct ScenarioRunParams {
  std::uint64_t cycle_limit = 2000000;  ///< router-cycle safety limit
  /// Run horizon in core cycles (caps every tenant window); 0 = run until
  /// every tenant finishes.
  double duration = 0.0;
};

/// Steps `net` under `workload` through noc::run_until until every tenant
/// is quiet and the fabric drains (or the cycle limit trips). Enables
/// per-tenant tracking on `net`.
noc::RunResult run_scenario(noc::Network& net, CompositeWorkload& workload,
                            const ScenarioRunParams& params = {});

/// Owning run: validates the scenario, builds network + workload and runs
/// them with the scenario's duration/cycle_limit. Optional (non-owning)
/// observability taps are attached to the fabric before the first cycle.
noc::RunResult run_scenario(const Scenario& scenario,
                            obs::FlightRecorder* recorder = nullptr,
                            obs::NetworkMetrics* metrics = nullptr);

/// Human/JSON-facing per-tenant slice derived from one epoch window.
struct TenantReport {
  std::string name;
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t flits_ejected = 0;
  double avg_latency = 0.0;     ///< core cycles, measured deliveries
  double p95_latency = 0.0;
  double throughput = 0.0;      ///< delivered packets / node / core-cycle
  double energy_share_pj = 0.0; ///< epoch energy attributed by flit share
};

/// Derives per-tenant reports from an epoch's TenantEpochStats (names taken
/// from the scenario's tenants; sizes must match). Energy is attributed
/// proportionally to ejected flits.
std::vector<TenantReport> tenant_reports(const Scenario& scenario,
                                         const noc::EpochStats& stats);

// --- controller schedules ---------------------------------------------------

/// Builds the controller named by `scenario.controller` against `env`'s
/// action space. DRL schedules deserialize the policy blob (DqnAgent::save
/// output) and validate its dimensions against the environment. Throws
/// std::invalid_argument when no schedule is set or the policy does not fit
/// the environment's state/action sizes.
std::unique_ptr<core::Controller> build_scheduled_controller(
    const Scenario& scenario, const core::NocConfigEnv& env);

/// Result of running a scenario under its controller schedule.
struct ScheduledRunResult {
  core::EpisodeResult episode;  ///< per-tenant summaries incl. SLO hit rates
  double power_ref_mw = 0.0;    ///< the reward's auto-calibrated normalizer
};

/// Runs the scenario under its [controller] schedule: `controller.epochs`
/// epochs of `controller.epoch_cycles` router cycles, the scheduled
/// controller reconfiguring the fabric between epochs, per-tenant QoS
/// objectives active when the scenario declares them. Optional (non-owning)
/// observability taps are attached to the fabric on every episode reset.
ScheduledRunResult run_scheduled(const Scenario& scenario,
                                 obs::FlightRecorder* recorder = nullptr,
                                 obs::NetworkMetrics* metrics = nullptr);

}  // namespace drlnoc::scenario
