#include "fleet/fleet.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/env_noc.h"
#include "core/trainer.h"
#include "rl/policy_io.h"
#include "scenario/runtime.h"
#include "scenario/scenario_io.h"
#include "util/fnv.h"
#include "util/versioned_text.h"

namespace drlnoc::fleet {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("fleet: " + what);
}

void check_params(const FleetParams& params) {
  if (params.controller != "heuristic" && params.controller != "static-max" &&
      params.controller != "static-min" && params.controller != "drl") {
    fail("controller must be drl|heuristic|static-max|static-min, got '" +
         params.controller + "'");
  }
  if (params.controller == "drl" && params.policy_blob.empty()) {
    fail("drl fleet requires a trained policy (policy_blob empty)");
  }
  if (!params.policy_pin.empty()) {
    if (params.controller != "drl") {
      fail("policy_pin is only meaningful with controller=drl");
    }
    // Check the pin up front so a stale pin aborts before any scenario
    // work (the per-scenario schedule build re-checks it too).
    const std::string fp = rl::policy_fingerprint(params.policy_blob);
    if (fp != params.policy_pin) {
      fail("policy fingerprint " + fp + " does not match the pinned version " +
           params.policy_pin + " (the policy file changed since it was "
           "pinned)");
    }
  }
  if (params.epoch_cycles == 0) fail("epoch_cycles must be > 0");
  if (params.epochs <= 0) fail("epochs must be > 0");
  if (params.shards < 1) fail("shards must be >= 1");
  if (params.shard < 0 || params.shard >= params.shards) {
    fail("shard must be in [0, shards), got " + std::to_string(params.shard) +
         " of " + std::to_string(params.shards));
  }
  if (params.results_dir.empty()) fail("results_dir is required");
}

}  // namespace

std::string result_key(const ScenarioSpace& space, std::size_t index,
                       const FleetParams& params) {
  // Everything that determines the outcome feeds the hash, each field
  // separated by an out-of-band byte so concatenations cannot collide.
  util::Fnv1a64 h;
  h.bytes(space.spec_text)
      .byte(0).bytes(std::to_string(index))
      .byte(0).bytes(params.controller)
      .byte(0).bytes(params.policy_blob)
      .byte(0).bytes(std::to_string(params.epoch_cycles))
      .byte(0).bytes(std::to_string(params.epochs))
      .byte(0).bytes(params.qos_features ? "qos" : "aggregate");
  return util::hex16(h.value());
}

std::string result_path(const std::string& results_dir, std::size_t index,
                        const std::string& key) {
  return results_dir + "/result-" + std::to_string(index) + "-" + key +
         kFleetResultExtension;
}

void write_result_file(const std::string& path,
                       const FleetScenarioResult& r) {
  // tmp + rename: a killed run leaves either the complete file or no file
  // with the final name, so resume never trusts a torn write.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os) throw std::runtime_error("fleet: cannot write " + tmp);
    os.precision(17);
    os << "drlfr " << kFleetResultFormatVersion << "\n";
    os << "index = " << r.index << "\n";
    os << "label = " << r.label << "\n";
    os << "seed = " << r.seed << "\n";
    os << "reward = " << r.reward << "\n";
    os << "mean_latency = " << r.mean_latency << "\n";
    os << "p95_latency = " << r.p95_latency << "\n";
    os << "mean_power_mw = " << r.mean_power_mw << "\n";
    os << "mean_edp = " << r.mean_edp << "\n";
    os << "flits_dropped = " << r.flits_dropped << "\n";
    os << "retries = " << r.retries << "\n";
    os << "packets_lost = " << r.packets_lost << "\n";
    os << "rerouted_hops = " << r.rerouted_hops << "\n";
    // Only drl results carry a policy version; omitting the key otherwise
    // keeps policy-free result files byte-identical to the PR 9 format.
    if (!r.policy_version.empty()) {
      os << "policy_version = " << r.policy_version << "\n";
    }
    os << "tenants = " << r.tenants.size() << "\n";
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
      const FleetTenantOutcome& t = r.tenants[i];
      const std::string p = "tenant" + std::to_string(i) + ".";
      os << p << "name = " << t.name << "\n";
      os << p << "qos = " << t.qos << "\n";
      os << p << "slo_hit_rate = " << t.slo_hit_rate << "\n";
      os << p << "p95_latency = " << t.p95_latency << "\n";
      os << p << "accepted_rate = " << t.accepted_rate << "\n";
    }
    if (!os.flush()) throw std::runtime_error("fleet: write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("fleet: cannot rename " + tmp + " -> " + path +
                             ": " + ec.message());
  }
}

std::optional<FleetScenarioResult> read_result_file(const std::string& path) {
  const std::optional<std::string> text = util::read_file_bytes(path);
  if (!text) return std::nullopt;
  // No unknown-key check: a key added by a newer writer must not make this
  // reader reject the file.
  const util::Config cfg = util::parse_versioned_text(
      *text, {"drlfr", kFleetResultFormatVersion, "fleet: " + path, {}});
  FleetScenarioResult r;
  r.index = static_cast<std::size_t>(cfg.get("index", 0LL));
  r.label = cfg.get("label", std::string());
  r.seed = static_cast<std::uint64_t>(cfg.get("seed", 0LL));
  r.reward = cfg.get("reward", 0.0);
  r.mean_latency = cfg.get("mean_latency", 0.0);
  r.p95_latency = cfg.get("p95_latency", 0.0);
  r.mean_power_mw = cfg.get("mean_power_mw", 0.0);
  r.mean_edp = cfg.get("mean_edp", 0.0);
  r.flits_dropped = static_cast<std::uint64_t>(cfg.get("flits_dropped", 0LL));
  r.retries = static_cast<std::uint64_t>(cfg.get("retries", 0LL));
  r.packets_lost = static_cast<std::uint64_t>(cfg.get("packets_lost", 0LL));
  r.rerouted_hops = static_cast<std::uint64_t>(cfg.get("rerouted_hops", 0LL));
  r.policy_version = cfg.get("policy_version", std::string());
  const int tenants = cfg.get("tenants", 0);
  for (int i = 0; i < tenants; ++i) {
    const std::string p = "tenant" + std::to_string(i) + ".";
    FleetTenantOutcome t;
    t.name = cfg.get(p + "name", t.name);
    t.qos = cfg.get(p + "qos", t.qos);
    t.slo_hit_rate = cfg.get(p + "slo_hit_rate", t.slo_hit_rate);
    t.p95_latency = cfg.get(p + "p95_latency", t.p95_latency);
    t.accepted_rate = cfg.get(p + "accepted_rate", t.accepted_rate);
    r.tenants.push_back(t);
  }
  return r;
}

FleetScenarioResult evaluate_scenario(const ExpandedScenario& point,
                                      const FleetParams& params,
                                      obs::FlightRecorder* recorder,
                                      obs::NetworkMetrics* metrics) {
  check_params(params);
  // Install the fleet's controller as the scenario's schedule, so the same
  // build path (and the same policy-vs-environment dimension check) serves
  // standalone scheduled runs and fleets.
  scenario::Scenario scn = point.scenario;
  scn.controller = scenario::ControllerSchedule{};
  scn.controller.type = params.controller;
  scn.controller.epoch_cycles = params.epoch_cycles;
  scn.controller.epochs = params.epochs;
  if (params.controller == "drl") {
    scn.controller.policy_file =
        params.policy_file.empty() ? "<fleet policy>" : params.policy_file;
    scn.controller.policy_blob = params.policy_blob;
    // The pin rides through the same schedule-build path as standalone
    // runs, so one check covers both.
    scn.controller.policy_pin = params.policy_pin;
  }

  core::NocEnvParams ep;
  ep.scenario = std::make_shared<scenario::Scenario>(scn);
  ep.net.seed = scn.net.seed;
  ep.scenario_qos = params.qos_features;
  ep.epoch_cycles = params.epoch_cycles;
  ep.epochs_per_episode = params.epochs;
  ep.recorder = recorder;
  ep.metrics = metrics;
  core::NocConfigEnv env(ep);
  const auto controller = scenario::build_scheduled_controller(scn, env);
  const core::EpisodeResult episode = core::evaluate(env, *controller);

  FleetScenarioResult r;
  r.index = point.index;
  r.label = point.label;
  r.seed = scn.net.seed;
  r.reward = episode.total_reward;
  r.mean_latency = episode.mean_latency;
  r.p95_latency = episode.p95_latency;
  r.mean_power_mw = episode.mean_power_mw;
  r.mean_edp = episode.mean_edp;
  r.flits_dropped = episode.flits_dropped;
  r.retries = episode.retries;
  r.packets_lost = episode.packets_lost;
  r.rerouted_hops = episode.rerouted_hops;
  if (params.controller == "drl") {
    r.policy_version = rl::policy_fingerprint(params.policy_blob);
  }
  for (std::size_t i = 0; i < episode.tenants.size(); ++i) {
    const core::TenantEpisodeSummary& s = episode.tenants[i];
    FleetTenantOutcome t;
    t.name = scn.tenants[i].name;
    t.qos = scenario::to_string(scn.tenants[i].qos);
    t.slo_hit_rate = s.slo_hit_rate;
    t.p95_latency = s.p95_latency;
    t.accepted_rate = s.accepted_rate;
    r.tenants.push_back(t);
  }
  return r;
}

FleetRunOutcome run_fleet(const ScenarioSpace& space, const FleetParams& params,
                          const core::ExperimentRunner& runner) {
  check_params(params);
  space.validate();
  std::error_code ec;
  std::filesystem::create_directories(params.results_dir, ec);
  if (ec) {
    throw std::runtime_error("fleet: cannot create results dir " +
                             params.results_dir + ": " + ec.message());
  }

  FleetRunOutcome outcome;
  std::vector<std::size_t> todo;
  for (std::size_t index = 0; index < space.size(); ++index) {
    if (index % static_cast<std::size_t>(params.shards) !=
        static_cast<std::size_t>(params.shard)) {
      continue;
    }
    ++outcome.owned;
    const std::string path =
        result_path(params.results_dir, index, result_key(space, index, params));
    if (std::filesystem::exists(path)) {
      ++outcome.skipped;
      continue;
    }
    todo.push_back(index);
  }

  // Each scenario is an independent simulation with its own seed and its own
  // index-addressed result file, so results are bit-identical at any jobs
  // count. Taps stay detached here (they are single-threaded); the worst-k
  // heatmap reruns attach them serially afterwards.
  runner.for_each(static_cast<int>(todo.size()), [&](int i) {
    const std::size_t index = todo[static_cast<std::size_t>(i)];
    const ExpandedScenario point = space.expand(index);
    const FleetScenarioResult r = evaluate_scenario(point, params);
    write_result_file(
        result_path(params.results_dir, index, result_key(space, index, params)),
        r);
  });
  outcome.ran = todo.size();
  return outcome;
}

std::vector<FleetScenarioResult> load_results(const ScenarioSpace& space,
                                              const FleetParams& params) {
  check_params(params);
  std::vector<FleetScenarioResult> out;
  for (std::size_t index = 0; index < space.size(); ++index) {
    const std::string path =
        result_path(params.results_dir, index, result_key(space, index, params));
    if (auto r = read_result_file(path)) out.push_back(std::move(*r));
  }
  return out;
}

}  // namespace drlnoc::fleet
