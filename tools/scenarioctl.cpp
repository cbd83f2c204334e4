// scenarioctl: validate, describe, run, and train on multi-tenant `.drlsc`
// scenarios, and check the `.drlpol` policies training writes.
//
//   scenarioctl validate file=mix.drlsc
//   scenarioctl describe file=mix.drlsc
//   scenarioctl run      file=mix.drlsc [cycle_limit=N] [duration=T] [seed=S]
//   scenarioctl train    file=mix.drlsc out=policy.drlpol [episodes=N]
//   scenarioctl policy   file=policy.drlpol [expect_git=1]
//
// The `.drlsc` format is documented in src/scenario/scenario_io.h. `run`
// executes the scenario on its fabric and prints aggregate plus per-tenant
// latency/throughput/energy; the exit code is 0 only when every tenant
// finished and the fabric drained within the cycle limit
// (cycle_limit=/duration= override the file). When the file carries a
// [controller] block, `run` instead replays the scenario under that
// controller schedule (static/heuristic/trained-DRL policy) and reports
// per-tenant latency and SLO hit rates; scheduled runs are fixed-length
// policy evaluations (epochs=/epoch_cycles= override the schedule;
// cycle_limit/duration do not apply) and exit 0 whenever they complete.
#include <cmath>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>

#include "cli_main.h"
#include "core/env_noc.h"
#include "core/parallel.h"
#include "core/trainer.h"
#include "obs/session.h"
#include "rl/dqn.h"
#include "rl/policy_io.h"
#include "scenario/runtime.h"
#include "scenario/scenario_io.h"
#include "util/config.h"
#include "util/log.h"
#include "util/table.h"

using namespace drlnoc;

namespace {

constexpr const char* kUsage =
    "usage: scenarioctl <validate|describe|run|train|policy> file=X "
    "[key=value...]\n"
    "  validate file=X\n"
    "  describe file=X\n"
    "  run      file=X [cycle_limit=N] [duration=T] [seed=S]\n"
    "           [fault_rate=P] [fault_seed=S] [fault_timeout=N]\n"
    "           [fault_backoff=B] [fault_budget=N]\n"
    "           [--trace-out=F] [--metrics-out=F] [--trace-sample=P]\n"
    "           [--trace-capacity=N]\n"
    "           (scheduled: [epochs=N] [epoch_cycles=N] [pin=HEX16])\n"
    "  train    file=X out=F [episodes=N] [round=N] [actors=N]\n"
    "           [eval_every=N] [seed=S] [epochs=N] [epoch_cycles=N]\n"
    "           [qos_features=0|1]\n"
    "  policy   file=F [expect_git=1]\n"
    "Common: [--log=debug|info|warn|error|off] (or DRLNOC_LOG env var).\n"
    "Pass --help after a subcommand for its full option list; the .drlsc\n"
    "format is specified in docs/FORMATS.md.\n";

int usage() { return cli::usage_error(kUsage); }

/// Detailed per-subcommand help, printed to stdout for `scenarioctl <cmd>
/// --help` (exit 0, unlike the exit-2 usage() error path).
void help(const std::string& command) {
  if (command == "validate") {
    std::cout
        << "scenarioctl validate file=X\n"
           "Parse and fully validate a .drlsc scenario — key/section typos,\n"
           "tenant specs (traffic names, pattern geometry, rates), QoS\n"
           "constraints, and eager loading of referenced traces and policy\n"
           "files (relative to the scenario file). Prints a one-line summary\n"
           "on success; exit 1 with a diagnostic on any error.\n";
  } else if (command == "describe") {
    std::cout
        << "scenarioctl describe file=X\n"
           "Print the parsed scenario: fabric, horizon, one row per tenant\n"
           "(workload, node set, activity window, QoS class) and the\n"
           "[controller] schedule when present.\n";
  } else if (command == "run") {
    std::cout
        << "scenarioctl run file=X [cycle_limit=N] [duration=T] [seed=S]\n"
           "Execute the scenario and print aggregate plus per-tenant\n"
           "latency/throughput/energy. Exit 0 only when every tenant\n"
           "finished and the fabric drained within the cycle limit\n"
           "(cycle_limit=/duration=/seed= override the file).\n"
           "Fault overrides — fault_rate= fault_seed= fault_timeout=\n"
           "fault_backoff= fault_budget= — tweak (or switch on) the\n"
           "scenario's [faults] section; the merged config is re-validated,\n"
           "so out-of-range overrides fail like a bad file.\n"
           "With a [controller] block the run is instead a fixed-length\n"
           "scheduled policy evaluation (static/heuristic/trained-DRL)\n"
           "reporting per-tenant latency and SLO hit rates; epochs= and\n"
           "epoch_cycles= override the schedule, cycle_limit/duration do\n"
           "not apply, and completion exits 0.\n"
           "For a drl schedule, pin=HEX16 overrides the file's `pin` key:\n"
           "the run refuses to start unless the policy file's fingerprint\n"
           "(rl::policy_fingerprint, printed by `train`) matches.\n"
           "Observability (see docs/OBSERVABILITY.md): --trace-out=F writes\n"
           "a Chrome trace-event JSON of sampled packet lifecycles and\n"
           "scenario/fault/config events (open in Perfetto);\n"
           "--trace-sample=P sets the sampled packet fraction (default 1.0)\n"
           "and --trace-capacity=N the ring size. --metrics-out=F writes\n"
           "per-epoch metrics JSON (plus profiler phase timings) and a\n"
           "per-router link-utilization heatmap CSV next to it. Observers\n"
           "never change simulation results.\n";
  } else if (command == "train") {
    std::cout
        << "scenarioctl train file=X out=F [episodes=N] [round=N]\n"
           "                 [actors=N] [eval_every=N] [seed=S]\n"
           "                 [epochs=N] [epoch_cycles=N] [qos_features=0|1]\n"
           "Train a DQN policy on the scenario's epoch MDP with the\n"
           "multi-actor collector (core::train_dqn_parallel) and save a\n"
           "versioned `drlpol 1` checkpoint to F, stamped with the\n"
           "scenario's content hash and the building commit. `round` is\n"
           "part of the experiment definition (like a seed); `actors` is\n"
           "purely the worker-thread count — results are bit-identical at\n"
           "any value (0 = one per hardware thread). epochs=/epoch_cycles=\n"
           "override the decision schedule (defaults: the [controller]\n"
           "block when present, else 24 x 512). qos_features=1 (default)\n"
           "trains with per-tenant QoS feature slices as scheduled runs\n"
           "use; pass qos_features=0 for a policy a fleet (aggregate\n"
           "features) can serve. Prints the policy version (the checkpoint\n"
           "fingerprint) to pin in runs and fleets.\n";
  } else if (command == "policy") {
    std::cout
        << "scenarioctl policy file=F [expect_git=1]\n"
           "Validate a `drlpol 1` policy checkpoint with the reader serving\n"
           "uses (header keys, dimensions, architecture and every weight)\n"
           "and print `<version>  <path>  # <summary>`, where the version\n"
           "is the checkpoint fingerprint that pin= / policy_pin= match.\n"
           "expect_git=1 also fails when the git provenance is `unknown`\n"
           "(a build without commit stamping). Exit 1 with the reader's\n"
           "diagnostic on a malformed, truncated or unversioned file.\n";
  } else {
    std::cout << kUsage;
  }
}

void describe_tenants(const scenario::Scenario& s) {
  util::Table tab({"tenant", "workload", "detail", "nodes", "window", "qos"});
  for (const scenario::TenantSpec& t : s.tenants) {
    std::string detail;
    switch (t.kind) {
      case scenario::WorkloadKind::kTrace:
        detail = t.trace_file + " x" + util::fmt(t.rate_scale, 2) +
                 (t.loop ? " loop" : "") + " (" +
                 std::to_string(t.trace->records.size()) + " rec)";
        break;
      case scenario::WorkloadKind::kSteady:
        detail = t.pattern + "/" + t.process + " @" + util::fmt(t.rate, 4);
        break;
      case scenario::WorkloadKind::kPhased:
        detail = t.phases.empty()
                     ? "standard x" + util::fmt(t.phase_scale, 2)
                     : std::to_string(t.phases.size()) + " phases";
        break;
    }
    const std::string window =
        util::fmt(t.start, 0) + ".." +
        (std::isinf(t.stop) ? std::string("inf") : util::fmt(t.stop, 0));
    std::string qos = scenario::to_string(t.qos);
    if (t.qos == scenario::QosClass::kLatencyCritical) {
      qos += " p95<=" + util::fmt(t.p95_target, 0);
    }
    tab.row()
        .cell(t.name)
        .cell(scenario::to_string(t.kind))
        .cell(detail)
        .cell(scenario::format_node_set(t.nodes))
        .cell(window)
        .cell(qos);
  }
  tab.print(std::cout);
  if (s.controller.scheduled()) {
    std::cout << "\ncontroller: " << s.controller.type
              << (s.controller.type == "drl"
                      ? " (policy " + s.controller.policy_file + ")"
                      : "")
              << ", " << s.controller.epochs << " epochs x "
              << s.controller.epoch_cycles << " router cycles\n";
  }
  if (s.faults.enabled()) {
    std::cout << "\nfaults: seed " << s.faults.seed << ", link_fault_rate "
              << util::fmt(s.faults.link_fault_rate, 6) << ", retry timeout "
              << s.faults.retry_timeout << " x backoff "
              << util::fmt(s.faults.retry_backoff, 2) << ", budget "
              << s.faults.retry_budget << "\n";
    for (std::size_t k = 0; k < s.faults.events.size(); ++k) {
      const noc::FaultEvent& ev = s.faults.events[k];
      std::cout << "  event" << k << ": cycle " << ev.at_cycle << " "
                << noc::to_string(ev.kind) << " node " << ev.node;
      if (ev.kind == noc::FaultEvent::Kind::kLinkDown) {
        std::cout << " port " << ev.port;
      } else {
        std::cout << " factor " << ev.factor;
      }
      std::cout << "\n";
    }
  }
}

int cmd_validate(const util::Config& cfg) {
  const std::string path = cfg.get("file", std::string());
  if (path.empty()) return usage();
  const scenario::Scenario s = scenario::ScenarioReader::read_file(path);
  std::cout << "OK: " << path << " (scenario '" << s.name << "', "
            << s.net.topology << " " << s.net.width << "x" << s.net.height
            << ", " << s.tenants.size() << " tenant"
            << (s.tenants.size() == 1 ? "" : "s") << ")\n";
  return 0;
}

int cmd_describe(const util::Config& cfg) {
  const std::string path = cfg.get("file", std::string());
  if (path.empty()) return usage();
  const scenario::Scenario s = scenario::ScenarioReader::read_file(path);
  std::cout << "scenario: " << s.name << "\n"
            << "  fabric      " << s.net.topology << " " << s.net.width << "x"
            << s.net.height << ", routing " << s.net.routing << ", seed "
            << s.net.seed << "\n"
            << "  duration    "
            << (s.duration > 0.0 ? util::fmt(s.duration, 0) + " core cycles"
                                 : std::string("until tenants finish"))
            << "\n"
            << "  cycle_limit " << s.cycle_limit << "\n\n";
  describe_tenants(s);
  return 0;
}

/// A scheduled run: the scenario's [controller] block drives the fabric
/// epoch by epoch (the paper-row replay path). Prints episode metrics plus
/// per-tenant latency and SLO hit rate.
int run_with_schedule(const scenario::Scenario& s, obs::ObsSession& session) {
  if (session.enabled()) session.annotate_scenario(s);
  const scenario::ScheduledRunResult r = scenario::run_scheduled(
      s, session.recorder(), session.metrics(s.net.width * s.net.height));
  const core::EpisodeResult& ep = r.episode;
  std::cout << "ran '" << s.name << "' under controller '" << ep.controller
            << "': " << ep.actions.size() << " epochs x "
            << s.controller.epoch_cycles << " router cycles (power_ref "
            << util::fmt(r.power_ref_mw, 1) << " mW)\n\n";

  util::Table agg({"metric", "value"});
  agg.row().cell("reward").cell(ep.total_reward, 2);
  agg.row().cell("mean_latency").cell(ep.mean_latency, 2);
  agg.row().cell("p95_latency").cell(ep.p95_latency, 2);
  agg.row().cell("mean_power_mW").cell(ep.mean_power_mw, 1);
  agg.row().cell("accepted_rate").cell(ep.accepted_rate, 5);
  agg.row().cell("backlog_end").cell(static_cast<long long>(ep.backlog_end));
  if (s.faults.enabled()) {
    agg.row().cell("flits_dropped").cell(
        static_cast<long long>(ep.flits_dropped));
    agg.row().cell("retries").cell(static_cast<long long>(ep.retries));
    agg.row().cell("packets_lost").cell(
        static_cast<long long>(ep.packets_lost));
    agg.row().cell("rerouted_hops").cell(
        static_cast<long long>(ep.rerouted_hops));
  }
  agg.print(std::cout);

  if (!ep.tenants.empty()) {
    std::cout << "\nper-tenant:\n";
    util::Table tab({"tenant", "qos", "offered", "delivered", "avg_lat",
                     "p95_lat", "slo_hit"});
    for (std::size_t i = 0; i < ep.tenants.size(); ++i) {
      const core::TenantEpisodeSummary& t = ep.tenants[i];
      const scenario::TenantSpec& spec = s.tenants[i];
      tab.row()
          .cell(spec.name)
          .cell(scenario::to_string(spec.qos))
          .cell(static_cast<long long>(t.packets_offered))
          .cell(static_cast<long long>(t.packets_received))
          .cell(t.mean_latency, 2)
          .cell(t.p95_latency, 2)
          .cell(spec.p95_target > 0.0
                    ? util::fmt(100.0 * t.slo_hit_rate, 1) + "%"
                    : std::string("-"));
    }
    tab.print(std::cout);
  }
  return 0;
}

/// `train`: multi-actor DQN training on the scenario's epoch MDP, saving a
/// versioned policy checkpoint stamped with the scenario content hash and
/// the building commit. The printed fingerprint is the policy version to
/// pin (scenarioctl run pin= / fleetctl policy_pin=).
int cmd_train(const util::Config& cfg) {
  const std::string path = cfg.get("file", std::string());
  const std::string out = cfg.get("out", std::string());
  if (path.empty() || out.empty()) return usage();
  const scenario::Scenario s = scenario::ScenarioReader::read_file(path);

  // Decision schedule: the [controller] block when present, else the fleet
  // defaults; overridable either way.
  const std::uint64_t cycles = cfg.get(
      "epoch_cycles",
      s.controller.scheduled() ? s.controller.epoch_cycles : 512);
  if (cycles == 0) {
    LOG_ERROR << "scenarioctl: epoch_cycles must be > 0";
    return 2;
  }
  const int epochs =
      cfg.get("epochs", s.controller.scheduled() ? s.controller.epochs : 24);
  if (epochs <= 0) {
    LOG_ERROR << "scenarioctl: epochs must be > 0";
    return 2;
  }

  core::NocEnvParams ep;
  ep.scenario = std::make_shared<scenario::Scenario>(s);
  ep.net.seed = s.net.seed;
  ep.epoch_cycles = cycles;
  ep.epochs_per_episode = epochs;
  // Per-tenant QoS feature slices (the scheduled-run default) scale the
  // state with the tenant count; train with qos_features=0 for a policy a
  // fleet (aggregate features) can serve.
  ep.scenario_qos = cfg.get("qos_features", ep.scenario_qos);

  core::ParallelTrainParams tp;
  tp.episodes = cfg.get("episodes", tp.episodes);
  tp.round = cfg.get("round", tp.round);
  tp.actors = cfg.get("actors", tp.actors);
  tp.eval_every = cfg.get("eval_every", tp.eval_every);
  tp.verbose = true;

  // The experiment-wide hyper-parameters, sized to the training horizon.
  const rl::DqnParams dp = core::standard_dqn(
      static_cast<std::uint64_t>(tp.episodes) *
          static_cast<std::uint64_t>(epochs),
      cfg.get("seed", std::uint64_t{7}));

  // Calibrated once, so neither the probe (built only for the
  // observation/action dimensions) nor the trainer's lanes recalibrate.
  ep = core::with_calibrated_power_ref(ep);
  core::NocConfigEnv probe(ep);
  rl::DqnAgent agent(probe.state_size(), probe.num_actions(), dp);
  const core::TrainResult r = core::train_dqn_parallel(ep, agent, tp);

  rl::PolicyMeta meta;
  meta.scenario_hash = scenario::content_hash_hex(s);
  meta.git = DRLNOC_GIT_DESCRIBE;
  std::ostringstream blob;
  agent.save(blob, meta);
  {
    std::ofstream os(out, std::ios::binary);
    if (!os || !(os << blob.str()).flush()) {
      LOG_ERROR << "scenarioctl: cannot write " << out;
      return 1;
    }
  }
  const double final_return =
      r.episode_returns.empty() ? 0.0 : r.episode_returns.back();
  std::cout << "trained '" << s.name << "': " << tp.episodes << " episodes x "
            << epochs << " epochs (round " << tp.round << "), final return "
            << util::fmt(final_return, 2) << "\n"
            << "wrote " << out << " (scenario hash " << meta.scenario_hash
            << ", git " << meta.git << ")\n"
            << "policy version " << rl::policy_fingerprint(blob.str())
            << "  # pin with scenarioctl run pin= / fleetctl policy_pin=\n";
  return 0;
}

/// `policy`: checks a checkpoint with rl::read_policy_blob — the reader
/// serving uses — and prints its version (rl::policy_fingerprint).
int cmd_policy(const util::Config& cfg) {
  const std::string path = cfg.get("file", std::string());
  if (path.empty()) return usage();
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    LOG_ERROR << "scenarioctl: cannot open " << path;
    return 1;
  }
  const std::string blob{std::istreambuf_iterator<char>(is), {}};
  rl::PolicyCheckpoint ckpt;
  try {
    ckpt = rl::read_policy_blob(blob);
  } catch (const std::exception& e) {
    LOG_ERROR << "scenarioctl: " << path << ": " << e.what();
    return 1;
  }
  if (!ckpt.header) {
    LOG_ERROR << "scenarioctl: " << path
              << ": bare mlp blob, not a versioned drlpol checkpoint";
    return 1;
  }
  const rl::PolicyHeader& h = *ckpt.header;
  if (cfg.get("expect_git", false) && h.git.empty()) {
    LOG_ERROR << "scenarioctl: " << path
              << ": git provenance is 'unknown' (expect_git=1)";
    return 1;
  }
  std::string hidden;
  for (const std::size_t width : h.hidden) {
    hidden += (hidden.empty() ? "" : " ") + std::to_string(width);
  }
  std::cout << rl::policy_fingerprint(blob) << "  " << path << "  # obs "
            << h.obs << " actions " << h.actions << " hidden "
            << (hidden.empty() ? "-" : hidden) << " " << h.activation << "/"
            << h.head << " scenario "
            << (h.scenario_hash.empty() ? "-" : h.scenario_hash) << " git "
            << (h.git.empty() ? "unknown" : h.git) << "\n";
  return 0;
}

int cmd_run(const util::Config& cfg) {
  const std::string path = cfg.get("file", std::string());
  if (path.empty()) return usage();
  obs::ObsSession session(obs::ObsOptions::from_config(cfg));
  scenario::Scenario s = scenario::ScenarioReader::read_file(path);
  s.cycle_limit = cfg.get("cycle_limit", s.cycle_limit);
  s.duration = cfg.get("duration", s.duration);
  s.net.seed = cfg.get("seed", s.net.seed);
  // Fault overrides tweak (or switch on) the [faults] section; the merged
  // parameters are validated with the rest of the scenario.
  s.faults = noc::FaultParams::from_config(cfg, s.faults);
  if (s.controller.scheduled()) {
    // Scheduled runs are fixed-length evaluations; their knobs are the
    // schedule's, not the drain-run horizon.
    s.controller.epoch_cycles =
        cfg.get("epoch_cycles", s.controller.epoch_cycles);
    if (s.controller.epoch_cycles == 0) {
      LOG_ERROR << "scenarioctl: epoch_cycles must be > 0";
      return 2;
    }
    s.controller.epochs = cfg.get("epochs", s.controller.epochs);
    s.controller.policy_pin = cfg.get("pin", s.controller.policy_pin);
    s.validate();  // overrides may have broken the schedule
    const int rc = run_with_schedule(s, session);
    if (!session.finish() && rc == 0) return 1;
    return rc;
  }
  // run_scenario validates first: overrides may have broken the horizon
  // invariant.
  session.annotate_scenario(s);
  const noc::RunResult r = scenario::run_scenario(
      s, session.recorder(), session.metrics(s.net.width * s.net.height));
  std::cout << "ran '" << s.name << "' on " << s.net.topology << " "
            << s.net.width << "x" << s.net.height << ": "
            << r.cycles << " router cycles, "
            << util::fmt(r.stats.core_cycles, 0) << " core cycles"
            << (r.completed ? "" : "  [HIT CYCLE LIMIT]") << "\n\n";

  util::Table agg({"metric", "value"});
  agg.row().cell("packets").cell(
      static_cast<long long>(r.stats.packets_received));
  agg.row().cell("avg_latency").cell(r.stats.avg_latency, 2);
  agg.row().cell("p95_latency").cell(r.stats.p95_latency, 2);
  agg.row().cell("avg_hops").cell(r.stats.avg_hops, 2);
  agg.row().cell("energy_pJ").cell(r.stats.total_energy_pj(), 1);
  if (s.faults.enabled()) {
    agg.row().cell("flits_dropped").cell(
        static_cast<long long>(r.stats.flits_dropped));
    agg.row().cell("retries").cell(static_cast<long long>(r.stats.retries));
    agg.row().cell("packets_lost").cell(
        static_cast<long long>(r.stats.packets_lost));
    agg.row().cell("rerouted_hops").cell(
        static_cast<long long>(r.stats.rerouted_hops));
  }
  agg.print(std::cout);

  std::cout << "\nper-tenant:\n";
  util::Table tab({"tenant", "offered", "delivered", "flits", "avg_lat",
                   "p95_lat", "thru(pkt/node/cyc)", "energy_pJ"});
  for (const scenario::TenantReport& t :
       scenario::tenant_reports(s, r.stats)) {
    tab.row()
        .cell(t.name)
        .cell(static_cast<long long>(t.packets_offered))
        .cell(static_cast<long long>(t.packets_received))
        .cell(static_cast<long long>(t.flits_ejected))
        .cell(t.avg_latency, 2)
        .cell(t.p95_latency, 2)
        .cell(t.throughput, 5)
        .cell(t.energy_share_pj, 1);
  }
  tab.print(std::cout);
  const bool obs_ok = session.finish();
  return r.completed && obs_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run_main(argc, argv, "scenarioctl", kUsage, help,
                       {{"validate", cmd_validate},
                        {"describe", cmd_describe},
                        {"run", cmd_run},
                        {"train", cmd_train},
                        {"policy", cmd_policy}});
}
