// fleetctl: generate, describe, run, resume, and score `.drlfs` scenario
// fleets (src/fleet/).
//
//   fleetctl describe spec=sweep.drlfs
//   fleetctl generate spec=sweep.drlfs out=DIR [count=N]
//   fleetctl run      spec=sweep.drlfs results=DIR [controller=...] ...
//   fleetctl resume   (alias of run — completed scenarios are skipped)
//   fleetctl score    spec=sweep.drlfs results=DIR out=scorecard.json ...
//
// A fleet run is sharded (shard=/shards=) and resumable: every scenario
// writes its own result file keyed by a content hash of (spec, index,
// controller, policy, schedule), so re-running after a kill — or running
// `resume` — skips completed work. `score` aggregates ALL result files into
// the scorecard JSON; the controller flags must match the run so the result
// keys agree.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "fleet/fleet.h"
#include "fleet/scenario_space.h"
#include "fleet/scorecard.h"
#include "obs/session.h"
#include "rl/policy_io.h"
#include "scenario/scenario_io.h"
#include "util/config.h"
#include "util/log.h"
#include "util/table.h"
#include "util/versioned_text.h"

using namespace drlnoc;

namespace {

constexpr const char* kUsage =
    "usage: fleetctl <describe|generate|run|resume|score> spec=X "
    "[key=value...]\n"
    "  describe spec=X\n"
    "  generate spec=X out=DIR [count=N]\n"
    "  run      spec=X results=DIR [controller=heuristic|static-max|\n"
    "           static-min|drl] [policy=FILE] [policy_pin=HEX16]\n"
    "           [epochs=N] [epoch_cycles=N]\n"
    "           [qos_features=0|1] [shard=I] [shards=N] [jobs=J]\n"
    "  resume   (alias of run; completed scenarios are skipped)\n"
    "  score    spec=X results=DIR out=FILE [worst=K] [--metrics-out=DIR]\n"
    "           plus the same controller flags as run (keys must match)\n"
    "Common: [--log=debug|info|warn|error|off] (or DRLNOC_LOG env var).\n"
    "Pass --help after a subcommand for details; the .drlfs format is\n"
    "specified in docs/FORMATS.md.\n";

int usage() {
  std::cerr << kUsage;
  return 2;
}

int help(const std::string& command) {
  if (command == "describe") {
    std::cout
        << "fleetctl describe spec=X\n"
           "Parse a .drlfs scenario-space spec (and its base scenario) and\n"
           "print the sweep axes, seed replicas, and total point count,\n"
           "plus the first few expanded point labels.\n";
  } else if (command == "generate") {
    std::cout
        << "fleetctl generate spec=X out=DIR [count=N]\n"
           "Expand the first N points (default 8) of the space into\n"
           "standalone .drlsc files under DIR, for inspection or for\n"
           "running individually with scenarioctl. Every point is always\n"
           "reproducible from (spec, index) alone; generated files are a\n"
           "convenience, not the source of truth.\n";
  } else if (command == "run" || command == "resume") {
    std::cout
        << "fleetctl run spec=X results=DIR [controller=...] [policy=FILE]\n"
           "            [policy_pin=HEX16] [epochs=N] [epoch_cycles=N]\n"
           "            [qos_features=0|1] [shard=I] [shards=N] [jobs=J]\n"
           "Evaluate the controller across this shard's slice of the\n"
           "space (index % shards == shard), one result file per scenario\n"
           "under DIR, in parallel across J jobs (results bit-identical at\n"
           "any J). Scenarios whose result file already exists are skipped,\n"
           "so a killed run resumes where it stopped — `resume` is the\n"
           "same command under the honest name. controller=drl requires\n"
           "policy=FILE (a DqnAgent::save artifact); policy_pin=HEX16\n"
           "refuses to run unless the policy's fingerprint (printed by\n"
           "scenarioctl train and by this command) matches, and every\n"
           "result file records the served version as policy_version=.\n"
           "qos_features=1 uses per-tenant QoS feature slices (the state\n"
           "size then depends on the tenant count — only for policies\n"
           "trained that way).\n";
  } else if (command == "score") {
    std::cout
        << "fleetctl score spec=X results=DIR out=FILE [worst=K]\n"
           "              [--metrics-out=DIR] [controller flags as in run]\n"
           "Aggregate every result file of the space into the scorecard\n"
           "JSON: per-QoS-class SLO hit rates and p95 distributions,\n"
           "aggregate metric summaries, degradation counters, and the\n"
           "worst-K scenarios by tenant SLO hit rate, named. The\n"
           "controller flags must match the run's so the result keys\n"
           "agree. With --metrics-out=DIR the worst-K scenarios are\n"
           "re-run serially with the metrics tap attached, writing\n"
           "per-router heatmap CSVs (worst-<index>_heatmap.csv) under\n"
           "DIR. Exit 0 when every point was scored, 3 when some results\n"
           "are missing (scorecard still written).\n";
  } else {
    std::cout << kUsage;
  }
  return 0;
}

bool wants_help(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") return true;
  }
  return false;
}

fleet::ScenarioSpace load_space(const util::Config& cfg) {
  const std::string path = cfg.get("spec", std::string());
  if (path.empty()) {
    throw std::invalid_argument("fleetctl: spec=<file.drlfs> is required");
  }
  return fleet::ScenarioSpaceReader::read_file(path);
}

fleet::FleetParams params_from(const util::Config& cfg) {
  fleet::FleetParams p;
  p.controller = cfg.get("controller", p.controller);
  p.policy_file = cfg.get("policy", std::string());
  if (!p.policy_file.empty()) {
    std::optional<std::string> blob = util::read_file_bytes(p.policy_file);
    if (!blob) {
      throw std::invalid_argument("fleetctl: cannot open policy file " +
                                  p.policy_file);
    }
    p.policy_blob = std::move(*blob);
  }
  p.policy_pin = cfg.get("policy_pin", std::string());
  const long long cycles =
      cfg.get("epoch_cycles", static_cast<long long>(p.epoch_cycles));
  if (cycles <= 0) {
    throw std::invalid_argument("fleetctl: epoch_cycles must be > 0");
  }
  p.epoch_cycles = static_cast<std::uint64_t>(cycles);
  p.epochs = cfg.get("epochs", p.epochs);
  p.qos_features = cfg.get("qos_features", p.qos_features);
  p.results_dir = cfg.get("results", std::string());
  p.shard = cfg.get("shard", p.shard);
  p.shards = cfg.get("shards", p.shards);
  return p;
}

int cmd_describe(const util::Config& cfg) {
  const fleet::ScenarioSpace space = load_space(cfg);
  std::cout << "fleet spec: " << space.name << "\n"
            << "  base   " << space.base_file << "\n"
            << "  seeds  " << space.seeds << "\n"
            << "  points " << space.size() << "\n";
  if (!space.axes.empty()) {
    std::cout << "\n";
    util::Table tab({"axis", "key", "values"});
    for (std::size_t i = 0; i < space.axes.size(); ++i) {
      const fleet::SpaceAxis& axis = space.axes[i];
      std::string values;
      for (std::size_t k = 0; k < axis.values.size(); ++k) {
        if (k > 0) values += ",";
        values += axis.values[k];
      }
      tab.row().cell(static_cast<long long>(i)).cell(axis.key).cell(values);
    }
    tab.print(std::cout);
  }
  std::cout << "\nfirst points:\n";
  const std::size_t show = std::min<std::size_t>(space.size(), 4);
  for (std::size_t i = 0; i < show; ++i) {
    std::cout << "  " << space.point(i).label << "\n";
  }
  return 0;
}

int cmd_generate(const util::Config& cfg) {
  const fleet::ScenarioSpace space = load_space(cfg);
  const std::string out_dir = cfg.get("out", std::string());
  if (out_dir.empty()) {
    throw std::invalid_argument("fleetctl: out=<dir> is required");
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    throw std::runtime_error("fleetctl: cannot create " + out_dir + ": " +
                             ec.message());
  }
  const std::size_t count = std::min<std::size_t>(
      space.size(), static_cast<std::size_t>(cfg.get("count", 8)));
  for (std::size_t i = 0; i < count; ++i) {
    fleet::ExpandedScenario point = space.expand(i);
    // Generated files sit in out_dir while trace/policy paths in the base
    // stay relative to the base scenario's directory; rewrite them so the
    // generated file loads standalone.
    for (scenario::TenantSpec& t : point.scenario.tenants) {
      if (!t.trace_file.empty() && t.trace_file.front() != '/' &&
          !space.base_dir.empty()) {
        t.trace_file = space.base_dir + "/" + t.trace_file;
      }
    }
    if (!point.scenario.controller.policy_file.empty() &&
        point.scenario.controller.policy_file.front() != '/' &&
        !space.base_dir.empty()) {
      point.scenario.controller.policy_file =
          space.base_dir + "/" + point.scenario.controller.policy_file;
    }
    const std::string path =
        out_dir + "/point-" + std::to_string(i) + ".drlsc";
    scenario::ScenarioWriter::write_file(path, point.scenario);
    std::cout << path << "  # " << point.label << "\n";
  }
  if (count < space.size()) {
    std::cout << "(" << (space.size() - count)
              << " more points not generated; raise count= or expand by "
                 "index with the fleet API)\n";
  }
  return 0;
}

int cmd_run(const util::Config& cfg) {
  const fleet::ScenarioSpace space = load_space(cfg);
  const fleet::FleetParams params = params_from(cfg);
  if (params.controller == "drl") {
    // Say which policy version this fleet serves before any work starts;
    // with policy_pin= a mismatch aborts inside run_fleet's first build.
    std::cout << "policy version "
              << rl::policy_fingerprint(params.policy_blob)
              << (params.policy_pin.empty() ? ""
                                            : " (pinned " + params.policy_pin +
                                                  ")")
              << "\n";
  }
  const core::ExperimentRunner runner(cfg.get("jobs", 0));
  const fleet::FleetRunOutcome outcome =
      fleet::run_fleet(space, params, runner);
  std::cout << "fleet '" << space.name << "': shard " << params.shard << "/"
            << params.shards << " owns " << outcome.owned << " of "
            << space.size() << " scenarios; ran " << outcome.ran
            << ", skipped " << outcome.skipped
            << " already-complete (jobs=" << runner.jobs() << ")\n";
  return 0;
}

int cmd_score(const util::Config& cfg) {
  const fleet::ScenarioSpace space = load_space(cfg);
  const fleet::FleetParams params = params_from(cfg);
  const std::string out_path = cfg.get("out", std::string());
  if (out_path.empty()) {
    throw std::invalid_argument("fleetctl: out=<scorecard.json> is required");
  }
  const std::vector<fleet::FleetScenarioResult> results =
      fleet::load_results(space, params);
  const fleet::Scorecard card = fleet::score_fleet(
      results, space.size(), space.name, cfg.get("worst", 4));
  {
    std::ofstream os(out_path);
    if (!os) {
      throw std::runtime_error("fleetctl: cannot write " + out_path);
    }
    fleet::write_scorecard_json(os, card);
  }
  std::cout << "scored " << card.scored << "/" << card.space_size
            << " scenarios -> " << out_path << "\n";
  for (const fleet::WorstEntry& w : card.worst) {
    std::cout << "  worst: " << w.label << " (min slo "
              << util::fmt(100.0 * w.min_slo_hit_rate, 1) << "%, p95 "
              << util::fmt(w.worst_p95, 1) << ")\n";
  }

  // Worst-k heatmap reruns: serial (the taps are single-threaded), one
  // metrics JSON + per-router heatmap CSV per worst scenario.
  const std::string metrics_dir = cfg.get("metrics-out", std::string());
  if (!metrics_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(metrics_dir, ec);
    if (ec) {
      throw std::runtime_error("fleetctl: cannot create " + metrics_dir +
                               ": " + ec.message());
    }
    for (const fleet::WorstEntry& w : card.worst) {
      obs::ObsOptions opts;
      opts.metrics_out =
          metrics_dir + "/worst-" + std::to_string(w.index) + ".json";
      obs::ObsSession session(opts);
      const fleet::ExpandedScenario point = space.expand(w.index);
      session.annotate_scenario(point.scenario);
      const int nodes =
          point.scenario.net.width * point.scenario.net.height;
      fleet::evaluate_scenario(point, params, session.recorder(),
                               session.metrics(nodes));
      if (!session.finish()) return 1;
      std::cout << "  heatmap: " << obs::heatmap_path_for(opts.metrics_out)
                << "\n";
    }
  }
  return card.missing == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    std::cout << kUsage;
    return 0;
  }
  if (wants_help(argc, argv)) return help(command);
  try {
    // Config::from_args skips its argv[0] slot; shift past the subcommand.
    const util::Config cfg = util::Config::from_args(argc - 1, argv + 1);
    util::init_log(cfg.get("log", std::string()));
    if (command == "describe") return cmd_describe(cfg);
    if (command == "generate") return cmd_generate(cfg);
    if (command == "run" || command == "resume") return cmd_run(cfg);
    if (command == "score") return cmd_score(cfg);
    LOG_ERROR << "fleetctl: unknown command '" << command << "'";
    return usage();
  } catch (const std::exception& e) {
    LOG_ERROR << "fleetctl: " << e.what();
    return 1;
  }
}
