// T8: fleet evaluation — controllers compared not on one scenario but
// across a generated scenario *space*: a churned multi-tenant base swept
// over background load, churn intensity and fault severity, with seed
// replicas (src/fleet/). Each controller runs the whole fleet through the
// sharded/resumable harness and is judged by the scorecard: per-class SLO
// hit rates, power, and the worst-case scenario it produced. Expected
// shape: the DRL policy (trained on one corner of the space, aggregate
// features) degrades gracefully toward the heuristic as churn and faults
// move the fleet away from its training point, while static-max buys its
// SLO hit rate with the highest power.
//
// The bench writes its base scenario + `.drlfs` spec under workdir= (so the
// same artifacts replay via fleetctl), fleets every controller into one
// shared results directory (result keys disambiguate), and emits the
// comparison as TABLE8 JSON via bench/bench_json.h. `--smoke` shrinks the
// space for CI. Results are bit-identical at any --jobs value.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "fleet/fleet.h"
#include "fleet/scenario_space.h"
#include "fleet/scorecard.h"
#include "util/cli.h"
#include "util/config.h"
#include "util/log.h"
#include "util/versioned_text.h"

using namespace drlnoc;

namespace {

std::string base_scenario_text(int size, bool smoke) {
  std::ostringstream os;
  os << "drlsc 1\n"
     << "name = fleet_base\n"
     << "topology = mesh\n"
     << "width = " << size << "\n"
     << "height = " << size << "\n"
     << "seed = 7\n"
     << "duration = " << (smoke ? 20000 : 60000) << "\n"
     << "tenants = 2\n"
     << "tenant0.name = critical\n"
     << "tenant0.workload = steady\n"
     << "tenant0.pattern = uniform\n"
     << "tenant0.rate = 0.02\n"
     << "tenant0.qos = latency_critical\n"
     << "tenant0.p95_target = 300\n"
     << "tenant1.name = background\n"
     << "tenant1.workload = steady\n"
     << "tenant1.pattern = uniform\n"
     << "tenant1.rate = 0.04\n"
     << "tenant1.qos = background\n"
     << "\n[churn]\n"
     << "seed = 11\n"
     << "arrival_rate = 0.0001\n"
     << "capacity = 3\n"
     << "max_arrivals = 64\n"
     << "templates = 1\n"
     << "template0.tenant = 1\n"
     << "template0.lifetime = exponential\n"
     << "template0.lifetime_mean = " << (smoke ? 4000 : 8000) << "\n";
  return os.str();
}

std::string spec_text(bool smoke) {
  std::ostringstream os;
  os << "drlfs 1\n"
     << "name = table8\n"
     << "base = base.drlsc\n"
     << "seeds = " << (smoke ? 2 : 3) << "\n";
  if (smoke) {
    os << "axes = 1\n"
       << "axis0.key = tenant1.rate\n"
       << "axis0.values = 0.03,0.06\n";
  } else {
    os << "axes = 3\n"
       << "axis0.key = tenant1.rate\n"
       << "axis0.values = 0.03,0.06\n"
       << "axis1.key = churn.arrival_rate\n"
       << "axis1.values = 0.00005,0.0002\n"
       << "axis2.key = faults.link_fault_rate\n"
       << "axis2.values = 0,0.0005\n";
  }
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("table8: cannot write " + path);
  os << text;
}

}  // namespace

int run(const util::Config& cfg) {
  const bool smoke = cfg.get("smoke", false);

  const int size = cfg.get("size", smoke ? 4 : 8);
  const int episodes = cfg.get("episodes", smoke ? 2 : 40);
  const int epochs = cfg.get("epochs", smoke ? 4 : 24);
  const std::uint64_t epoch_cycles =
      cfg.get("epoch_cycles", std::uint64_t{smoke ? 256u : 512u});
  const std::string workdir = cfg.get("workdir", std::string("table8_work"));
  const core::ExperimentRunner runner(cfg.get("jobs", 0));
  const std::string out_path = cfg.get("out", std::string());
  util::reject_unknown_args(cfg);

  std::filesystem::create_directories(workdir);
  write_file(workdir + "/base.drlsc", base_scenario_text(size, smoke));
  write_file(workdir + "/table8.drlfs", spec_text(smoke));
  const fleet::ScenarioSpace space =
      fleet::ScenarioSpaceReader::read_file(workdir + "/table8.drlfs");

  std::cout << "T8: fleet evaluation (mesh " << size << "x" << size << "; "
            << space.size() << " scenarios = " << space.seeds
            << " seeds x " << (space.size() / space.seeds)
            << " axis points; " << epochs << " epochs x " << epoch_cycles
            << " cycles per scenario; jobs = " << runner.jobs() << ")\n\n";

  // Train the DRL entry on one corner of the space (index 0) with the
  // aggregate feature set — churn varies the tenant population across the
  // fleet, so per-tenant QoS features would change the state size from
  // scenario to scenario and no single policy could span them.
  const fleet::ExpandedScenario train_point = space.expand(0);
  core::NocEnvParams train_ep;
  train_ep.scenario =
      std::make_shared<scenario::Scenario>(train_point.scenario);
  train_ep.net.seed = train_point.scenario.net.seed;
  train_ep.scenario_qos = false;
  train_ep.epoch_cycles = epoch_cycles;
  train_ep.epochs_per_episode = epochs;
  core::NocConfigEnv train_env(train_ep);
  auto agent = bench::train_agent(train_env, episodes);
  const std::string policy_path = workdir + "/table8.policy";
  {
    std::ofstream out(policy_path, std::ios::binary);
    if (!out) {
      LOG_ERROR << "table8: cannot write " << policy_path;
      return 1;
    }
    agent->save(out);
  }

  struct Entry {
    std::string controller;
    fleet::Scorecard card;
  };
  std::vector<Entry> entries;
  for (const std::string& controller :
       {std::string("drl"), std::string("heuristic"),
        std::string("static-max"), std::string("static-min")}) {
    fleet::FleetParams fp;
    fp.controller = controller;
    if (controller == "drl") {
      fp.policy_file = policy_path;
      fp.policy_blob = util::read_file_bytes(policy_path).value_or("");
    }
    fp.epochs = epochs;
    fp.epoch_cycles = epoch_cycles;
    fp.results_dir = workdir + "/results";
    const fleet::FleetRunOutcome outcome =
        fleet::run_fleet(space, fp, runner);
    const fleet::Scorecard card = fleet::score_fleet(
        fleet::load_results(space, fp), space.size(), space.name, 1);
    std::cout << "fleet[" << controller << "]: ran " << outcome.ran
              << ", resumed past " << outcome.skipped << "\n";
    entries.push_back({controller, card});
  }
  std::cout << "\n";

  util::Table tab({"controller", "slo_hit(crit)", "worst_slo", "p95_mean",
                   "power_mW", "dropped", "worst scenario"});
  std::vector<std::pair<std::string, double>> metrics;
  for (const Entry& e : entries) {
    const auto it = e.card.classes.find("latency_critical");
    const fleet::ClassScore cls =
        it == e.card.classes.end() ? fleet::ClassScore{} : it->second;
    tab.row()
        .cell(e.controller)
        .cell(util::fmt(100.0 * cls.slo_hit_rate, 1) + "%")
        .cell(util::fmt(100.0 * cls.worst_slo_hit_rate, 1) + "%")
        .cell(cls.p95_mean, 1)
        .cell(e.card.power_mw.mean, 1)
        .cell(static_cast<long long>(e.card.flits_dropped))
        .cell(e.card.worst.empty() ? std::string("-")
                                   : e.card.worst.front().label);
    metrics.emplace_back(e.controller + ".slo_hit_rate", cls.slo_hit_rate);
    metrics.emplace_back(e.controller + ".worst_slo_hit_rate",
                         cls.worst_slo_hit_rate);
    metrics.emplace_back(e.controller + ".p95_mean", cls.p95_mean);
    metrics.emplace_back(e.controller + ".p95_p95", cls.p95_p95);
    metrics.emplace_back(e.controller + ".power_mw", e.card.power_mw.mean);
    metrics.emplace_back(e.controller + ".reward", e.card.reward.mean);
  }
  tab.print(std::cout);
  std::cout << "\nshape check: static-max holds the best SLO hit rate at the "
               "highest power; the DRL policy and the heuristic trade a few "
               "SLO points for power, and the gap to static-max widens on "
               "the churned/faulted corners (the worst-scenario column).\n";

  if (!out_path.empty()) {
    if (!bench::write_metrics_file(out_path, "table8_fleet", metrics,
                                   "mixed (SLO hit fraction, core-cycle "
                                   "latency, mW)")) {
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}

int main(int argc, char** argv) { return util::run_cli(argc, argv, run); }
