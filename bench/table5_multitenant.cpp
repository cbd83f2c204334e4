// T5: multi-tenant interference — DRL vs static controllers on a scenario
// mixing a dependency-gated DNN-pipeline trace tenant with synthetic
// background traffic on one fabric. Expected shape: under interference the
// DRL controller holds the trace tenant's latency closer to its
// no-background level than static-min/static-max do, at lower energy than
// static-max; per-tenant metrics make the victim/aggressor split visible.
//
// Replication fans out over the experiment engine; results (including the
// emitted JSON) are bit-identical at any --jobs value. `--smoke` shrinks
// everything for CI; `out=FILE.json` dumps per-tenant metrics via
// bench/bench_json.h.
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "util/cli.h"
#include "util/config.h"

using namespace drlnoc;

int run(const util::Config& cfg) {
  const bool smoke = cfg.get("smoke", false);

  const int size = cfg.get("size", smoke ? 4 : 8);
  const int episodes = cfg.get("episodes", smoke ? 2 : 80);
  const int replicas = cfg.get("replicas", smoke ? 2 : 8);
  const double bg_rate = cfg.get("bg_rate", 0.04);
  const double rate_scale = cfg.get("rate_scale", 1.0);
  const core::ExperimentRunner runner(cfg.get("jobs", 0));
  const std::string out_path = cfg.get("out", std::string());
  const obs::ObsOptions obs_options = obs::ObsOptions::from_config(cfg);
  util::reject_unknown_args(cfg);

  // --- the scenario: a 16-endpoint DNN pipeline + fabric-wide background ---
  const core::NocEnvParams ep = bench::dnn_background_env(
      {.size = size, .smoke = smoke, .rate_scale = rate_scale,
       .bg_rate = bg_rate});
  const scenario::Scenario& s = *ep.scenario;
  core::NocConfigEnv env(ep);

  std::cout << "T5: multi-tenant interference (mesh " << size << "x" << size
            << "; dnn trace on nodes 0-15 x" << rate_scale
            << " + uniform background @" << bg_rate
            << "; power_ref = " << env.power_ref_mw()
            << " mW; jobs = " << runner.jobs() << ")\n\n";

  auto agent = bench::train_agent(env, episodes);

  // --- replication: frozen policies vs statics across traffic seeds -------
  core::NocEnvParams rep = ep;
  rep.reward.power_ref_mw = env.power_ref_mw();  // comparable across seeds

  struct Entry {
    std::string name;
    core::ReplicationResult rep;
  };
  std::vector<Entry> entries;
  for (const std::string name :
       {"drl", "heuristic", "static-max", "static-min"}) {
    entries.push_back(
        {name, core::evaluate_many(rep,
                                   bench::controller_factory(
                                       name, size * size, &agent->policy()),
                                   replicas, runner)});
  }

  std::cout << "per-tenant metrics over " << replicas
            << " traffic seeds (mean +/- 95% CI):\n";
  util::Table tab({"controller", "tenant", "latency", "ci95", "p95", "ci95",
                   "thru(pkt/node/cyc)", "ci95", "reward"});
  std::vector<std::pair<std::string, double>> metrics;
  for (const Entry& e : entries) {
    const std::vector<core::TenantReplication>& cis = e.rep.tenants;
    for (std::size_t t = 0; t < cis.size(); ++t) {
      tab.row()
          .cell(e.name)
          .cell(s.tenants[t].name)
          .cell(cis[t].latency.mean, 2)
          .cell(cis[t].latency.ci95, 2)
          .cell(cis[t].p95.mean, 1)
          .cell(cis[t].p95.ci95, 1)
          .cell(cis[t].throughput.mean, 5)
          .cell(cis[t].throughput.ci95, 5)
          .cell(t == 0 ? util::fmt(e.rep.reward.mean, 2) : std::string());
      const std::string key = e.name + "." + s.tenants[t].name;
      metrics.emplace_back(key + ".latency", cis[t].latency.mean);
      metrics.emplace_back(key + ".latency_ci95", cis[t].latency.ci95);
      metrics.emplace_back(key + ".p95", cis[t].p95.mean);
      metrics.emplace_back(key + ".throughput", cis[t].throughput.mean);
      metrics.emplace_back(key + ".throughput_ci95", cis[t].throughput.ci95);
    }
    metrics.emplace_back(e.name + ".reward", e.rep.reward.mean);
    metrics.emplace_back(e.name + ".power_mw", e.rep.power_mw.mean);
  }
  tab.print(std::cout);
  std::cout << "\nshape check: the background tenant's load bleeds into the "
               "dnn tenant's latency; DRL rides the interference with less "
               "victim-latency inflation than static-min and less power "
               "than static-max.\n";

  if (!out_path.empty()) {
    if (!bench::write_metrics_file(out_path, "table5_multitenant", metrics,
                                   "mixed (core-cycle latency, pkt/node/cycle "
                                   "throughput, mW)")) {
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
  }
  // Optional observability pass (after the measured comparisons, so every
  // table cell above is observer-free).
  return bench::maybe_traced_run(obs_options, s) ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_cli(argc, argv, run); }
