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
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "scenario/scenario.h"
#include "trace/generators.h"
#include "util/config.h"
#include "util/log.h"

using namespace drlnoc;

namespace {

/// Per-tenant mean + 95% CI over the replicas of one controller.
struct TenantCi {
  core::MetricSummary latency;
  core::MetricSummary p95;
  core::MetricSummary throughput;
};

std::vector<TenantCi> tenant_cis(const core::ReplicationResult& rep,
                                 std::size_t num_tenants) {
  std::vector<TenantCi> out(num_tenants);
  for (std::size_t t = 0; t < num_tenants; ++t) {
    std::vector<double> lat, p95, thru;
    for (const core::Replica& r : rep.replicas) {
      const core::TenantEpisodeSummary& s = r.result.tenants[t];
      lat.push_back(s.mean_latency);
      p95.push_back(s.p95_latency);
      thru.push_back(s.accepted_rate);
    }
    out[t].latency = core::summarize_metric(lat);
    out[t].p95 = core::summarize_metric(p95);
    out[t].throughput = core::summarize_metric(thru);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // `--smoke` is a bare flag (no value); strip it before Config parsing.
  std::vector<const char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    const std::string tok = argv[i];
    if (tok == "--smoke" || tok == "smoke") {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  const util::Config cfg =
      util::Config::from_args(static_cast<int>(args.size()), args.data());
  util::init_log(cfg.get("log", std::string()));

  const int size = cfg.get("size", smoke ? 4 : 8);
  const int episodes = cfg.get("episodes", smoke ? 2 : 80);
  const int replicas = cfg.get("replicas", smoke ? 2 : 8);
  const double bg_rate = cfg.get("bg_rate", 0.04);
  const double rate_scale = cfg.get("rate_scale", 1.0);
  const core::ExperimentRunner runner = bench::runner_from(cfg);

  // --- the scenario: a 16-endpoint DNN pipeline + fabric-wide background ---
  auto s = std::make_shared<scenario::Scenario>();
  s->name = "dnn_plus_background";
  s->net.width = s->net.height = size;
  s->net.seed = 42;
  {
    scenario::TenantSpec dnn;
    dnn.name = "dnn";
    dnn.kind = scenario::WorkloadKind::kTrace;
    trace::DnnPipelineParams dp;
    dp.nodes = 16;
    dp.batches = smoke ? 2 : 4;
    dnn.trace = std::make_shared<const trace::Trace>(
        trace::generate_dnn_pipeline(dp));
    dnn.rate_scale = rate_scale;
    dnn.loop = true;  // RL episodes of any length stay fed
    dnn.nodes = scenario::parse_node_set("0-15", size * size);
    s->tenants.push_back(std::move(dnn));

    scenario::TenantSpec bg;
    bg.name = "background";
    bg.kind = scenario::WorkloadKind::kSteady;
    bg.pattern = "uniform";
    bg.rate = bg_rate;
    s->tenants.push_back(std::move(bg));
  }
  // Horizon for standalone (scenarioctl-style) runs; RL episodes are
  // bounded by epochs_per_episode instead.
  s->duration = 1e6;

  core::NocEnvParams ep;
  ep.scenario = s;
  ep.net.seed = s->net.seed;  // base of the per-replica seed stream
  ep.epoch_cycles = smoke ? 256 : 512;
  ep.epochs_per_episode = smoke ? 4 : 48;
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
  entries.push_back(
      {"drl", core::evaluate_many(
                  rep,
                  [&](const core::NocConfigEnv& e)
                      -> std::unique_ptr<core::Controller> {
                    return std::make_unique<core::DrlController>(
                        e, agent->policy());
                  },
                  replicas, runner)});
  entries.push_back(
      {"heuristic",
       core::evaluate_many(
           rep,
           [&](const core::NocConfigEnv& e)
               -> std::unique_ptr<core::Controller> {
             core::HeuristicParams hp;
             hp.num_nodes = size * size;
             return std::make_unique<core::HeuristicController>(e.actions(),
                                                                hp);
           },
           replicas, runner)});
  entries.push_back(
      {"static-max",
       core::evaluate_many(
           rep,
           [](const core::NocConfigEnv& e)
               -> std::unique_ptr<core::Controller> {
             return core::StaticController::maximal(e.actions());
           },
           replicas, runner)});
  entries.push_back(
      {"static-min",
       core::evaluate_many(
           rep,
           [](const core::NocConfigEnv& e)
               -> std::unique_ptr<core::Controller> {
             return core::StaticController::minimal(e.actions());
           },
           replicas, runner)});

  const std::size_t num_tenants = s->tenants.size();
  std::cout << "per-tenant metrics over " << replicas
            << " traffic seeds (mean +/- 95% CI):\n";
  util::Table tab({"controller", "tenant", "latency", "ci95", "p95", "ci95",
                   "thru(pkt/node/cyc)", "ci95", "reward"});
  std::vector<std::pair<std::string, double>> metrics;
  for (const Entry& e : entries) {
    const std::vector<TenantCi> cis = tenant_cis(e.rep, num_tenants);
    for (std::size_t t = 0; t < num_tenants; ++t) {
      tab.row()
          .cell(e.name)
          .cell(s->tenants[t].name)
          .cell(cis[t].latency.mean, 2)
          .cell(cis[t].latency.ci95, 2)
          .cell(cis[t].p95.mean, 1)
          .cell(cis[t].p95.ci95, 1)
          .cell(cis[t].throughput.mean, 5)
          .cell(cis[t].throughput.ci95, 5)
          .cell(t == 0 ? util::fmt(e.rep.reward.mean, 2) : std::string());
      const std::string key = e.name + "." + s->tenants[t].name;
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

  const std::string out_path = cfg.get("out", std::string());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      LOG_ERROR << "table5: cannot write " << out_path;
      return 1;
    }
    bench::write_metrics_json(out, "table5_multitenant", metrics, {},
                              "mixed (core-cycle latency, pkt/node/cycle "
                              "throughput, mW)");
    std::cout << "wrote " << out_path << "\n";
  }
  // Optional observability pass (after the measured comparisons, so every
  // table cell above is observer-free).
  return bench::maybe_traced_run(cfg, *s) ? 0 : 1;
}
