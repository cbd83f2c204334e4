// T6: QoS-aware multi-tenant control — DRL trained on the tenant-aware QoS
// objective (SLO penalty for the latency-critical trace tenant, energy
// credit for throttling background) vs DRL trained on the aggregate
// objective vs static controllers, all evaluated on the same trace +
// background interference scenario. Expected shape: DRL-QoS holds the
// latency-critical tenant's SLO hit rate above DRL-aggregate's (which
// happily trades victim p95 for fabric-wide energy) while spending less
// power than static-max.
//
// Training uses the multi-actor collector (round= is semantic, actors= is
// thread fan-out only) and replication fans out over the experiment engine;
// results (including the emitted JSON) are bit-identical at any
// --jobs/actors= value. `--smoke` shrinks everything for CI; `out=FILE.json`
// dumps per-tenant metrics via bench/bench_json.h.
#include <cmath>
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
  core::MetricSummary slo_hit_rate;
};

std::vector<TenantCi> tenant_cis(const core::ReplicationResult& rep,
                                 std::size_t num_tenants) {
  std::vector<TenantCi> out(num_tenants);
  for (std::size_t t = 0; t < num_tenants; ++t) {
    std::vector<double> lat, p95, thru, slo;
    for (const core::Replica& r : rep.replicas) {
      const core::TenantEpisodeSummary& s = r.result.tenants[t];
      lat.push_back(s.mean_latency);
      p95.push_back(s.p95_latency);
      thru.push_back(s.accepted_rate);
      slo.push_back(s.slo_hit_rate);
    }
    out[t].latency = core::summarize_metric(lat);
    out[t].p95 = core::summarize_metric(p95);
    out[t].throughput = core::summarize_metric(thru);
    out[t].slo_hit_rate = core::summarize_metric(slo);
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
  // Multi-actor training (PR 10): `round` is semantic (part of the
  // experiment definition), `actors` is pure wall-clock fan-out — the table
  // and the emitted JSON are bit-identical at any actors/jobs value.
  const int round = cfg.get("round", 8);
  const int actors = cfg.get("actors", 0);
  const int replicas = cfg.get("replicas", smoke ? 2 : 8);
  const double bg_rate = cfg.get("bg_rate", 0.05);
  const double rate_scale = cfg.get("rate_scale", 1.0);
  const double p95_target = cfg.get("p95_target", smoke ? 200.0 : 300.0);
  const core::ExperimentRunner runner = bench::runner_from(cfg);

  // --- the scenario: latency-critical DNN pipeline + background sweep ------
  auto s = std::make_shared<scenario::Scenario>();
  s->name = "qos_dnn_vs_background";
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
    dnn.qos = scenario::QosClass::kLatencyCritical;
    dnn.p95_target = p95_target;
    s->tenants.push_back(std::move(dnn));

    scenario::TenantSpec bg;
    bg.name = "background";
    bg.kind = scenario::WorkloadKind::kSteady;
    bg.pattern = "uniform";
    bg.rate = bg_rate;
    bg.qos = scenario::QosClass::kBackground;
    s->tenants.push_back(std::move(bg));
  }
  s->duration = 1e6;  // horizon for standalone runs; episodes bound RL use

  // Two training environments over one scenario: the QoS objective (SLO
  // penalty + background energy credit + per-tenant features) and the
  // aggregate ablation (scenario_qos=false ignores the annotations).
  core::NocEnvParams qos_ep;
  qos_ep.scenario = s;
  qos_ep.net.seed = s->net.seed;  // base of the per-replica seed stream
  qos_ep.epoch_cycles = smoke ? 256 : 512;
  qos_ep.epochs_per_episode = smoke ? 4 : 48;
  core::NocEnvParams agg_ep = qos_ep;
  agg_ep.scenario_qos = false;

  core::NocConfigEnv qos_env(qos_ep);
  core::NocConfigEnv agg_env(agg_ep);

  std::cout << "T6: QoS-aware multi-tenant control (mesh " << size << "x"
            << size << "; dnn trace on 0-15 x" << rate_scale
            << " latency_critical p95<=" << p95_target
            << " + uniform background @" << bg_rate
            << "; power_ref = " << qos_env.power_ref_mw()
            << " mW; round = " << round << "; jobs = " << runner.jobs()
            << ")\n\n";

  auto qos_agent = bench::train_agent_parallel(qos_ep, episodes, round, actors);
  auto agg_agent = bench::train_agent_parallel(agg_ep, episodes, round, actors);

  // `save_policy=FILE` persists the QoS-trained policy so a `.drlsc`
  // [controller] block can replay this row via `scenarioctl run`. The
  // checkpoint carries the scenario content hash + building commit, so the
  // replay warns if it serves a different scenario.
  const std::string policy_path = cfg.get("save_policy", std::string());
  if (!policy_path.empty()) {
    std::ofstream out(policy_path, std::ios::binary);
    if (!out) {
      LOG_ERROR << "table6: cannot write " << policy_path;
      return 1;
    }
    rl::PolicyMeta meta;
    meta.scenario_hash = scenario::content_hash_hex(*s);
    meta.git = DRLNOC_GIT_DESCRIBE;
    qos_agent->save(out, meta);
    std::cout << "saved QoS policy to " << policy_path << "\n";
  }

  // --- replication: frozen policies vs statics across traffic seeds -------
  core::NocEnvParams qos_rep = qos_ep;
  qos_rep.reward.power_ref_mw = qos_env.power_ref_mw();
  core::NocEnvParams agg_rep = agg_ep;
  agg_rep.reward.power_ref_mw = agg_env.power_ref_mw();

  struct Entry {
    std::string name;
    core::ReplicationResult rep;
  };
  std::vector<Entry> entries;
  entries.push_back(
      {"drl-qos",
       core::evaluate_many(
           qos_rep,
           [&](const core::NocConfigEnv& e)
               -> std::unique_ptr<core::Controller> {
             auto policy = bench::clone_policy(*qos_agent,
                                               qos_env.state_size(),
                                               qos_env.num_actions());
             return std::make_unique<core::OwningDrlController>(
                 e.actions(), std::move(policy));
           },
           replicas, runner)});
  entries.push_back(
      {"drl-aggregate",
       core::evaluate_many(
           agg_rep,
           [&](const core::NocConfigEnv& e)
               -> std::unique_ptr<core::Controller> {
             auto policy = bench::clone_policy(*agg_agent,
                                               agg_env.state_size(),
                                               agg_env.num_actions());
             return std::make_unique<core::OwningDrlController>(
                 e.actions(), std::move(policy));
           },
           replicas, runner)});
  entries.push_back(
      {"static-max",
       core::evaluate_many(
           qos_rep,
           [](const core::NocConfigEnv& e)
               -> std::unique_ptr<core::Controller> {
             return core::StaticController::maximal(e.actions());
           },
           replicas, runner)});
  entries.push_back(
      {"static-min",
       core::evaluate_many(
           qos_rep,
           [](const core::NocConfigEnv& e)
               -> std::unique_ptr<core::Controller> {
             return core::StaticController::minimal(e.actions());
           },
           replicas, runner)});

  const std::size_t num_tenants = s->tenants.size();
  std::cout << "per-tenant metrics over " << replicas
            << " traffic seeds (mean +/- 95% CI):\n";
  util::Table tab({"controller", "tenant", "slo_hit", "ci95", "p95", "ci95",
                   "latency", "thru(pkt/node/cyc)", "power_mW"});
  std::vector<std::pair<std::string, double>> metrics;
  for (const Entry& e : entries) {
    const std::vector<TenantCi> cis = tenant_cis(e.rep, num_tenants);
    for (std::size_t t = 0; t < num_tenants; ++t) {
      const bool critical = s->tenants[t].p95_target > 0.0;
      tab.row()
          .cell(e.name)
          .cell(s->tenants[t].name)
          .cell(critical ? util::fmt(100.0 * cis[t].slo_hit_rate.mean, 1) + "%"
                         : std::string("-"))
          .cell(critical ? util::fmt(100.0 * cis[t].slo_hit_rate.ci95, 1)
                         : std::string())
          .cell(cis[t].p95.mean, 1)
          .cell(cis[t].p95.ci95, 1)
          .cell(cis[t].latency.mean, 2)
          .cell(cis[t].throughput.mean, 5)
          .cell(t == 0 ? util::fmt(e.rep.power_mw.mean, 1) : std::string());
      const std::string key = e.name + "." + s->tenants[t].name;
      metrics.emplace_back(key + ".slo_hit_rate", cis[t].slo_hit_rate.mean);
      metrics.emplace_back(key + ".slo_hit_rate_ci95",
                           cis[t].slo_hit_rate.ci95);
      metrics.emplace_back(key + ".p95", cis[t].p95.mean);
      metrics.emplace_back(key + ".p95_ci95", cis[t].p95.ci95);
      metrics.emplace_back(key + ".latency", cis[t].latency.mean);
      metrics.emplace_back(key + ".throughput", cis[t].throughput.mean);
    }
    metrics.emplace_back(e.name + ".reward", e.rep.reward.mean);
    metrics.emplace_back(e.name + ".power_mw", e.rep.power_mw.mean);
  }
  tab.print(std::cout);
  std::cout << "\nshape check: DRL-QoS protects the dnn tenant's p95 SLO "
               "under background interference (hit rate toward static-max's) "
               "at lower power than static-max; DRL-aggregate sits between, "
               "trading victim p95 for fabric-wide energy.\n";

  const std::string out_path = cfg.get("out", std::string());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      LOG_ERROR << "table6: cannot write " << out_path;
      return 1;
    }
    bench::write_metrics_json(out, "table6_qos", metrics, {},
                              "mixed (SLO hit fraction, core-cycle latency, "
                              "pkt/node/cycle throughput, mW)");
    std::cout << "wrote " << out_path << "\n";
  }
  // Optional observability pass (after the measured comparisons, so every
  // table cell above is observer-free).
  return bench::maybe_traced_run(cfg, *s) ? 0 : 1;
}
