// T7: graceful degradation under deterministic fault injection — DRL
// (trained on the healthy fabric) vs the heuristic ladder vs static-max,
// all evaluated on the same two-tenant scenario under escalating fault
// severity: healthy, then rising transient link-fault rates, then a
// permanent link death on top. Reported per tenant: SLO hit rate and
// delivered throughput *retention* (throughput at this severity / the same
// controller's healthy throughput), plus fabric-level retry/loss/reroute
// accounting. Expected shape: every controller's retention decays with the
// fault rate, retries absorb transient corruption (packets_lost stays ~0
// until budgets exhaust), and the permanent-link level shows nonzero
// rerouted_hops with throughput largely retained.
//
// Replication fans out over the experiment engine; results (including the
// emitted JSON) are bit-identical at any --jobs value. `--smoke` shrinks
// everything for CI; `out=FILE.json` dumps the metrics via
// bench/bench_json.h.
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "noc/faults.h"
#include "scenario/scenario.h"
#include "util/config.h"

using namespace drlnoc;

namespace {

/// One severity step of the escalation: a label plus the fault model that
/// every controller is evaluated under at that step.
struct FaultLevel {
  std::string name;
  noc::FaultParams faults;
};

/// Escalation ladder: healthy -> transient-low -> transient-high ->
/// transient-high plus one permanent east link death near the fabric
/// centre. The permanent level exercises minimal-path rerouting on top of
/// the retry machinery. All levels share one fault seed so severity is the
/// only variable.
std::vector<FaultLevel> fault_levels(int size, double low, double high) {
  std::vector<FaultLevel> levels;
  levels.push_back({"healthy", {}});

  noc::FaultParams base;
  base.seed = 1009;
  base.retry_timeout = 32;
  base.retry_backoff = 2.0;
  base.retry_budget = 4;

  noc::FaultParams f = base;
  f.link_fault_rate = low;
  levels.push_back({"transient-low", f});

  f = base;
  f.link_fault_rate = high;
  levels.push_back({"transient-high", f});

  f = base;
  f.link_fault_rate = high;
  noc::FaultEvent dead;
  dead.kind = noc::FaultEvent::Kind::kLinkDown;
  dead.at_cycle = 0;
  dead.node = size + 1;  // (1,1): interior for size >= 3, east link exists
  dead.port = 1;         // kEast
  f.events.push_back(dead);
  levels.push_back({"link-dead", f});
  return levels;
}

struct FaultTotals {
  double retries = 0.0;        ///< mean per replica
  double packets_lost = 0.0;   ///< mean per replica
  double rerouted_hops = 0.0;  ///< mean per replica
};

FaultTotals fault_totals(const core::ReplicationResult& rep) {
  FaultTotals ft;
  if (rep.replicas.empty()) return ft;
  for (const core::Replica& r : rep.replicas) {
    ft.retries += static_cast<double>(r.result.retries);
    ft.packets_lost += static_cast<double>(r.result.packets_lost);
    ft.rerouted_hops += static_cast<double>(r.result.rerouted_hops);
  }
  const auto n = static_cast<double>(rep.replicas.size());
  ft.retries /= n;
  ft.packets_lost /= n;
  ft.rerouted_hops /= n;
  return ft;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Config cfg = bench::bench_config(argc, argv);
  const bool smoke = cfg.get("smoke", false);

  const int size = cfg.get("size", smoke ? 4 : 8);
  const int episodes = cfg.get("episodes", smoke ? 2 : 60);
  const int replicas = cfg.get("replicas", smoke ? 2 : 8);
  const double critical_rate = cfg.get("critical_rate", 0.03);
  const double bg_rate = cfg.get("bg_rate", 0.05);
  const double p95_target = cfg.get("p95_target", smoke ? 200.0 : 150.0);
  const double rate_low = cfg.get("fault_rate_low", 0.002);
  const double rate_high = cfg.get("fault_rate_high", 0.01);
  const core::ExperimentRunner runner = bench::runner_from(cfg);

  // --- the scenario: latency-critical service + background sweep ----------
  // Both tenants are steady injectors; faults are the experiment's only
  // source of disturbance, so throughput retention isolates degradation.
  auto s = std::make_shared<scenario::Scenario>();
  s->name = "faults_service_vs_background";
  s->net.width = s->net.height = size;
  s->net.seed = 42;
  {
    scenario::TenantSpec svc;
    svc.name = "service";
    svc.kind = scenario::WorkloadKind::kSteady;
    svc.pattern = "uniform";
    svc.rate = critical_rate;
    svc.qos = scenario::QosClass::kLatencyCritical;
    svc.p95_target = p95_target;
    s->tenants.push_back(std::move(svc));

    scenario::TenantSpec bg;
    bg.name = "background";
    bg.kind = scenario::WorkloadKind::kSteady;
    bg.pattern = "uniform";
    bg.rate = bg_rate;
    bg.qos = scenario::QosClass::kBackground;
    s->tenants.push_back(std::move(bg));
  }
  s->duration = 1e6;  // horizon for standalone runs; episodes bound RL use

  core::NocEnvParams ep;
  ep.scenario = s;
  ep.net.seed = s->net.seed;  // base of the per-replica seed stream
  ep.epoch_cycles = smoke ? 256 : 512;
  ep.epochs_per_episode = smoke ? 4 : 32;
  core::NocConfigEnv env(ep);

  const std::vector<FaultLevel> levels =
      fault_levels(size, rate_low, rate_high);

  std::cout << "T7: graceful degradation under faults (mesh " << size << "x"
            << size << "; service @" << critical_rate
            << " latency_critical p95<=" << p95_target
            << " + uniform background @" << bg_rate
            << "; transient rates " << rate_low << "/" << rate_high
            << ", link-dead node " << size + 1 << " east"
            << "; power_ref = " << env.power_ref_mw()
            << " mW; jobs = " << runner.jobs() << ")\n\n";

  // DRL trains once, on the healthy fabric — the fault levels then probe
  // how the frozen policy degrades, mirroring deployment (faults are not
  // in the training distribution).
  auto agent = bench::train_agent(env, episodes);

  struct Cell {
    std::string controller;
    std::string level;
    std::vector<core::TenantReplication> tenants;
    FaultTotals faults;
    double power_mw = 0.0;
  };
  std::vector<Cell> cells;

  const std::vector<std::string> controllers = {"drl", "heuristic",
                                                "static-max"};
  for (const FaultLevel& level : levels) {
    // Every controller at one severity shares one faulted scenario copy;
    // env construction re-validates it against the topology.
    auto sf = std::make_shared<scenario::Scenario>(*s);
    sf->faults = level.faults;
    core::NocEnvParams rep_ep = ep;
    rep_ep.scenario = sf;
    rep_ep.reward.power_ref_mw = env.power_ref_mw();

    for (const std::string& name : controllers) {
      const core::ReplicationResult rep = core::evaluate_many(
          rep_ep,
          bench::controller_factory(name, size * size, &agent->policy()),
          replicas, runner);
      Cell cell;
      cell.controller = name;
      cell.level = level.name;
      cell.tenants = rep.tenants;
      cell.faults = fault_totals(rep);
      cell.power_mw = rep.power_mw.mean;
      cells.push_back(std::move(cell));
    }
  }

  // Throughput retention: this cell's per-tenant delivered throughput over
  // the same controller's healthy-level throughput (1.0 at "healthy" by
  // construction; < 1 as faults bite).
  auto healthy_thru = [&](const std::string& controller, std::size_t t) {
    for (const Cell& c : cells) {
      if (c.controller == controller && c.level == "healthy") {
        return c.tenants[t].throughput.mean;
      }
    }
    return 0.0;
  };

  std::cout << "per-tenant metrics over " << replicas
            << " traffic seeds (mean +/- 95% CI):\n";
  util::Table tab({"level", "controller", "tenant", "slo_hit", "ci95", "p95",
                   "thru(pkt/node/cyc)", "retention", "retries", "lost",
                   "rerouted"});
  std::vector<std::pair<std::string, double>> metrics;
  for (const Cell& c : cells) {
    for (std::size_t t = 0; t < s->tenants.size(); ++t) {
      const bool critical = s->tenants[t].p95_target > 0.0;
      const double base = healthy_thru(c.controller, t);
      const double retention =
          base > 0.0 ? c.tenants[t].throughput.mean / base : 0.0;
      tab.row()
          .cell(c.level)
          .cell(c.controller)
          .cell(s->tenants[t].name)
          .cell(critical
                    ? util::fmt(100.0 * c.tenants[t].slo_hit_rate.mean, 1) +
                          "%"
                    : std::string("-"))
          .cell(critical
                    ? util::fmt(100.0 * c.tenants[t].slo_hit_rate.ci95, 1)
                    : std::string())
          .cell(c.tenants[t].p95.mean, 1)
          .cell(c.tenants[t].throughput.mean, 5)
          .cell(util::fmt(100.0 * retention, 1) + "%")
          .cell(t == 0 ? util::fmt(c.faults.retries, 1) : std::string())
          .cell(t == 0 ? util::fmt(c.faults.packets_lost, 1) : std::string())
          .cell(t == 0 ? util::fmt(c.faults.rerouted_hops, 1)
                       : std::string());
      const std::string key =
          c.level + "." + c.controller + "." + s->tenants[t].name;
      metrics.emplace_back(key + ".slo_hit_rate",
                           c.tenants[t].slo_hit_rate.mean);
      metrics.emplace_back(key + ".slo_hit_rate_ci95",
                           c.tenants[t].slo_hit_rate.ci95);
      metrics.emplace_back(key + ".p95", c.tenants[t].p95.mean);
      metrics.emplace_back(key + ".throughput",
                           c.tenants[t].throughput.mean);
      metrics.emplace_back(key + ".throughput_ci95",
                           c.tenants[t].throughput.ci95);
      metrics.emplace_back(key + ".retention", retention);
    }
    const std::string key = c.level + "." + c.controller;
    metrics.emplace_back(key + ".retries", c.faults.retries);
    metrics.emplace_back(key + ".packets_lost", c.faults.packets_lost);
    metrics.emplace_back(key + ".rerouted_hops", c.faults.rerouted_hops);
    metrics.emplace_back(key + ".power_mw", c.power_mw);
  }
  tab.print(std::cout);
  std::cout << "\nshape check: retention decays with the transient rate for "
               "every controller while retries absorb the corruption "
               "(packets_lost ~0 until budgets exhaust); the link-dead "
               "level adds nonzero rerouted_hops with throughput largely "
               "retained.\n";

  const std::string out_path = cfg.get("out", std::string());
  if (!out_path.empty()) {
    if (!bench::write_metrics_file(out_path, "table7_faults", metrics,
                                   "mixed (SLO hit fraction, core-cycle "
                                   "latency, pkt/node/cycle throughput, "
                                   "retention fraction, mean per-replica "
                                   "fault counts, mW)")) {
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
  }
  // Optional observability pass at the worst severity (after the measured
  // comparisons, so every table cell above is observer-free).
  scenario::Scenario traced = *s;
  traced.faults = levels.back().faults;
  return bench::maybe_traced_run(cfg, traced) ? 0 : 1;
}
