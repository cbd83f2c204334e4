// Example: exploring the simulator substrate directly — sweep traffic
// patterns on a chosen topology and print latency/throughput/power, without
// any RL involvement. Useful to understand the network the controller rides.
//
//   ./build/examples/traffic_explorer topology=torus size=8 rate=0.08 --jobs 4
//   ./build/examples/traffic_explorer --workload trace=app.drltrc scale=2
//   ./build/examples/traffic_explorer --workload phased=0.8
//   ./build/examples/traffic_explorer --workload scenario=mix.drlsc
//
// Deterministic fault injection rides along on every mode:
//   fault_rate=0.01 fault_seed=7 fault_timeout=64 fault_backoff=2
//   fault_budget=4 fault_link=5:1,9:2   (kill links 5->E and 9->W at cycle 0)
//
// Observability (single-run --workload modes; see docs/OBSERVABILITY.md):
//   --trace-out=trace.json --metrics-out=metrics.json --trace-sample=0.1
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "noc/simulator.h"
#include "obs/session.h"
#include "scenario/runtime.h"
#include "scenario/scenario_io.h"
#include "trace/trace_io.h"
#include "trace/trace_workload.h"
#include "util/config.h"
#include "util/log.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace drlnoc;

namespace {

/// `fault_rate=P fault_seed=S fault_timeout=N fault_backoff=B
/// fault_budget=N fault_link=NODE:PORT`: deterministic fault injection on
/// every explored run. fault_link= kills one directed link at cycle 0 (may
/// repeat as a comma list); the resulting config is validated against the
/// topology before any run starts.
noc::FaultParams fault_params_from(const util::Config& cfg) {
  noc::FaultParams f = noc::FaultParams::from_config(cfg, {});
  std::string links = cfg.get("fault_link", std::string());
  std::size_t start = 0;
  while (start < links.size()) {
    const std::size_t comma = links.find(',', start);
    const std::size_t end = comma == std::string::npos ? links.size() : comma;
    const std::string item = links.substr(start, end - start);
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == item.size()) {
      throw std::invalid_argument("fault_link expects NODE:PORT, got '" +
                                  item + "'");
    }
    noc::FaultEvent ev;
    ev.kind = noc::FaultEvent::Kind::kLinkDown;
    ev.at_cycle = 0;
    ev.node = std::stoi(item.substr(0, colon));
    ev.port = std::stoi(item.substr(colon + 1));
    f.events.push_back(ev);
    start = comma == std::string::npos ? links.size() : comma + 1;
  }
  f.validate();
  return f;
}

/// `--workload trace=<file>`: replay an application trace on the chosen
/// topology, with `scale=` mapped to the rate-scaling knob.
int explore_trace(const noc::NetworkParams& p, const std::string& path,
                  const util::Config& cfg, const noc::FaultParams& faults,
                  obs::ObsSession& session) {
  const auto t =
      std::make_shared<const trace::Trace>(trace::TraceReader::read_file(path));
  if (p.width * p.height < t->nodes) {
    LOG_ERROR << "trace needs " << t->nodes << " nodes, network has "
              << p.width * p.height << " (raise size=)";
    return 1;
  }
  trace::TraceWorkloadParams tw;
  tw.rate_scale = cfg.get("scale", 1.0);
  noc::Network net(p);
  if (faults.enabled()) net.set_fault_model(faults);
  session.attach(net);
  trace::TraceWorkload w(t, tw);
  const std::uint64_t limit =
      cfg.get("cycle_limit", std::uint64_t{2000000});
  const noc::RunResult r = trace::run_trace_replay(net, w, limit);
  util::Table tab({"workload", "avg_lat", "p95_lat", "avg_hops", "packets",
                   "core_cycles", "power_mW", "complete"});
  tab.row()
      .cell(w.name())
      .cell(r.stats.avg_latency, 1)
      .cell(r.stats.p95_latency, 1)
      .cell(r.stats.avg_hops, 2)
      .cell(static_cast<long long>(r.stats.packets_received))
      .cell(r.stats.core_cycles, 0)
      .cell(r.stats.avg_power_mw(2.0), 1)
      .cell(r.completed ? "yes" : "NO");
  tab.print(std::cout);
  std::cout << "\ndependency-gated records inject only after their "
               "predecessors deliver; raise scale= to stress the fabric.\n";
  return r.completed ? 0 : 1;
}

/// `--workload scenario=<file>`: run a multi-tenant `.drlsc` scenario on its
/// own fabric (the scenario carries its topology; size=/topology= flags are
/// ignored) and print aggregate plus per-tenant metrics.
int explore_scenario(const std::string& path, const noc::FaultParams& faults,
                     obs::ObsSession& session) {
  scenario::Scenario s = scenario::ScenarioReader::read_file(path);
  if (faults.enabled()) {
    // Command-line faults replace the scenario's own [faults] section for
    // this run; run_scenario re-validates the merged scenario first.
    s.faults = faults;
  }
  session.annotate_scenario(s);
  const noc::RunResult r = scenario::run_scenario(
      s, session.recorder(), session.metrics(s.net.width * s.net.height));
  std::cout << "scenario '" << s.name << "' on " << s.net.topology << " "
            << s.net.width << "x" << s.net.height
            << (r.completed ? "" : "  [HIT CYCLE LIMIT]") << "\n";
  util::Table tab({"tenant", "offered", "delivered", "avg_lat", "p95_lat",
                   "thru(pkt/node/cyc)", "energy_pJ"});
  for (const scenario::TenantReport& t :
       scenario::tenant_reports(s, r.stats)) {
    tab.row()
        .cell(t.name)
        .cell(static_cast<long long>(t.packets_offered))
        .cell(static_cast<long long>(t.packets_received))
        .cell(t.avg_latency, 1)
        .cell(t.p95_latency, 1)
        .cell(t.throughput, 5)
        .cell(t.energy_share_pj, 1);
  }
  tab.print(std::cout);
  std::cout << "\ntenants share one fabric; per-tenant latency shows who "
               "pays for the interference.\n";
  return r.completed ? 0 : 1;
}

/// `--workload phased[=scale]`: one steady-state run of the canonical
/// 4-phase workload (parity with trace exploration).
int explore_phased(const noc::NetworkParams& p, const std::string& arg,
                   const util::Config& cfg, const noc::FaultParams& faults,
                   obs::ObsSession& session) {
  const double phase_scale = arg.empty() ? cfg.get("scale", 1.0)
                                         : std::stod(arg);
  noc::Network net(p);
  if (faults.enabled()) net.set_fault_model(faults);
  session.attach(net);
  noc::PhasedWorkload w(net.topology(),
                        noc::PhasedWorkload::standard_phases(net.topology(),
                                                             phase_scale));
  noc::SteadyRunParams run;
  run.warmup_cycles = 2000;
  run.measure_cycles = static_cast<std::uint64_t>(w.total_duration());
  const noc::SteadyResult r = noc::run_steady_state(net, w, run);
  util::Table tab({"workload", "avg_lat", "p95_lat", "avg_hops", "accepted",
                   "power_mW", "saturated"});
  tab.row()
      .cell("phased x" + util::fmt(phase_scale, 2))
      .cell(r.stats.avg_latency, 1)
      .cell(r.stats.p95_latency, 1)
      .cell(r.stats.avg_hops, 2)
      .cell(r.stats.accepted_rate, 4)
      .cell(r.stats.avg_power_mw(2.0), 1)
      .cell(r.saturated ? "yes" : "no");
  tab.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Config cfg = util::Config::from_args(argc, argv);
  util::init_log(cfg.get("log", std::string()));
  const std::string topology = cfg.get("topology", std::string("mesh"));
  const int size = cfg.get("size", 8);
  const double rate = cfg.get("rate", 0.05);
  const int jobs = util::ThreadPool::resolve_jobs(cfg.get("jobs", 0));

  noc::NetworkParams p;
  p.topology = topology;
  p.width = p.height = size;
  p.seed = cfg.get("seed", p.seed);
  p.routing = cfg.get("routing", std::string("auto"));

  const noc::FaultParams faults = fault_params_from(cfg);

  std::cout << "traffic explorer: " << topology << " " << size << "x" << size
            << ", rate " << rate << " pkt/node/cycle, routing " << p.routing
            << ", jobs " << jobs;
  if (faults.enabled()) {
    std::cout << ", faults on (rate " << faults.link_fault_rate << ", "
              << faults.events.size() << " link events)";
  }
  std::cout << "\n\n";

  // Application-level workloads: `--workload trace=<file>` replays a trace
  // (see src/trace/), `--workload scenario=<file>` runs a multi-tenant
  // scenario (see src/scenario/), `--workload phased[=scale]` runs the
  // canonical phased workload. Default (no flag): the pattern sweep below.
  // Observability: --trace-out= / --metrics-out= / --trace-sample= apply to
  // the single-run workload modes below; the parallel pattern sweep runs
  // untraced (one recorder cannot span concurrent fabrics).
  obs::ObsSession session(obs::ObsOptions::from_config(cfg));
  if (cfg.has("workload")) {
    const std::string w = cfg.get("workload", std::string());
    int rc = -1;
    try {
      if (w.rfind("trace=", 0) == 0) {
        rc = explore_trace(p, w.substr(6), cfg, faults, session);
      } else if (w.rfind("scenario=", 0) == 0) {
        rc = explore_scenario(w.substr(9), faults, session);
      } else if (w == "phased" || w.rfind("phased=", 0) == 0) {
        rc = explore_phased(p, w == "phased" ? "" : w.substr(7), cfg, faults,
                            session);
      }
    } catch (const std::exception& e) {
      LOG_ERROR << "workload error: " << e.what();
      return 1;
    }
    if (rc < 0) {
      LOG_ERROR << "unknown workload '" << w
                << "' (expected trace=<file>, scenario=<file> or "
                   "phased[=scale])";
      return 1;
    }
    if (!session.finish() && rc == 0) rc = 1;
    return rc;
  }
  if (session.enabled()) {
    // Hard error, not a warning: the parallel pattern sweep cannot attach
    // the single-threaded observability taps, and silently dropping a
    // requested artifact has proven easy to miss in scripted runs.
    LOG_ERROR << "traffic_explorer: --trace-out/--metrics-out cannot observe "
                 "the parallel pattern sweep; pick a --workload mode "
                 "(trace=, scenario=, phased) to capture artifacts";
    return 2;
  }

  // All patterns are measured concurrently; a pattern the topology rejects
  // (e.g. transpose on a ring) reports its error in the table instead of
  // aborting the sweep.
  const std::vector<const char*> patterns = {
      "uniform", "transpose", "bitcomp", "bitrev",
      "shuffle", "tornado",   "neighbor", "hotspot"};
  struct PatternRow {
    std::optional<noc::SteadyResult> result;
    std::string error;
  };
  const auto rows = util::parallel_map<PatternRow>(
      static_cast<int>(patterns.size()), jobs, [&](int i) {
        PatternRow row;
        try {
          row.result = noc::measure_point(
              p, patterns[static_cast<std::size_t>(i)], rate,
              noc::SteadyRunParams{}, faults);
        } catch (const std::exception& e) {
          row.error = e.what();
        }
        return row;
      });

  util::Table t({"pattern", "avg_lat", "p95_lat", "avg_hops", "accepted",
                 "power_mW", "saturated"});
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (!rows[i].result) {
      t.row().cell(patterns[i]).cell("n/a: " + rows[i].error);
      continue;
    }
    const auto& r = *rows[i].result;
    t.row()
        .cell(patterns[i])
        .cell(r.stats.avg_latency, 1)
        .cell(r.stats.p95_latency, 1)
        .cell(r.stats.avg_hops, 2)
        .cell(r.stats.accepted_rate, 4)
        .cell(r.stats.avg_power_mw(2.0), 1)
        .cell(r.saturated ? "yes" : "no");
  }
  t.print(std::cout);
  std::cout << "\nlocal patterns (neighbor) ride cheap; adversarial ones "
               "(transpose/tornado) pay in hops and saturate earlier.\n";
  return 0;
}
