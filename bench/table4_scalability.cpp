// T4: scalability of DRL self-configuration across mesh sizes and
// topologies. Larger networks use fewer training episodes (wall-clock
// budget), which the table notes — the *shape* (DRL saves power at ~static-
// max latency) must hold at every size.
//
// Each row (train + evaluate) is an independent task, so the whole table
// fans out over the experiment engine. A second section measures the engine
// itself: the static-config sweep at 1 worker vs N workers, with identical
// output and the wall-clock speedup printed.
//
// Modes:
//   table4_scalability                    # full paper table + engine scaling
//   table4_scalability --smoke            # reduced episode budget, no engine
//                                         # scaling section (CI-sized)
//   table4_scalability rows=32x32         # only rows whose name contains the
//                                         # substring (e.g. mesh32x32)
//   table4_scalability out=T4.json        # also write row metrics as JSON
#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "bench_json.h"
#include "util/cli.h"
#include "util/config.h"
#include "util/log.h"

using namespace drlnoc;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int run(const util::Config& cfg) {
  const bool smoke = cfg.get("smoke", false);
  const std::string rows_filter = cfg.get("rows", std::string());
  const std::string out_path = cfg.get("out", std::string());
  const core::ExperimentRunner runner(cfg.get("jobs", 0));
  // The engine-scaling sweep runs only at full scale; its keys are read
  // (and ignored) under smoke too.
  core::NocEnvParams sweep_ep;
  sweep_ep.net.width = sweep_ep.net.height = cfg.get("sweep_size", 8);
  sweep_ep.net.seed = 42;
  sweep_ep.epoch_cycles = 512;
  sweep_ep.epochs_per_episode = cfg.get("sweep_epochs", 16);

  struct Case {
    std::string topology;
    int width;
    int height;
    int episodes;
    bool two_class;
  };
  // Larger fabrics get smaller training budgets (wall clock); the 32x32 row
  // exists at all because the event-driven network core skips quiescent
  // routers — cycle-stepping 1024 routers made it unaffordable.
  std::vector<Case> cases = {
      {"mesh", 4, 4, cfg.get("episodes_4", smoke ? 8 : 120), false},
      {"mesh", 8, 8, cfg.get("episodes_8", smoke ? 4 : 40), false},
      {"mesh", 16, 16, cfg.get("episodes_16", smoke ? 2 : 12), false},
      {"mesh", 32, 32, cfg.get("episodes_32", smoke ? 1 : 6), false},
      {"torus", 4, 4, cfg.get("episodes_t", smoke ? 6 : 80), true},
      {"ring", 8, 1, cfg.get("episodes_r", smoke ? 6 : 80), true},
  };
  util::reject_unknown_args(cfg);

  std::cout << "T4: scalability across sizes and topologies (standard "
               "phased workload, jobs=" << runner.jobs()
            << (smoke ? ", SMOKE budget" : "") << ")\n\n";
  util::Table t({"network", "episodes", "drl_lat", "max_lat", "drl_mW",
                 "max_mW", "power_save%", "drl_reward", "max_reward"});
  auto case_name = [](const Case& c) {
    return c.topology +
           (c.topology == "ring" ? std::to_string(c.width * c.height)
                                 : std::to_string(c.width) + "x" +
                                       std::to_string(c.height));
  };
  if (!rows_filter.empty()) {
    std::erase_if(cases, [&](const Case& c) {
      return case_name(c).find(rows_filter) == std::string::npos;
    });
    if (cases.empty()) {
      LOG_ERROR << "table4: rows=" << rows_filter << " matches nothing";
      return 2;
    }
  }

  struct CaseResult {
    core::EpisodeResult drl, smax;
  };
  // One task per row: each trains its own agent in its own environment, so
  // rows share nothing and run concurrently.
  const auto results =
      runner.map<CaseResult>(static_cast<int>(cases.size()), [&](int i) {
        const Case& c = cases[static_cast<std::size_t>(i)];
        core::NocEnvParams ep;
        ep.net.topology = c.topology;
        ep.net.width = c.width;
        ep.net.height = c.height;
        ep.net.seed = 42;
        ep.epoch_cycles = 512;
        ep.epochs_per_episode = 32;
        if (c.two_class) ep.actions = core::ActionSpace::standard_two_class();
        core::NocConfigEnv env(ep);

        auto agent = bench::train_agent(env, c.episodes);
        core::DrlController drl(env, agent->policy());
        auto smax = core::StaticController::maximal(env.actions());
        CaseResult r;
        r.drl = core::evaluate(env, drl);
        r.smax = core::evaluate(env, *smax);
        return r;
      });

  std::vector<std::pair<std::string, double>> json_metrics;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const CaseResult& r = results[i];
    const double save =
        100.0 * (1.0 - r.drl.mean_power_mw / r.smax.mean_power_mw);
    const std::string name = case_name(c);
    json_metrics.emplace_back(name + "_drl_latency", r.drl.mean_latency);
    json_metrics.emplace_back(name + "_smax_latency", r.smax.mean_latency);
    json_metrics.emplace_back(name + "_drl_power_mw", r.drl.mean_power_mw);
    json_metrics.emplace_back(name + "_smax_power_mw", r.smax.mean_power_mw);
    json_metrics.emplace_back(name + "_power_save_pct", save);
    t.row()
        .cell(name)
        .cell(static_cast<long long>(c.episodes))
        .cell(r.drl.mean_latency, 1)
        .cell(r.smax.mean_latency, 1)
        .cell(r.drl.mean_power_mw, 1)
        .cell(r.smax.mean_power_mw, 1)
        .cell(save, 1)
        .cell(r.drl.total_reward, 1)
        .cell(r.smax.total_reward, 1);
  }
  t.print(std::cout);
  std::cout << "\nshape check: power savings positive at every size and "
               "topology; latency stays in the static-max band (the 16x16 "
               "and 32x32 rows train on reduced budgets).\n\n";

  if (!out_path.empty() &&
      !bench::write_metrics_file(out_path, smoke ? "table4_smoke" : "table4",
                                 json_metrics, "mixed")) {
    return 1;
  }
  // Smoke runs exist for CI: rows only, no engine-scaling section.
  if (smoke) return 0;

  // ---- Engine scaling: the same sweep, serial vs parallel -----------------
  // sweep_static_parallel evaluates all static configs (36 on the standard
  // space); every config is an independent episode, so wall-clock should fall
  // roughly linearly with workers while the sorted results stay
  // bit-identical.
  std::cout << "engine scaling: sweep_static_parallel over "
            << sweep_ep.actions.size() << " configs, mesh "
            << sweep_ep.net.width << "x" << sweep_ep.net.height << "\n";
  util::Table s({"jobs", "seconds", "speedup", "oracle_config",
                 "oracle_EDP(1e6)"});
  double serial_seconds = 0.0;
  std::vector<int> job_counts = {1};
  if (runner.jobs() > 1) job_counts.push_back(runner.jobs());
  for (int jobs : job_counts) {
    const core::ExperimentRunner r(jobs);
    const auto t0 = std::chrono::steady_clock::now();
    const auto sweep = core::sweep_static_parallel(sweep_ep, r);
    const double secs = seconds_since(t0);
    if (jobs == 1) serial_seconds = secs;
    s.row()
        .cell(static_cast<long long>(jobs))
        .cell(secs, 2)
        .cell(serial_seconds > 0.0 ? serial_seconds / secs : 1.0, 2)
        .cell(sweep.front().controller)
        .cell(sweep.front().mean_edp / 1e6, 3);
  }
  s.print(std::cout);
  std::cout << "\nshape check: identical oracle config and EDP at every jobs "
               "value; speedup approaches the worker count on idle "
               "machines.\n";
  return 0;
}

int main(int argc, char** argv) { return util::run_cli(argc, argv, run); }
