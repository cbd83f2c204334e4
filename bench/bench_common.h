// Shared helpers for the experiment harnesses in bench/. Each binary prints
// one paper table/figure; these helpers keep the training and evaluation
// protocol identical across experiments.
#pragma once

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/env_noc.h"
#include "core/parallel.h"
#include "core/trainer.h"
#include "obs/session.h"
#include "rl/dqn.h"
#include "scenario/runtime.h"
#include "scenario/scenario.h"
#include "trace/generators.h"
#include "util/config.h"
#include "util/log.h"
#include "util/table.h"

namespace drlnoc::bench {

/// Parses a bench command line (`key=value`, `--key value`, `--key=value`)
/// and applies `log=`. The bare flag `--smoke` or `smoke` means `smoke=1`,
/// so every spelling reads back as `cfg.get("smoke", false)`.
inline util::Config bench_config(int argc, char** argv) {
  std::vector<const char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view tok = argv[i];
    args.push_back(i > 0 && (tok == "--smoke" || tok == "smoke") ? "smoke=1"
                                                                 : argv[i]);
  }
  util::Config cfg =
      util::Config::from_args(static_cast<int>(args.size()), args.data());
  util::init_log(cfg.get("log", std::string()));
  return cfg;
}

/// Resolves the shared `--jobs N` flag (also accepted as `jobs=N`). The
/// default 0 means one worker per hardware thread. Every experiment is
/// bit-identical at any jobs value — the flag only buys wall-clock.
inline core::ExperimentRunner runner_from(const util::Config& cfg) {
  return core::ExperimentRunner(cfg.get("jobs", 0));
}

/// DQN hyper-parameters used by every experiment (core/trainer.h).
using core::standard_dqn;

/// The per-task factory for a named controller: "drl" serves `policy`
/// (which must outlive the factory), "heuristic" is sized for `num_nodes`,
/// and "static-max"/"static-min" pin the extreme configurations.
inline core::ControllerFactory controller_factory(
    const std::string& name, int num_nodes,
    const nn::Mlp* policy = nullptr) {
  if (name == "drl") {
    return [policy](const core::NocConfigEnv& e)
               -> std::unique_ptr<core::Controller> {
      return std::make_unique<core::DrlController>(e, *policy);
    };
  }
  if (name == "heuristic") {
    return [num_nodes](const core::NocConfigEnv& e)
               -> std::unique_ptr<core::Controller> {
      core::HeuristicParams hp;
      hp.num_nodes = num_nodes;
      return std::make_unique<core::HeuristicController>(e.actions(), hp);
    };
  }
  if (name != "static-max" && name != "static-min") {
    throw std::invalid_argument("bench: unknown controller " + name);
  }
  const bool max = name == "static-max";
  return [max](const core::NocConfigEnv& e)
             -> std::unique_ptr<core::Controller> {
    return max ? core::StaticController::maximal(e.actions())
               : core::StaticController::minimal(e.actions());
  };
}

/// Trains a fresh agent on `env` and returns it.
inline std::unique_ptr<rl::DqnAgent> train_agent(core::NocConfigEnv& env,
                                                 int episodes,
                                                 std::uint64_t seed = 7) {
  const auto steps =
      static_cast<std::uint64_t>(episodes) *
      static_cast<std::uint64_t>(env.params().epochs_per_episode);
  auto agent = std::make_unique<rl::DqnAgent>(
      env.state_size(), env.num_actions(), standard_dqn(steps, seed));
  core::TrainParams tp;
  tp.episodes = episodes;
  tp.eval_every = 0;
  core::train_dqn(env, *agent, tp);
  return agent;
}

/// Trains a fresh agent with the multi-actor collector
/// (core::train_dqn_parallel). `round` is part of the experiment definition
/// (changing it changes the curve, like a seed); `actors` only fans the
/// environment stepping across threads — results are bit-identical at any
/// value, so tables stay actors-invariant while training buys wall-clock.
inline std::unique_ptr<rl::DqnAgent> train_agent_parallel(
    const core::NocEnvParams& ep, int episodes, int round, int actors,
    std::uint64_t seed = 7) {
  const auto steps = static_cast<std::uint64_t>(episodes) *
                     static_cast<std::uint64_t>(ep.epochs_per_episode);
  // Calibrated once, for the probe and the trainer's lanes alike.
  const core::NocEnvParams calibrated = core::with_calibrated_power_ref(ep);
  core::NocConfigEnv probe(calibrated);  // observation/action dims only
  auto agent = std::make_unique<rl::DqnAgent>(
      probe.state_size(), probe.num_actions(), standard_dqn(steps, seed));
  core::ParallelTrainParams tp;
  tp.episodes = episodes;
  tp.round = round;
  tp.actors = actors;
  tp.eval_every = 0;
  core::train_dqn_parallel(calibrated, *agent, tp);
  return agent;
}

/// The two-tenant interference scenario of T5, T6 and train_parallel: a
/// looping 16-endpoint DNN-pipeline trace on nodes 0-15 plus uniform
/// background traffic over the whole `size` x `size` mesh.
struct DnnBackgroundParams {
  int size = 8;
  /// CI scale: 2 DNN batches per trace iteration instead of 4, and
  /// 4 x 256-cycle epochs per episode instead of 48 x 512.
  bool smoke = false;
  double rate_scale = 1.0;  ///< DNN trace replay speed
  double bg_rate = 0.05;    ///< background packets / node / core cycle
  /// > 0 makes the DNN tenant latency-critical with this p95 SLO (core
  /// cycles) and the background tenant QoS class background; the scenario
  /// is then named "qos_dnn_vs_background", else "dnn_plus_background".
  double p95_target = 0.0;
};

/// Environment parameters running the DNN-plus-background scenario; the
/// scenario itself is `scenario`, and its `net.seed` seeds the traffic.
inline core::NocEnvParams dnn_background_env(const DnnBackgroundParams& p) {
  const bool qos = p.p95_target > 0.0;
  auto s = std::make_shared<scenario::Scenario>();
  s->name = qos ? "qos_dnn_vs_background" : "dnn_plus_background";
  s->net.width = s->net.height = p.size;
  s->net.seed = 42;

  scenario::TenantSpec dnn;
  dnn.name = "dnn";
  dnn.kind = scenario::WorkloadKind::kTrace;
  trace::DnnPipelineParams dp;
  dp.nodes = 16;
  dp.batches = p.smoke ? 2 : 4;
  dnn.trace = std::make_shared<const trace::Trace>(
      trace::generate_dnn_pipeline(dp));
  dnn.rate_scale = p.rate_scale;
  dnn.loop = true;  // RL episodes of any length stay fed
  dnn.nodes = scenario::parse_node_set("0-15", p.size * p.size);
  if (qos) {
    dnn.qos = scenario::QosClass::kLatencyCritical;
    dnn.p95_target = p.p95_target;
  }
  s->tenants.push_back(std::move(dnn));

  scenario::TenantSpec bg;
  bg.name = "background";
  bg.kind = scenario::WorkloadKind::kSteady;
  bg.pattern = "uniform";
  bg.rate = p.bg_rate;
  if (qos) bg.qos = scenario::QosClass::kBackground;
  s->tenants.push_back(std::move(bg));
  // Horizon for standalone (scenarioctl-style) runs; RL episodes are
  // bounded by epochs_per_episode instead.
  s->duration = 1e6;

  core::NocEnvParams ep;
  ep.net.seed = s->net.seed;  // base of the per-replica seed stream
  ep.scenario = std::move(s);
  ep.epoch_cycles = p.smoke ? 256 : 512;
  ep.epochs_per_episode = p.smoke ? 4 : 48;
  return ep;
}

/// Honors `--trace-out=` / `--metrics-out=` / `--trace-sample=` on the table
/// benches: when any flag is set, runs `scenario` once more with the
/// observability taps attached and writes the artifacts. Runs AFTER the
/// measured comparisons so every timed/aggregated cell stays observer-free;
/// `duration_cap` bounds the extra run. Returns false when an artifact
/// could not be written (benches fold this into their exit code).
inline bool maybe_traced_run(const util::Config& cfg,
                             const scenario::Scenario& scenario,
                             double duration_cap = 20000.0) {
  obs::ObsSession session(obs::ObsOptions::from_config(cfg));
  if (!session.enabled()) return true;
  scenario::Scenario capped = scenario;
  capped.duration = scenario.duration > 0.0
                        ? std::min(scenario.duration, duration_cap)
                        : duration_cap;
  session.annotate_scenario(capped);
  scenario::run_scenario(capped, session.recorder(),
                         session.metrics(capped.net.width *
                                         capped.net.height));
  return session.finish();
}

/// Appends one controller-comparison row.
inline void result_row(util::Table& table, const core::EpisodeResult& r) {
  table.row()
      .cell(r.controller)
      .cell(r.total_reward, 2)
      .cell(r.mean_latency, 1)
      .cell(r.p95_latency, 1)
      .cell(r.mean_power_mw, 1)
      .cell(r.mean_edp / 1e6, 3)
      .cell(static_cast<long long>(r.backlog_end));
}

inline std::vector<std::string> result_headers() {
  return {"controller", "reward",       "latency", "p95",
          "power_mW",   "EDP(1e6pJcyc)", "backlog"};
}

}  // namespace drlnoc::bench
