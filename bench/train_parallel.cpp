// Multi-actor training wall-clock bench (PR 10): times DQN training on the
// T6 QoS scenario three ways — the serial trainer (core::train_dqn), the
// multi-actor collector pinned to one worker (its overhead floor), and the
// collector at `actors=` workers — and emits the speedups in the tracked
// BENCH_*.json format (bench_json.h).
//
//   ./bench/train_parallel                     # full scale, actors=8
//   ./bench/train_parallel --smoke             # CI scale
//   ./bench/train_parallel actors=8 jobs=8 out=BENCH_PR10.json
//
// The collector's learning curve differs from the serial trainer's (rounds
// change the replay merge order — `round` is part of the experiment
// definition), so this compares wall clock only; bit-identity across
// `actors` values is pinned separately by tests/train_parallel_test.cpp.
// Timings are machine-dependent: refresh on an idle machine, best of
// `repeats` runs.
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "util/cli.h"
#include "util/config.h"

using namespace drlnoc;

namespace {

/// Best-of-`repeats` wall-clock seconds of `fn`.
template <typename Fn>
double best_seconds(int repeats, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int run(const util::Config& cfg) {
  const bool smoke = cfg.get("smoke", false);

  const int size = cfg.get("size", smoke ? 4 : 8);
  const int episodes = cfg.get("episodes", smoke ? 4 : 16);
  const int round = cfg.get("round", 8);
  const int actors = cfg.get("actors", 8);
  const int repeats = cfg.get("repeats", smoke ? 1 : 3);
  const std::string out_path = cfg.get("out", std::string());
  util::reject_unknown_args(cfg);

  // The T6 scenario (table6_qos.cpp): latency-critical DNN pipeline over a
  // background sweep — the training workload whose wall clock this bench
  // measures.
  const core::NocEnvParams ep = bench::dnn_background_env(
      {.size = size, .smoke = smoke, .p95_target = smoke ? 200.0 : 300.0});

  std::cout << "train_parallel: " << episodes << " episodes x "
            << ep.epochs_per_episode << " epochs on mesh " << size << "x"
            << size << " (round " << round << ", best of " << repeats
            << ")\n";

  const double serial_s = best_seconds(repeats, [&] {
    core::NocConfigEnv env(ep);
    bench::train_agent(env, episodes);
  });
  std::cout << "  serial (train_dqn):        " << util::fmt(serial_s, 2)
            << " s\n";
  const double par1_s = best_seconds(repeats, [&] {
    bench::train_agent_parallel(ep, episodes, round, /*actors=*/1);
  });
  std::cout << "  collector, 1 actor:        " << util::fmt(par1_s, 2)
            << " s\n";
  const double parN_s = best_seconds(repeats, [&] {
    bench::train_agent_parallel(ep, episodes, round, actors);
  });
  std::cout << "  collector, " << actors
            << " actors:       " << util::fmt(parN_s, 2) << " s\n"
            << "  speedup vs serial:         " << util::fmt(serial_s / parN_s, 2)
            << "x\n";

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("build_host_threads",
                       static_cast<double>(
                           std::thread::hardware_concurrency()));
  metrics.emplace_back("train_serial_s", serial_s);
  metrics.emplace_back("train_actors1_s", par1_s);
  metrics.emplace_back("train_actors" + std::to_string(actors) + "_s", parN_s);
  metrics.emplace_back("speedup_actors1_vs_serial", serial_s / par1_s);
  metrics.emplace_back("speedup_actors" + std::to_string(actors) + "_vs_serial",
                       serial_s / parN_s);

  if (!out_path.empty()) {
    if (!bench::write_metrics_file(
            out_path, "train_parallel", metrics,
            "seconds (and dimensionless speedups)",
            "T6 QoS-scenario training wall clock: serial train_dqn vs the "
            "multi-actor collector. At actors=1 (round 8) both trainers make "
            "the same 405,408 Network::step calls, and each collector step "
            "costs about 1.27x more; with epsilon pinned at 1 (uniformly "
            "random actions) the collector matches serial, so the gap follows "
            "the greedy actions of the policy frozen for a round, not the "
            "collector loop or its batched forwards. Speedup at more actors "
            "scales with build_host_threads; >=3x at actors=8 has not been "
            "verified on a host with 8 or more threads. Refresh with: "
            "./build/bench/train_parallel actors=8 out=BENCH_PR10.json")) {
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}

int main(int argc, char** argv) { return util::run_cli(argc, argv, run); }
