// Tests for the parallel experiment engine: the determinism contract
// (parallel == serial, bit-identical, at any thread count) and exception
// propagation from worker tasks.
#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/trainer.h"
#include "noc/simulator.h"
#include "util/thread_pool.h"

namespace drlnoc {
namespace {

// ----------------------------------------------------------- parallel_for ---

TEST(ParallelFor, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(64);
  util::parallel_for(64, 8, [&hits](int i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  EXPECT_THROW(util::parallel_for(16, 4,
                                  [](int i) {
                                    if (i == 7)
                                      throw std::invalid_argument("task 7");
                                  }),
               std::invalid_argument);
}

TEST(ParallelFor, InlineWhenSingleJob) {
  // jobs=1 must run on the caller's thread (no thread spin-up).
  const std::thread::id caller = std::this_thread::get_id();
  util::parallel_for(4, 1, [caller](int) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelMap, PreservesIndexOrder) {
  const auto out =
      util::parallel_map<int>(32, 4, [](int i) { return i * i; });
  ASSERT_EQ(out.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[i], i * i);
}

// ------------------------------------------------- experiment determinism ---

// A small, fast environment: 4x4 mesh, 8-action space, short episodes.
core::NocEnvParams small_env_params() {
  core::NocEnvParams ep;
  ep.net.width = ep.net.height = 4;
  ep.net.seed = 42;
  ep.actions = core::ActionSpace({1, 2}, {2, 4}, {1, 3});
  ep.epoch_cycles = 128;
  ep.epochs_per_episode = 3;
  return ep;
}

void expect_identical(const core::EpisodeResult& a,
                      const core::EpisodeResult& b) {
  EXPECT_EQ(a.controller, b.controller);
  // Bit-identical, not approximately equal: the engine's contract.
  EXPECT_EQ(a.total_reward, b.total_reward);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.mean_power_mw, b.mean_power_mw);
  EXPECT_EQ(a.mean_edp, b.mean_edp);
  EXPECT_EQ(a.backlog_end, b.backlog_end);
  EXPECT_EQ(a.actions, b.actions);
}

TEST(SweepStatic, ParallelMatchesSerialElementwise) {
  const core::NocEnvParams ep = small_env_params();

  // The serial reference: one shared environment, actions in order (the
  // pre-engine implementation).
  core::NocConfigEnv env(ep);
  std::vector<core::EpisodeResult> serial;
  for (int a = 0; a < env.actions().size(); ++a) {
    core::StaticController c(env.actions(), a,
                             "static[" + env.actions().describe(a) + "]");
    serial.push_back(core::evaluate(env, c));
  }
  std::sort(serial.begin(), serial.end(),
            [](const core::EpisodeResult& x, const core::EpisodeResult& y) {
              return x.mean_edp < y.mean_edp;
            });

  const auto parallel =
      core::sweep_static_parallel(ep, core::ExperimentRunner(4));
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    expect_identical(parallel[i], serial[i]);
}

TEST(SweepStatic, InvariantUnderThreadCount) {
  const core::NocEnvParams ep = small_env_params();
  const auto j1 = core::sweep_static_parallel(ep, core::ExperimentRunner(1));
  const auto j2 = core::sweep_static_parallel(ep, core::ExperimentRunner(2));
  const auto j8 = core::sweep_static_parallel(ep, core::ExperimentRunner(8));
  ASSERT_EQ(j1.size(), j2.size());
  ASSERT_EQ(j1.size(), j8.size());
  for (std::size_t i = 0; i < j1.size(); ++i) {
    expect_identical(j2[i], j1[i]);
    expect_identical(j8[i], j1[i]);
  }
}

std::vector<noc::SweepPoint> load_curve_points() {
  std::vector<noc::SweepPoint> points;
  for (double rate : {0.02, 0.05, 0.08}) {
    noc::SweepPoint pt;
    pt.net.width = pt.net.height = 4;
    pt.net.seed = 11;
    pt.pattern = "uniform";
    pt.rate = rate;
    pt.run.warmup_cycles = 200;
    pt.run.measure_cycles = 800;
    pt.run.drain_limit = 5000;
    points.push_back(pt);
  }
  return points;
}

TEST(MeasurePoints, ParallelMatchesSerialElementwise) {
  const auto points = load_curve_points();
  const auto parallel = noc::measure_points(points, 4);
  ASSERT_EQ(parallel.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto serial = noc::measure_point(
        points[i].net, points[i].pattern, points[i].rate, points[i].run);
    EXPECT_EQ(parallel[i].saturated, serial.saturated);
    EXPECT_EQ(parallel[i].drained, serial.drained);
    EXPECT_EQ(parallel[i].offered_rate, serial.offered_rate);
    EXPECT_EQ(parallel[i].stats.avg_latency, serial.stats.avg_latency);
    EXPECT_EQ(parallel[i].stats.p95_latency, serial.stats.p95_latency);
    EXPECT_EQ(parallel[i].stats.accepted_rate, serial.stats.accepted_rate);
    EXPECT_EQ(parallel[i].stats.packets_received,
              serial.stats.packets_received);
  }
}

TEST(MeasurePoints, InvariantUnderThreadCount) {
  const auto points = load_curve_points();
  const auto j1 = noc::measure_points(points, 1);
  const auto j2 = noc::measure_points(points, 2);
  const auto j8 = noc::measure_points(points, 8);
  ASSERT_EQ(j1.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(j2[i].stats.avg_latency, j1[i].stats.avg_latency);
    EXPECT_EQ(j8[i].stats.avg_latency, j1[i].stats.avg_latency);
    EXPECT_EQ(j2[i].stats.packets_received, j1[i].stats.packets_received);
    EXPECT_EQ(j8[i].stats.packets_received, j1[i].stats.packets_received);
  }
}

TEST(EvaluateMany, DeterministicSeedsAndThreadInvariance) {
  const core::NocEnvParams ep = small_env_params();
  const core::ControllerFactory factory =
      [](const core::NocConfigEnv& env) -> std::unique_ptr<core::Controller> {
    return core::StaticController::maximal(env.actions());
  };
  const auto j1 = core::evaluate_many(ep, factory, 4,
                                      core::ExperimentRunner(1));
  const auto j4 = core::evaluate_many(ep, factory, 4,
                                      core::ExperimentRunner(4));
  ASSERT_EQ(j1.replicas.size(), 4u);
  ASSERT_EQ(j4.replicas.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    // The per-task RNG stream: replica i always runs seed base + i.
    EXPECT_EQ(j1.replicas[i].seed, ep.net.seed + i);
    EXPECT_EQ(j4.replicas[i].seed, j1.replicas[i].seed);
    expect_identical(j4.replicas[i].result, j1.replicas[i].result);
  }
  EXPECT_EQ(j4.reward.mean, j1.reward.mean);
  EXPECT_EQ(j4.reward.ci95, j1.reward.ci95);
  // Different seeds should actually produce different traffic.
  EXPECT_NE(j1.replicas[0].result.total_reward,
            j1.replicas[1].result.total_reward);
}

TEST(EvaluateMany, WorkerExceptionPropagates) {
  core::NocEnvParams ep = small_env_params();
  const core::ControllerFactory broken =
      [](const core::NocConfigEnv&) -> std::unique_ptr<core::Controller> {
    throw std::runtime_error("factory failed");
  };
  EXPECT_THROW(
      core::evaluate_many(ep, broken, 4, core::ExperimentRunner(2)),
      std::runtime_error);
}

}  // namespace
}  // namespace drlnoc
