// Driving a fabric: run_until, the one loop that steps a Network until its
// work is done and it drains, plus the steady-state measurement methodology
// (warm-up -> measurement -> drain) behind load-latency and throughput
// curves.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "noc/network.h"
#include "noc/workload.h"

namespace drlnoc::noc {

/// Outcome of run_until: the run's statistics window and why it stopped.
struct RunResult {
  EpochStats stats;          ///< everything since the previous stats drain
  bool completed = false;    ///< `done` held and the fabric drained
  std::uint64_t cycles = 0;  ///< router cycles stepped
};

/// Steps `net` with `injector` (null for drain-only stepping) until `done()`
/// holds and the fabric has drained, or `cycle_limit` router cycles elapse.
/// `done` is re-checked before every cycle. Drains the epoch statistics
/// into the result. Every run-to-completion flow (trace replay, scenario
/// runs, the steady-state drain) goes through this loop.
RunResult run_until(Network& net, TrafficInjector* injector,
                    const std::function<bool()>& done,
                    std::uint64_t cycle_limit);

struct SteadyRunParams {
  std::uint64_t warmup_cycles = 2000;    ///< router cycles, unmeasured
  std::uint64_t measure_cycles = 8000;   ///< router cycles, measured window
  std::uint64_t drain_limit = 100000;    ///< max extra cycles waiting to drain
};

struct SteadyResult {
  EpochStats stats;           ///< the measurement window
  bool saturated = false;     ///< backlog kept growing: offered > capacity
  bool drained = false;       ///< all measured packets retired in the limit
  double offered_rate = 0.0;  ///< configured packets/node/core-cycle
};

/// Runs the full warm-up / measure / drain protocol on `net` with `workload`.
/// The measurement window's statistics cover packets *generated* during the
/// window (latency recorded at ejection, including post-window ejections).
SteadyResult run_steady_state(Network& net, TrafficInjector& workload,
                              const SteadyRunParams& params = {});

/// Convenience wrapper: builds a fresh network with the given parameters,
/// runs a steady-state experiment at `rate` on `pattern`, returns stats.
/// A non-default `faults` (FaultParams::enabled()) attaches a deterministic
/// fault model to the fresh network before the run.
SteadyResult measure_point(const NetworkParams& net_params,
                           const std::string& pattern, double rate,
                           const SteadyRunParams& run_params = {},
                           const FaultParams& faults = {});

/// One point of a load sweep: the network/pattern/rate triple measured by
/// measure_points. Curves mix topologies (e.g. mesh vs torus per rate), so
/// each point carries its own network parameters.
struct SweepPoint {
  NetworkParams net{};
  std::string pattern = "uniform";
  double rate = 0.0;
  SteadyRunParams run{};
  FaultParams faults{};  ///< attached when enabled(); default = healthy
};

/// Measures every point concurrently across `jobs` threads (the default 1
/// is serial, matching measure_point in a loop; <= 0 means one per hardware
/// thread). Each point builds a private Network seeded only by its own
/// parameters, so results are bit-identical to calling measure_point
/// serially, independent of thread count. Output order matches input order.
std::vector<SteadyResult> measure_points(const std::vector<SweepPoint>& points,
                                         int jobs = 1);

}  // namespace drlnoc::noc
