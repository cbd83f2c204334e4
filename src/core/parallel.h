// Parallel experiment engine: fans independent simulations across hardware
// threads. Every point of the paper's artifacts (static-config sweeps,
// load-latency curves, multi-seed replications) is an independent `Network`
// simulation, so each task builds its own environment and draws from a
// deterministic per-task RNG stream (seed derived from base_seed +
// task_index). The determinism contract: parallel results are bit-identical
// to serial and invariant under thread count, because tasks share no mutable
// state and results are written to index-addressed slots.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/controller.h"
#include "core/env_noc.h"
#include "core/trainer.h"
#include "util/thread_pool.h"

namespace drlnoc::core {

/// Thin façade over util::parallel_for that carries a jobs count chosen once
/// (e.g. from a --jobs flag) through an experiment.
class ExperimentRunner {
 public:
  /// jobs > 0 is taken literally; jobs <= 0 means one per hardware thread.
  explicit ExperimentRunner(int jobs = 0)
      : jobs_(util::resolve_jobs(jobs)) {}

  int jobs() const { return jobs_; }

  /// Runs fn(0) .. fn(n-1), blocking until all complete; first task
  /// exception propagates.
  void for_each(int n, const std::function<void(int)>& fn) const {
    util::parallel_for(n, jobs_, fn);
  }

  /// Order-preserving parallel map: out[i] = fn(i).
  template <typename R>
  std::vector<R> map(int n, const std::function<R(int)>& fn) const {
    return util::parallel_map<R>(n, jobs_, fn);
  }

 private:
  int jobs_;
};

/// Returns `params` with the observability taps stripped (they are
/// single-threaded; worker environments must never share them) and the
/// reward's power reference calibrated once up front — every worker's fresh
/// environment would deterministically recompute the same value from the
/// same parameters, at two max-config epochs each. Every fan-out entry
/// point (sweeps, replications, the parallel trainer) starts here.
NocEnvParams with_calibrated_power_ref(const NocEnvParams& params);

/// Evaluates every static configuration of `params.actions` — one fresh
/// environment per action, evaluated concurrently — and returns results
/// sorted by mean EDP (element 0 is the oracle static). Bit-identical to the
/// serial sweep because evaluation mode pins the traffic seed and phase
/// offset, making each action's episode independent of every other.
std::vector<EpisodeResult> sweep_static_parallel(
    const NocEnvParams& params, const ExperimentRunner& runner);

/// Builds the controller for one evaluation task. Called once per task on the
/// worker thread with that task's freshly built environment, so the factory
/// must be safe to invoke concurrently (it should only read shared state —
/// e.g. copy a trained network — never mutate it).
using ControllerFactory =
    std::function<std::unique_ptr<Controller>(const NocConfigEnv& env)>;

/// One replica of a multi-seed replication.
struct Replica {
  std::uint64_t seed = 0;
  EpisodeResult result;
};

/// Mean and half-width of the normal-approximation 95% confidence interval
/// for one metric across replicas.
struct MetricSummary {
  double mean = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;  ///< 1.96 * stddev / sqrt(n); 0 when n < 2
};

/// Mean + normal-approximation 95% CI of a metric across replica values.
/// n = 0 returns all zeros; n = 1 returns the value with zero spread;
/// zero-variance samples report stddev = ci95 = 0 exactly. NaN values are
/// rejected (std::invalid_argument) — a NaN metric is always an upstream
/// bug, and letting it poison a mean hides where it entered.
MetricSummary summarize_metric(const std::vector<double>& xs);

/// One tenant's metrics across replicas (TenantEpisodeSummary fields).
struct TenantReplication {
  MetricSummary latency;       ///< mean_latency
  MetricSummary p95;           ///< p95_latency
  MetricSummary throughput;    ///< accepted_rate
  MetricSummary slo_hit_rate;  ///< slo_hit_rate
};

struct ReplicationResult {
  std::vector<Replica> replicas;  ///< ordered by task index
  MetricSummary reward;
  MetricSummary latency;
  MetricSummary power_mw;
  MetricSummary edp;
  /// Index-aligned with each replica's EpisodeResult::tenants (empty for
  /// single-tenant workloads).
  std::vector<TenantReplication> tenants;
};

/// Evaluates `controller_factory`'s policy over `replicas` episodes whose
/// traffic seeds are `base.net.seed + task_index` (the deterministic
/// per-task RNG stream), in parallel, and aggregates confidence intervals,
/// per tenant too. Throws std::invalid_argument when the replicas report
/// different tenant counts (no per-tenant interval spans them).
ReplicationResult evaluate_many(const NocEnvParams& base,
                                const ControllerFactory& controller_factory,
                                int replicas, const ExperimentRunner& runner);

}  // namespace drlnoc::core
