#include "core/parallel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace drlnoc::core {

// Calibrating the power reference costs two max-config epochs; do it once
// up front instead of once per task (every task's fresh environment would
// deterministically recompute the same value from the same parameters).
NocEnvParams with_calibrated_power_ref(const NocEnvParams& params) {
  NocEnvParams p = params;
  // Observability taps are single-threaded; parallel workers must never
  // share them, so every task environment runs untapped.
  p.recorder = nullptr;
  p.metrics = nullptr;
  if (p.reward.power_ref_mw <= 0.0) {
    p.reward.power_ref_mw = calibrate_power_ref(power_ref_key(p));
  }
  return p;
}

std::vector<EpisodeResult> sweep_static_parallel(
    const NocEnvParams& base, const ExperimentRunner& runner) {
  const NocEnvParams params = with_calibrated_power_ref(base);
  const int n = params.actions.size();
  std::vector<EpisodeResult> results =
      runner.map<EpisodeResult>(n, [&params](int a) {
        NocConfigEnv env(params);
        StaticController controller(
            env.actions(), a, "static[" + env.actions().describe(a) + "]");
        return evaluate(env, controller);
      });
  std::sort(results.begin(), results.end(),
            [](const EpisodeResult& x, const EpisodeResult& y) {
              return x.mean_edp < y.mean_edp;
            });
  return results;
}

MetricSummary summarize_metric(const std::vector<double>& xs) {
  MetricSummary s;
  const std::size_t n = xs.size();
  if (n == 0) return s;
  double sum = 0.0;
  for (double x : xs) {
    if (std::isnan(x)) {
      throw std::invalid_argument(
          "summarize_metric: NaN sample (a NaN metric is an upstream bug)");
    }
    sum += x;
  }
  s.mean = sum / static_cast<double>(n);
  if (n < 2) return s;
  double sq = 0.0;
  for (double x : xs) {
    const double d = x - s.mean;
    sq += d * d;
  }
  s.stddev = std::sqrt(sq / static_cast<double>(n - 1));
  s.ci95 = 1.96 * s.stddev / std::sqrt(static_cast<double>(n));
  return s;
}

namespace {

MetricSummary summarize(const std::vector<Replica>& replicas,
                        double (*metric)(const EpisodeResult&)) {
  std::vector<double> xs;
  xs.reserve(replicas.size());
  for (const Replica& r : replicas) xs.push_back(metric(r.result));
  return summarize_metric(xs);
}

MetricSummary summarize_tenant(const std::vector<Replica>& replicas,
                               std::size_t t,
                               double TenantEpisodeSummary::*metric) {
  std::vector<double> xs;
  xs.reserve(replicas.size());
  for (const Replica& r : replicas) xs.push_back(r.result.tenants[t].*metric);
  return summarize_metric(xs);
}

}  // namespace

ReplicationResult evaluate_many(const NocEnvParams& base,
                                const ControllerFactory& controller_factory,
                                int replicas, const ExperimentRunner& runner) {
  // All replicas share the base seed's power calibration so their rewards
  // are computed against one common reference (and each task skips the
  // calibration epochs).
  const NocEnvParams calibrated = with_calibrated_power_ref(base);
  ReplicationResult out;
  out.replicas = runner.map<Replica>(replicas, [&](int i) {
    Replica rep;
    // The deterministic per-task RNG stream: evaluation mode uses net.seed
    // verbatim, so offsetting it by the task index gives each replica an
    // independent, reproducible traffic sequence.
    NocEnvParams p = calibrated;
    p.net.seed = base.net.seed + static_cast<std::uint64_t>(i);
    rep.seed = p.net.seed;
    NocConfigEnv env(p);
    std::unique_ptr<Controller> controller = controller_factory(env);
    rep.result = evaluate(env, *controller);
    return rep;
  });
  out.reward = summarize(
      out.replicas, [](const EpisodeResult& r) { return r.total_reward; });
  out.latency = summarize(
      out.replicas, [](const EpisodeResult& r) { return r.mean_latency; });
  out.power_mw = summarize(
      out.replicas, [](const EpisodeResult& r) { return r.mean_power_mw; });
  out.edp = summarize(out.replicas,
                      [](const EpisodeResult& r) { return r.mean_edp; });

  const std::size_t num_tenants =
      out.replicas.empty() ? 0 : out.replicas.front().result.tenants.size();
  for (const Replica& r : out.replicas) {
    if (r.result.tenants.size() != num_tenants) {
      throw std::invalid_argument(
          "evaluate_many: replica seeds " +
          std::to_string(out.replicas.front().seed) + " and " +
          std::to_string(r.seed) + " report " + std::to_string(num_tenants) +
          " and " + std::to_string(r.result.tenants.size()) + " tenants");
    }
  }
  out.tenants.resize(num_tenants);
  for (std::size_t t = 0; t < num_tenants; ++t) {
    TenantReplication& tr = out.tenants[t];
    tr.latency = summarize_tenant(out.replicas, t,
                                  &TenantEpisodeSummary::mean_latency);
    tr.p95 =
        summarize_tenant(out.replicas, t, &TenantEpisodeSummary::p95_latency);
    tr.throughput = summarize_tenant(out.replicas, t,
                                     &TenantEpisodeSummary::accepted_rate);
    tr.slo_hit_rate = summarize_tenant(out.replicas, t,
                                       &TenantEpisodeSummary::slo_hit_rate);
  }
  return out;
}

}  // namespace drlnoc::core
