// Fleet harness: evaluates one controller across every scenario of a
// ScenarioSpace on the parallel experiment engine, with sharded, resumable
// runs. Each scenario's outcome lands in its own result file under
// `results_dir`, named `result-<index>-<key>.drlfr` where <key> is a content
// hash of everything that determines the outcome — spec text, index,
// controller type + policy bytes, epoch schedule, feature mode. A killed run
// restarted over the same directory skips every scenario whose result file
// already exists (and a changed spec or policy changes the key, so stale
// results are never reused). The scorecard (scorecard.h) is always computed
// from the parsed result files — never from in-memory results — so a
// resumed fleet scores byte-identically to an uninterrupted one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "fleet/scenario_space.h"

namespace drlnoc::obs {
class FlightRecorder;
class NetworkMetrics;
}  // namespace drlnoc::obs

namespace drlnoc::fleet {

inline constexpr int kFleetResultFormatVersion = 1;
inline constexpr char kFleetResultExtension[] = ".drlfr";

/// How the fleet drives every scenario.
struct FleetParams {
  /// Controller evaluated across the fleet: heuristic | static-max |
  /// static-min | drl (requires policy_blob).
  std::string controller = "heuristic";
  std::string policy_file;  ///< provenance (drl)
  std::string policy_blob;  ///< DqnAgent::save bytes, loaded by the caller
  /// Optional pinned policy version (16-hex rl::policy_fingerprint): when
  /// set, every scenario build re-checks the served blob against it, so a
  /// fleet can prove exactly which policy produced its result files.
  std::string policy_pin;
  std::uint64_t epoch_cycles = 512;  ///< router cycles between decisions
  int epochs = 24;                   ///< decision epochs per scenario
  /// Per-tenant QoS feature slices scale the state with the tenant count, so
  /// a fixed policy cannot span scenarios whose churn populations differ;
  /// fleets therefore default to the aggregate feature set. SLO hit rates
  /// are still scored — evaluation reads the scenario's p95 targets
  /// regardless of the feature mode.
  bool qos_features = false;
  std::string results_dir;  ///< required; created if missing
  /// Shard `shard` of `shards` owns the indices with index % shards ==
  /// shard. Every shard writes into the same results_dir.
  int shard = 0;
  int shards = 1;
};

/// Per-tenant slice of one fleet result.
struct FleetTenantOutcome {
  std::string name;
  std::string qos;  ///< scenario::QosClass name
  double slo_hit_rate = 1.0;
  double p95_latency = 0.0;
  double accepted_rate = 0.0;
};

/// One scenario's outcome, as persisted in its result file.
struct FleetScenarioResult {
  std::size_t index = 0;
  std::string label;
  std::uint64_t seed = 0;
  double reward = 0.0;
  double mean_latency = 0.0;
  double p95_latency = 0.0;
  double mean_power_mw = 0.0;
  double mean_edp = 0.0;
  // Degradation counters (zero on a healthy fabric).
  std::uint64_t flits_dropped = 0;
  std::uint64_t retries = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t rerouted_hops = 0;
  /// rl::policy_fingerprint of the served policy (drl fleets); empty for
  /// policy-free controllers and in result files written before PR 10
  /// (the reader is tolerant: the key is simply absent).
  std::string policy_version;
  std::vector<FleetTenantOutcome> tenants;
};

/// Content hash (16 hex chars, FNV-1a 64) of everything that determines
/// index's outcome under `params`.
std::string result_key(const ScenarioSpace& space, std::size_t index,
                       const FleetParams& params);

/// `<results_dir>/result-<index>-<key>.drlfr`.
std::string result_path(const std::string& results_dir, std::size_t index,
                        const std::string& key);

/// Serialises `result` atomically (tmp file + rename), doubles at precision
/// 17 so a reparse is bit-exact. Throws std::runtime_error on I/O failure.
void write_result_file(const std::string& path,
                       const FleetScenarioResult& result);

/// Parses a result file; std::nullopt when the file is missing. Malformed
/// files (e.g. a crash mid-write outside the atomic protocol) throw.
std::optional<FleetScenarioResult> read_result_file(const std::string& path);

/// Evaluates one expanded scenario under `params` (optionally with
/// observability taps attached — used for the worst-k heatmap reruns).
/// Deterministic in (scenario, params): the traffic seed is the expanded
/// scenario's net.seed.
FleetScenarioResult evaluate_scenario(const ExpandedScenario& point,
                                      const FleetParams& params,
                                      obs::FlightRecorder* recorder = nullptr,
                                      obs::NetworkMetrics* metrics = nullptr);

struct FleetRunOutcome {
  std::size_t owned = 0;    ///< indices this shard owns
  std::size_t ran = 0;      ///< evaluated this invocation
  std::size_t skipped = 0;  ///< result file already present (resume)
  /// Power references calibrated: one per distinct core::PowerRefKey among
  /// the scenarios run (the points that share a key share the value).
  std::size_t calibrations = 0;
};

/// Runs this shard's slice of the space in parallel on `runner`, skipping
/// scenarios whose result file already exists. Results are bit-identical at
/// any jobs count (each scenario is an independent simulation with its own
/// seed; files are index-addressed) and to evaluate_scenario: the power
/// reference is calibrated once per distinct key within this call and
/// shared by every point with that key. Throws on an invalid params/space
/// combination or when results_dir cannot be created.
FleetRunOutcome run_fleet(const ScenarioSpace& space, const FleetParams& params,
                          const core::ExperimentRunner& runner);

/// Loads the result files of ALL indices of the space (not just one shard's)
/// by recomputing each index's expected key — stale files under other keys
/// are ignored. Missing indices are simply absent from the returned vector
/// (ordered by index).
std::vector<FleetScenarioResult> load_results(const ScenarioSpace& space,
                                              const FleetParams& params);

}  // namespace drlnoc::fleet
