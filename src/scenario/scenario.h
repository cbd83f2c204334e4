// Multi-tenant scenario model: one fabric, N tenants, each driving its own
// workload (a dependency-gated trace replay or a synthetic pattern) over its
// own node set and activity window. A Scenario is the complete, reproducible
// description of a multi-tenant experiment — topology, tenants, run horizon —
// loaded from a versioned `.drlsc` file (scenario_io.h) or built in code.
// CompositeWorkload (composite_workload.h) merges the tenants onto a live
// Network deterministically; runtime.h builds and runs whole scenarios.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "noc/network.h"
#include "noc/workload.h"
#include "scenario/churn.h"
#include "trace/trace.h"

namespace drlnoc::scenario {

/// How a tenant generates traffic.
enum class WorkloadKind {
  kTrace,   ///< dependency-gated replay of a recorded/generated trace
  kSteady,  ///< fixed synthetic pattern + injection process + rate
  kPhased,  ///< phase sequence (explicit phases, or the standard 4-phase mix)
};

std::string to_string(WorkloadKind kind);

/// QoS class of a tenant: how the tenant-aware reward treats its epoch
/// slice (see core/reward.h). QoS annotations never change the generated
/// traffic — only the objective and the agent's observation.
enum class QosClass {
  kLatencyCritical,  ///< protect: p95 SLO target required (p95_target)
  kBestEffort,       ///< default: no extra shaping
  kBackground,       ///< squeeze: energy credit for throttling its traffic
};

std::string to_string(QosClass cls);
/// Parses "latency_critical" | "best_effort" | "background"; throws
/// std::invalid_argument on anything else.
QosClass parse_qos_class(const std::string& text);

/// Scenario-level controller schedule: the controller that reconfigures the
/// fabric when the scenario runs standalone (`scenarioctl run`), so paper
/// rows replay from one `.drlsc` artifact without the bench binaries.
/// `drl` schedules name a trained-policy file (DqnAgent::save output),
/// loaded eagerly like tenant traces so a parsed scenario is self-contained.
struct ControllerSchedule {
  std::string type;  ///< "" = none; drl | heuristic | static-max | static-min
  std::string policy_file;  ///< provenance (drl), relative to the .drlsc
  std::string policy_blob;  ///< trained-policy bytes, loaded eagerly
  /// Optional 16-hex policy fingerprint (`pin` key / `policy_pin=`): when
  /// set, the loaded policy's rl::policy_fingerprint must match exactly or
  /// the run refuses to start — fleets pin the policy version they serve.
  std::string policy_pin;
  std::uint64_t epoch_cycles = 512;  ///< router cycles between decisions
  int epochs = 48;                   ///< decision epochs per scheduled run

  bool scheduled() const { return !type.empty(); }
};

/// One tenant of a scenario.
///
/// Node semantics: `nodes` empty means the whole fabric. For trace tenants a
/// non-empty list is a *placement*: trace endpoint i runs on nodes[i] (the
/// list must cover the trace's node count). For synthetic tenants the list
/// restricts *sources* only — destinations still follow the pattern over the
/// full topology, which is exactly the "background interference" shape.
///
/// Window semantics: the tenant injects only while start <= t < stop (global
/// core time). Children observe a local clock starting at 0 at `start`, so a
/// trace tenant's recorded release times are relative to its window.
struct TenantSpec {
  std::string name = "tenant";
  WorkloadKind kind = WorkloadKind::kSteady;

  // kTrace
  std::shared_ptr<const trace::Trace> trace;  ///< loaded eagerly
  std::string trace_file;  ///< provenance, kept for describe/write
  double rate_scale = 1.0;
  bool loop = false;

  // kSteady / kPhased
  std::string pattern = "uniform";
  std::string process = "bernoulli";
  double rate = 0.05;               ///< packets/node/core-cycle (kSteady)
  std::vector<noc::Phase> phases;   ///< kPhased; empty => standard phases
  double phase_scale = 1.0;         ///< rate scale for the standard phases

  // Placement & activity window.
  std::vector<noc::NodeId> nodes;   ///< empty = all nodes
  double start = 0.0;
  double stop = std::numeric_limits<double>::infinity();

  // QoS (reward shaping + per-tenant observation; no effect on traffic).
  QosClass qos = QosClass::kBestEffort;
  /// p95 latency SLO in core cycles; required (> 0) for latency-critical
  /// tenants and must stay 0 for every other class.
  double p95_target = 0.0;

  /// True for tenants materialised by churn expansion (churn.h) rather than
  /// declared by hand; the writer skips them (they are reproduced from the
  /// [churn] block on load) and churn templates may only reference declared
  /// tenants.
  bool churned = false;
};

/// A complete multi-tenant experiment description.
struct Scenario {
  std::string name = "scenario";
  noc::NetworkParams net{};
  std::vector<TenantSpec> tenants;
  /// Run horizon in core cycles of plain runs (`scenarioctl run` without a
  /// [controller] block, run_scenario): tenants stop injecting at it; 0 =
  /// run until every tenant finishes (trace tenants deliver every record,
  /// windowed tenants pass their stop time). Scheduled runs, RL training and
  /// fleets run `epochs x epoch_cycles` router cycles and never read it;
  /// churn expansion still takes it as its default arrival horizon.
  double duration = 0.0;
  /// Router-cycle safety limit for scenario runs.
  std::uint64_t cycle_limit = 2000000;
  /// Optional controller schedule for standalone runs ([controller] block).
  ControllerSchedule controller{};
  /// Optional deterministic fault schedule ([faults] block): transient link
  /// corruption rate, retry policy, and scheduled link-down/slowdown events.
  /// Disabled (all-zero) by default; see noc/faults.h.
  noc::FaultParams faults{};
  /// Optional tenant churn model ([churn] block): a seeded arrival/departure
  /// process expanded deterministically into extra tenants at load time.
  /// Inert by default; see scenario/churn.h.
  ChurnParams churn{};

  int num_tenants() const { return static_cast<int>(tenants.size()); }
  /// Number of hand-declared (non-churned) tenants — the count the writer
  /// serialises and churn templates index into.
  int num_declared_tenants() const;
  /// True when any tenant departs from the default best-effort class; only
  /// then does the RL environment switch reward/features into QoS mode, so
  /// QoS-free scenarios stay bit-identical to pre-QoS behavior.
  bool has_qos() const;

  /// Throws std::invalid_argument on malformed scenarios: no tenants, a
  /// fabric NetworkParams::validate rejects, a steady tenant's or a phase's
  /// pattern, process or rate that noc::make_pattern / noc::make_injection
  /// refuse (unknown names, geometry, rates outside [0, 1] or above burst's
  /// duty cycle; named by tenant and phase), a zero steady rate,
  /// nonpositive/nonfinite rate scales, inverted windows, node ids out of range or duplicated
  /// within a tenant, trace placements that do not cover the trace,
  /// traces addressing more nodes than the fabric has,
  /// a scenario with no finite horizon (every tenant open-ended synthetic
  /// and duration 0 would never terminate), QoS targets that contradict the
  /// class (latency-critical without a p95_target, targets on other
  /// classes), a controller schedule with an unknown type / a drl
  /// schedule without a policy, or a fault schedule that is out of range /
  /// whose cycle-0 link deaths disconnect the topology (fail fast instead
  /// of mid-run).
  void validate() const;
};

/// The scenario an RL environment runs when given none: one whole-fabric
/// kPhased tenant "phased" playing `phases` (empty = the standard 4-phase
/// mix) on `net`, with a duration of one pass through them (the finite
/// horizon validate() asks of an open-ended tenant).
Scenario phased_scenario(const noc::NetworkParams& net,
                         std::vector<noc::Phase> phases = {});

/// Parses a node-set expression over `num_nodes` fabric nodes:
/// "all" (empty result = whole fabric), or a comma list of ids and
/// inclusive ranges, e.g. "0-15", "3,7,12-14". Order is preserved (it is
/// the trace-placement order); duplicates and out-of-range ids throw.
std::vector<noc::NodeId> parse_node_set(const std::string& text,
                                        int num_nodes);

/// Canonical text of a node set ("all" for empty, ranges recompressed).
std::string format_node_set(const std::vector<noc::NodeId>& nodes);

/// Deterministic 64-bit content hash of a scenario's *semantic* fields —
/// the fabric, declared tenants (traces by summary statistics), horizon,
/// faults, and churn parameters. Excludes the controller block (a policy
/// checkpoint records this hash, and the policy lives in the controller
/// block — including it would be circular) and churn-expanded tenants
/// (derived from [churn], which is hashed). Stable across machines and
/// loads; used as drlpol training-scenario provenance.
std::uint64_t content_hash(const Scenario& scenario);
/// content_hash formatted as 16 lowercase hex digits (drlpol header form).
std::string content_hash_hex(const Scenario& scenario);

}  // namespace drlnoc::scenario
