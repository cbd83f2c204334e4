// Tenant churn: a seeded stochastic arrival/departure process that turns a
// handful of declared tenant *templates* into a population of concrete
// tenant instances with [start, stop) activity windows — the production
// multi-tenancy shape, where tenants come and go instead of being scripted.
//
// The model is expanded ONCE, deterministically, at scenario load time
// (`expand_churn`): arrivals follow a Poisson process, each arrival clones a
// weighted template and draws a lifetime from that template's distribution,
// and an admission queue with a capacity cap delays starts while the fabric
// is full (FIFO: an arrival that finds `capacity` tenants active starts when
// the earliest of them departs). All randomness comes from a dedicated
// splitmix64-derived stream seeded by `ChurnParams::seed` — no util::Rng is
// constructed and no traffic RNG is touched, so scenarios without [churn]
// are bit-identical to a build without this file, and churned scenarios are
// bit-identical at any --jobs count (the expansion happens before any
// simulation state exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace drlnoc::scenario {

struct Scenario;

/// One churn template: which declared tenant arrivals clone, how likely this
/// template is relative to its siblings, and how long its instances live.
struct ChurnTemplate {
  int tenant = -1;     ///< index of the declared tenant this clones
  double weight = 1.0; ///< relative selection probability (> 0)
  /// Lifetime distribution: "exponential" (mean = lifetime_mean),
  /// "fixed" (always lifetime_mean), or "uniform" ([lifetime_min,
  /// lifetime_max]). Lifetimes are core cycles.
  std::string lifetime = "exponential";
  double lifetime_mean = 0.0;
  double lifetime_min = 0.0;
  double lifetime_max = 0.0;
};

/// Largest accepted ChurnParams::max_arrivals, so no [churn] block expands
/// into more churned tenants than this.
inline constexpr int kMaxChurnArrivals = 1 << 16;

/// The `[churn]` block of a `.drlsc` scenario. `arrival_rate > 0` enables
/// the model; a default-constructed ChurnParams is inert and serialises to
/// nothing, so churn-free scenarios stay byte-identical.
struct ChurnParams {
  std::uint64_t seed = 1;
  /// Expected tenant arrivals per core cycle (Poisson process); 0 disables.
  double arrival_rate = 0.0;
  /// Arrivals are generated over [0, horizon) core cycles; 0 means "use the
  /// scenario's duration" (which must then be finite and > 0).
  double horizon = 0.0;
  /// Maximum concurrently active churned tenants; arrivals beyond it queue
  /// (FIFO) until a slot frees. 0 = unlimited (no queueing).
  int capacity = 0;
  /// Safety cap on generated arrivals, so a mistyped rate cannot expand a
  /// scenario into millions of tenants.
  int max_arrivals = 4096;
  std::vector<ChurnTemplate> templates;

  bool enabled() const { return arrival_rate > 0.0; }

  /// Throws std::invalid_argument on malformed parameters: nonfinite or
  /// negative rates, no templates, template tenant indices outside the
  /// declared (non-churned) tenants, nonpositive weights, unknown lifetime
  /// distributions or out-of-range lifetime parameters, no finite horizon.
  /// `declared_tenants` is the number of hand-declared tenants;
  /// `scenario_duration` resolves a zero horizon.
  void validate(std::size_t declared_tenants, double scenario_duration) const;
};

/// One expanded arrival, exposed for tests and `describe` tooling.
struct ChurnInstance {
  int template_index = 0;
  double arrival = 0.0;  ///< Poisson arrival time (core cycles)
  double start = 0.0;    ///< admission time (>= arrival under a capacity cap)
  double stop = 0.0;     ///< start + drawn lifetime
};

/// Pure expansion of the arrival/admission process — the tenant windows a
/// given ChurnParams produces, independent of any Scenario. Instances whose
/// admission would begin at or after the horizon are dropped (they queued
/// past the churn window).
std::vector<ChurnInstance> expand_churn_windows(const ChurnParams& churn,
                                                double scenario_duration);

/// Expands `scenario.churn` into concrete tenants appended to
/// `scenario.tenants` (each a clone of its template with the instance's
/// window, `churned = true`, and a "name@seq" name). Previously expanded
/// instances are removed first, so the call is idempotent. No-op when churn
/// is disabled. Throws like ChurnParams::validate on bad parameters.
void expand_churn(Scenario& scenario);

}  // namespace drlnoc::scenario
