#include "scenario/churn.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "scenario/scenario.h"
#include "util/rng.h"

namespace drlnoc::scenario {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("churn: " + what);
}

/// Uniform double in [0, 1) from the dedicated splitmix64 stream — the same
/// 53-bit construction util::Rng uses, but fed directly from splitmix64 so
/// churn never instantiates (or perturbs) a traffic generator.
double u01(std::uint64_t& state) {
  return static_cast<double>(util::splitmix64(state) >> 11) * 0x1.0p-53;
}

double resolve_horizon(const ChurnParams& churn, double scenario_duration) {
  return churn.horizon > 0.0 ? churn.horizon : scenario_duration;
}

double draw_lifetime(const ChurnTemplate& t, std::uint64_t& state) {
  if (t.lifetime == "fixed") return t.lifetime_mean;
  if (t.lifetime == "uniform") {
    return t.lifetime_min + u01(state) * (t.lifetime_max - t.lifetime_min);
  }
  // exponential; 1 - u > 0 because u < 1, so log() stays finite.
  return -t.lifetime_mean * std::log(1.0 - u01(state));
}

}  // namespace

void ChurnParams::validate(std::size_t declared_tenants,
                           double scenario_duration) const {
  if (!std::isfinite(arrival_rate) || arrival_rate < 0.0) {
    fail("arrival_rate must be finite and >= 0");
  }
  if (!enabled()) {
    if (!templates.empty()) {
      fail("templates declared without an arrival_rate > 0");
    }
    return;
  }
  if (!std::isfinite(horizon) || horizon < 0.0) {
    fail("horizon must be finite and >= 0");
  }
  const double h = resolve_horizon(*this, scenario_duration);
  if (!(h > 0.0) || !std::isfinite(h)) {
    fail("churn needs a finite arrival window: set churn.horizon or give "
         "the scenario a finite duration");
  }
  if (capacity < 0) fail("capacity must be >= 0");
  if (max_arrivals < 1 || max_arrivals > kMaxChurnArrivals) {
    fail("max_arrivals must be in [1, " + std::to_string(kMaxChurnArrivals) +
         "]");
  }
  if (templates.empty()) {
    fail("at least one template is required (templates = N + "
         "templateN.tenant = ...)");
  }
  for (std::size_t i = 0; i < templates.size(); ++i) {
    const ChurnTemplate& t = templates[i];
    const std::string who = "template " + std::to_string(i) + ": ";
    if (t.tenant < 0 ||
        static_cast<std::size_t>(t.tenant) >= declared_tenants) {
      fail(who + "tenant " + std::to_string(t.tenant) +
           " out of range (scenario declares " +
           std::to_string(declared_tenants) + " tenants)");
    }
    if (!(t.weight > 0.0) || !std::isfinite(t.weight)) {
      fail(who + "weight must be finite and > 0");
    }
    if (t.lifetime == "exponential" || t.lifetime == "fixed") {
      if (!(t.lifetime_mean > 0.0) || !std::isfinite(t.lifetime_mean)) {
        fail(who + "lifetime_mean must be finite and > 0 for " + t.lifetime +
             " lifetimes");
      }
    } else if (t.lifetime == "uniform") {
      if (!(t.lifetime_min > 0.0) || !std::isfinite(t.lifetime_max) ||
          t.lifetime_max < t.lifetime_min) {
        fail(who + "uniform lifetimes need 0 < lifetime_min <= lifetime_max");
      }
    } else {
      fail(who + "lifetime must be exponential|fixed|uniform, got '" +
           t.lifetime + "'");
    }
  }
}

std::vector<ChurnInstance> expand_churn_windows(const ChurnParams& churn,
                                                double scenario_duration) {
  std::vector<ChurnInstance> out;
  if (!churn.enabled()) return out;
  const double horizon = resolve_horizon(churn, scenario_duration);

  double total_weight = 0.0;
  for (const ChurnTemplate& t : churn.templates) total_weight += t.weight;

  // Arrival generation draws template + lifetime immediately, so the stream
  // consumed per arrival is fixed: changing capacity (or dropping queued-
  // past-horizon instances) never shifts later arrivals' draws.
  std::uint64_t state = churn.seed;
  double t = 0.0;
  std::vector<ChurnInstance> arrivals;
  std::vector<double> lifetimes;
  while (static_cast<int>(arrivals.size()) < churn.max_arrivals) {
    t += -std::log(1.0 - u01(state)) / churn.arrival_rate;
    if (!(t < horizon)) break;
    // Weighted template pick: walk the cumulative weights.
    double r = u01(state) * total_weight;
    std::size_t pick = 0;
    for (; pick + 1 < churn.templates.size(); ++pick) {
      r -= churn.templates[pick].weight;
      if (r < 0.0) break;
    }
    ChurnInstance inst;
    inst.template_index = static_cast<int>(pick);
    inst.arrival = t;
    arrivals.push_back(inst);
    lifetimes.push_back(draw_lifetime(churn.templates[pick], state));
  }

  // FIFO admission under the capacity cap: an arrival that finds `capacity`
  // instances active starts when the earliest departs (min-heap of stop
  // times). capacity 0 = unlimited.
  std::priority_queue<double, std::vector<double>, std::greater<>> active;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    ChurnInstance inst = arrivals[i];
    double start = inst.arrival;
    bool queued = false;
    if (churn.capacity > 0) {
      while (!active.empty() && active.top() <= inst.arrival) active.pop();
      if (static_cast<int>(active.size()) >= churn.capacity) {
        start = std::max(start, active.top());
        queued = true;
      }
    }
    // Dropped instances must not consume the slot they were waiting for —
    // the occupant departs at active.top(), not at the drop — so the heap
    // is only updated once the instance is actually admitted.
    if (!(start < horizon)) continue;  // queued past the churn window
    inst.start = start;
    inst.stop = start + lifetimes[i];
    if (churn.capacity > 0) {
      if (queued) active.pop();
      active.push(inst.stop);
    }
    out.push_back(inst);
  }
  return out;
}

void expand_churn(Scenario& scenario) {
  // Idempotent: drop any previously expanded instances first, so repeated
  // loads (or re-expansion after editing churn params in code) never stack.
  auto& tenants = scenario.tenants;
  tenants.erase(std::remove_if(tenants.begin(), tenants.end(),
                               [](const TenantSpec& t) { return t.churned; }),
                tenants.end());
  if (!scenario.churn.enabled()) return;
  scenario.churn.validate(tenants.size(), scenario.duration);

  const std::vector<ChurnInstance> instances =
      expand_churn_windows(scenario.churn, scenario.duration);
  const std::size_t declared = tenants.size();
  tenants.reserve(declared + instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const ChurnInstance& inst = instances[i];
    const ChurnTemplate& tmpl =
        scenario.churn.templates[static_cast<std::size_t>(
            inst.template_index)];
    TenantSpec clone = tenants[static_cast<std::size_t>(tmpl.tenant)];
    // '@' rather than '#': instance names flow into Config-style artifacts
    // (fleet result files) where '#' would start a comment.
    clone.name += '@';
    clone.name += std::to_string(i);
    clone.start = inst.start;
    clone.stop = inst.stop;
    clone.churned = true;
    tenants.push_back(std::move(clone));
  }
}

}  // namespace drlnoc::scenario
