#include "scenario/scenario.h"

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>

#include "noc/traffic.h"
#include "util/fnv.h"

namespace drlnoc::scenario {

std::string to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kTrace: return "trace";
    case WorkloadKind::kSteady: return "steady";
    case WorkloadKind::kPhased: return "phased";
  }
  return "?";
}

std::string to_string(QosClass cls) {
  switch (cls) {
    case QosClass::kLatencyCritical: return "latency_critical";
    case QosClass::kBestEffort: return "best_effort";
    case QosClass::kBackground: return "background";
  }
  return "?";
}

QosClass parse_qos_class(const std::string& text) {
  if (text == "latency_critical") return QosClass::kLatencyCritical;
  if (text == "best_effort") return QosClass::kBestEffort;
  if (text == "background") return QosClass::kBackground;
  throw std::invalid_argument(
      "scenario: qos must be latency_critical|best_effort|background, got '" +
      text + "'");
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("scenario: " + what);
}

/// Builds a pattern and a process through make_pattern / make_injection, the
/// one home of their name, geometry and rate rules, and refuses what they
/// refuse under `who`.
void validate_traffic(const std::string& who, const std::string& pattern,
                      const std::string& process, double rate,
                      const noc::Topology& topo) {
  try {
    noc::make_pattern(pattern, topo);
    noc::make_injection(process, topo.num_nodes(), rate);
  } catch (const std::invalid_argument& e) {
    fail(who + e.what());
  }
}

void validate_tenant(const TenantSpec& t, const noc::Topology& topo,
                     int index) {
  const int num_nodes = topo.num_nodes();
  const std::string who = "tenant " + std::to_string(index) + " ('" + t.name +
                          "'): ";
  if (t.name.empty()) fail("tenant " + std::to_string(index) + " has no name");
  if (!(t.start >= 0.0) || !std::isfinite(t.start)) {
    fail(who + "start must be finite and >= 0");
  }
  if (!(t.stop > t.start)) fail(who + "stop must be > start");

  std::set<noc::NodeId> seen;
  for (noc::NodeId n : t.nodes) {
    if (n < 0 || n >= num_nodes) {
      fail(who + "node " + std::to_string(n) + " out of range (fabric has " +
           std::to_string(num_nodes) + " nodes)");
    }
    if (!seen.insert(n).second) {
      fail(who + "node " + std::to_string(n) + " listed twice");
    }
  }

  if (t.qos == QosClass::kLatencyCritical) {
    if (!(t.p95_target > 0.0) || !std::isfinite(t.p95_target)) {
      fail(who + "latency_critical requires a finite p95_target > 0 "
           "core cycles (got " + std::to_string(t.p95_target) + ")");
    }
  } else if (t.p95_target != 0.0) {
    fail(who + "p95_target is only meaningful for latency_critical tenants");
  }

  switch (t.kind) {
    case WorkloadKind::kTrace: {
      if (!t.trace) fail(who + "trace workload without a trace");
      t.trace->validate();
      if (!(t.rate_scale > 0.0) || !std::isfinite(t.rate_scale)) {
        fail(who + "rate_scale must be finite and > 0 (got " +
             std::to_string(t.rate_scale) + ")");
      }
      const int span = t.nodes.empty() ? num_nodes
                                       : static_cast<int>(t.nodes.size());
      if (t.trace->nodes > span) {
        fail(who + "trace addresses " + std::to_string(t.trace->nodes) +
             " nodes but the placement covers only " + std::to_string(span));
      }
      break;
    }
    case WorkloadKind::kSteady:
      if (!(t.rate > 0.0)) {
        fail(who + "rate must be > 0 (got " + std::to_string(t.rate) + ")");
      }
      validate_traffic(who, t.pattern, t.process, t.rate, topo);
      break;
    case WorkloadKind::kPhased: {
      if (t.phases.empty() &&
          (!(t.phase_scale > 0.0) || !std::isfinite(t.phase_scale))) {
        fail(who + "phase_scale must be finite and > 0 (got " +
             std::to_string(t.phase_scale) + ")");
      }
      const std::vector<noc::Phase> phases =
          t.phases.empty()
              ? noc::PhasedWorkload::standard_phases(topo, t.phase_scale)
              : t.phases;
      for (std::size_t k = 0; k < phases.size(); ++k) {
        const noc::Phase& ph = phases[k];
        const std::string phase = "phase " + std::to_string(k) + " ";
        validate_traffic(who + phase, ph.pattern, ph.process, ph.rate, topo);
        if (!(ph.duration_core_cycles > 0.0)) {
          fail(who + phase + "duration must be > 0");
        }
        // Packet lengths travel as 16-bit flit counts; 0 is the network
        // default.
        if (ph.flits_per_packet < 0 || ph.flits_per_packet > 65535) {
          fail(who + phase + "flits must be in [0, 65535] (0 = the network "
               "default), got " + std::to_string(ph.flits_per_packet));
        }
      }
      break;
    }
  }
}

void validate_controller(const ControllerSchedule& c) {
  if (!c.scheduled()) {
    if (!c.policy_file.empty() || !c.policy_blob.empty()) {
      fail("controller policy set without a controller type");
    }
    return;
  }
  if (c.type != "drl" && c.type != "heuristic" && c.type != "static-max" &&
      c.type != "static-min") {
    fail("controller type must be drl|heuristic|static-max|static-min, "
         "got '" + c.type + "'");
  }
  if (c.type == "drl") {
    if (c.policy_blob.empty()) {
      fail("drl controller schedule requires a trained policy "
           "(controller.policy = <file saved with DqnAgent::save>)");
    }
  } else if (!c.policy_file.empty() || !c.policy_blob.empty()) {
    fail("controller policy is only meaningful for drl schedules");
  }
  if (!c.policy_pin.empty()) {
    if (c.type != "drl") fail("controller pin is only meaningful for drl "
                              "schedules");
    if (!util::is_hex16(c.policy_pin)) {
      fail("controller pin '" + c.policy_pin +
           "' is not a policy fingerprint (expected 16 lowercase hex "
           "digits)");
    }
  }
  if (c.epoch_cycles == 0) fail("controller epoch_cycles must be > 0");
  if (c.epochs <= 0) fail("controller epochs must be > 0");
}

}  // namespace

int Scenario::num_declared_tenants() const {
  int n = 0;
  for (const TenantSpec& t : tenants) {
    if (!t.churned) ++n;
  }
  return n;
}

bool Scenario::has_qos() const {
  for (const TenantSpec& t : tenants) {
    if (t.qos != QosClass::kBestEffort) return true;
  }
  return false;
}

void Scenario::validate() const {
  if (tenants.empty()) fail("no tenants");
  net.validate();
  // Traffic and fault checks need the geometry.
  const noc::Topology topo =
      noc::make_topology(net.topology, net.width, net.height);
  if (!(duration >= 0.0) || !std::isfinite(duration)) {
    fail("duration must be finite and >= 0");
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    validate_tenant(tenants[i], topo, static_cast<int>(i));
  }
  validate_controller(controller);
  churn.validate(static_cast<std::size_t>(num_declared_tenants()), duration);
  faults.validate();
  // Includes the fail-fast rejection of cycle-0 link deaths that disconnect
  // the fabric.
  if (faults.enabled()) faults.validate(topo);
  if (duration == 0.0) {
    // Without a horizon the run ends when every tenant finishes; an
    // open-ended synthetic tenant would spin to the cycle limit. Looping
    // traces are equally unbounded.
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const TenantSpec& t = tenants[i];
      const bool bounded_by_trace =
          t.kind == WorkloadKind::kTrace && !t.loop;
      if (!bounded_by_trace && std::isinf(t.stop)) {
        fail("tenant " + std::to_string(i) + " ('" + t.name +
             "') never finishes; set duration= or give it a stop= window");
      }
    }
  }
}

std::vector<noc::NodeId> parse_node_set(const std::string& text,
                                        int num_nodes) {
  std::vector<noc::NodeId> out;
  if (text.empty() || text == "all") return out;
  std::istringstream in(text);
  std::string item;
  std::set<noc::NodeId> seen;
  const auto append = [&](noc::NodeId n) {
    if (!seen.insert(n).second) {
      fail("node " + std::to_string(n) + " listed twice in node set '" +
           text + "'");
    }
    out.push_back(n);
  };
  const auto parse_id = [&](const std::string& s) -> noc::NodeId {
    std::size_t used = 0;
    int v = 0;
    try {
      v = std::stoi(s, &used);
    } catch (const std::exception&) {
      fail("bad node id '" + s + "' in node set '" + text + "'");
    }
    if (used != s.size()) {
      fail("bad node id '" + s + "' in node set '" + text + "'");
    }
    if (v < 0 || v >= num_nodes) {
      fail("node " + std::to_string(v) + " out of range in node set '" +
           text + "' (fabric has " + std::to_string(num_nodes) + " nodes)");
    }
    return v;
  };
  while (std::getline(in, item, ',')) {
    if (item.empty()) fail("empty entry in node set '" + text + "'");
    const auto dash = item.find('-');
    if (dash == std::string::npos) {
      append(parse_id(item));
      continue;
    }
    const noc::NodeId lo = parse_id(item.substr(0, dash));
    const noc::NodeId hi = parse_id(item.substr(dash + 1));
    if (hi < lo) fail("inverted range '" + item + "' in node set");
    for (noc::NodeId n = lo; n <= hi; ++n) append(n);
  }
  return out;
}

namespace {

/// Order-sensitive FNV-1a accumulation. Every field is hashed through a
/// fixed textual rendering with a type tag, so two scenarios collide only
/// when their semantic fields agree — field reordering or adjacent-field
/// concatenation cannot alias (each token is '\0'-terminated).
struct ContentHasher {
  util::Fnv1a64 h;

  void bytes(const std::string& s) { h.bytes(s).byte(0); }
  void str(const std::string& s) { bytes(s); }
  void i64(long long v) { bytes(std::to_string(v)); }
  void u64(std::uint64_t v) { bytes(std::to_string(v)); }
  void f64(double v) {
    // Shortest round-trippable rendering; infinities hash as a token.
    if (std::isinf(v)) {
      bytes(v > 0 ? "inf" : "-inf");
      return;
    }
    std::ostringstream os;
    os.precision(17);
    os << v;
    bytes(os.str());
  }
};

}  // namespace

std::uint64_t content_hash(const Scenario& scenario) {
  ContentHasher hh;
  hh.str("drlsc-content-1");  // hash-schema version
  hh.str(scenario.name);

  const noc::NetworkParams& np = scenario.net;
  hh.str(np.topology);
  hh.i64(np.width);
  hh.i64(np.height);
  hh.str(np.routing);
  hh.i64(np.max_vcs);
  hh.i64(np.max_depth);
  hh.i64(np.flits_per_packet);
  hh.u64(np.link_latency);
  hh.i64(np.pipeline_stages);
  hh.u64(np.seed);
  hh.i64(np.initial_config.active_vcs);
  hh.i64(np.initial_config.active_depth);
  hh.i64(np.initial_config.dvfs_level);

  // Declared tenants only: churned tenants are a pure function of the
  // [churn] block (hashed below), and hashing them would make the hash
  // depend on whether churn expansion ran before or after hashing.
  for (const TenantSpec& t : scenario.tenants) {
    if (t.churned) continue;
    hh.str("tenant");
    hh.str(t.name);
    hh.str(to_string(t.kind));
    if (t.kind == WorkloadKind::kTrace && t.trace) {
      // Traces are hashed by their summary statistics, not their bytes:
      // cheap, stable across storage format, and specific enough that two
      // different workloads virtually never agree on all six.
      const trace::TraceSummary s = t.trace->summary();
      hh.i64(t.trace->nodes);
      hh.u64(s.records);
      hh.u64(s.roots);
      hh.u64(s.dep_edges);
      hh.f64(s.span);
      hh.u64(s.total_flits);
      hh.f64(t.rate_scale);
      hh.i64(t.loop ? 1 : 0);
    }
    hh.str(t.pattern);
    hh.str(t.process);
    hh.f64(t.rate);
    hh.i64(static_cast<long long>(t.phases.size()));
    for (const noc::Phase& ph : t.phases) {
      hh.str(ph.pattern);
      hh.f64(ph.rate);
      hh.f64(ph.duration_core_cycles);
      hh.str(ph.process);
      hh.i64(ph.flits_per_packet);
    }
    hh.f64(t.phase_scale);
    hh.i64(static_cast<long long>(t.nodes.size()));
    for (noc::NodeId n : t.nodes) hh.i64(n);
    hh.f64(t.start);
    hh.f64(t.stop);
    hh.str(to_string(t.qos));
    hh.f64(t.p95_target);
  }

  hh.f64(scenario.duration);
  hh.u64(scenario.cycle_limit);

  const noc::FaultParams& fp = scenario.faults;
  hh.u64(fp.seed);
  hh.f64(fp.link_fault_rate);
  hh.u64(fp.retry_timeout);
  hh.f64(fp.retry_backoff);
  hh.i64(fp.retry_budget);
  hh.i64(static_cast<long long>(fp.events.size()));
  for (const noc::FaultEvent& e : fp.events) {
    hh.u64(e.at_cycle);
    hh.i64(static_cast<int>(e.kind));
    hh.i64(e.node);
    hh.i64(e.port);
    hh.i64(e.factor);
  }

  const ChurnParams& cp = scenario.churn;
  hh.u64(cp.seed);
  hh.f64(cp.arrival_rate);
  hh.f64(cp.horizon);
  hh.i64(cp.capacity);
  hh.i64(cp.max_arrivals);
  hh.i64(static_cast<long long>(cp.templates.size()));
  for (const ChurnTemplate& t : cp.templates) {
    hh.i64(t.tenant);
    hh.f64(t.weight);
    hh.str(t.lifetime);
    hh.f64(t.lifetime_mean);
    hh.f64(t.lifetime_min);
    hh.f64(t.lifetime_max);
  }
  return hh.h.value();
}

std::string content_hash_hex(const Scenario& scenario) {
  return util::hex16(content_hash(scenario));
}

Scenario phased_scenario(const noc::NetworkParams& net,
                         std::vector<noc::Phase> phases) {
  if (phases.empty()) {
    phases = noc::PhasedWorkload::standard_phases(
        noc::make_topology(net.topology, net.width, net.height));
  }
  Scenario s;
  s.name = "phased";
  s.net = net;
  for (const noc::Phase& ph : phases) s.duration += ph.duration_core_cycles;
  TenantSpec t;
  t.name = "phased";
  t.kind = WorkloadKind::kPhased;
  t.phases = std::move(phases);
  s.tenants.push_back(std::move(t));
  return s;
}

std::string format_node_set(const std::vector<noc::NodeId>& nodes) {
  if (nodes.empty()) return "all";
  std::ostringstream os;
  std::size_t i = 0;
  while (i < nodes.size()) {
    std::size_t j = i;
    while (j + 1 < nodes.size() && nodes[j + 1] == nodes[j] + 1) ++j;
    if (i > 0) os << ",";
    if (j > i + 1) {
      os << nodes[i] << "-" << nodes[j];
    } else {
      os << nodes[i];
      if (j == i + 1) os << "," << nodes[j];
    }
    i = j + 1;
  }
  return os.str();
}

}  // namespace drlnoc::scenario
