#include "scenario/scenario_io.h"

#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "trace/trace_io.h"
#include "util/config.h"
#include "util/versioned_text.h"

namespace drlnoc::scenario {

namespace {

using util::TrackedConfig;

TenantSpec parse_tenant(const TrackedConfig& c, int index, int num_nodes,
                        const std::string& base_dir) {
  const std::string p = "tenant" + std::to_string(index) + ".";
  TenantSpec t;
  t.name = c.str(p + "name", "tenant" + std::to_string(index));
  const std::string kind = c.str(p + "workload", "steady");
  if (kind == "trace") {
    t.kind = WorkloadKind::kTrace;
  } else if (kind == "steady") {
    t.kind = WorkloadKind::kSteady;
  } else if (kind == "phased") {
    t.kind = WorkloadKind::kPhased;
  } else {
    throw std::invalid_argument("scenario: " + p + "workload must be "
                                "trace|steady|phased, got '" + kind + "'");
  }

  switch (t.kind) {
    case WorkloadKind::kTrace: {
      t.trace_file = c.str(p + "trace", "");
      if (t.trace_file.empty()) {
        throw std::invalid_argument("scenario: " + p +
                                    "trace is required for trace tenants");
      }
      t.trace = std::make_shared<const trace::Trace>(
          trace::TraceReader::read_file(
              util::join_path(base_dir, t.trace_file)));
      t.rate_scale = c.get(p + "rate_scale", t.rate_scale);
      t.loop = c.get(p + "loop", t.loop);
      break;
    }
    case WorkloadKind::kSteady:
      t.pattern = c.str(p + "pattern", t.pattern);
      t.process = c.str(p + "process", t.process);
      t.rate = c.get(p + "rate", t.rate);
      break;
    case WorkloadKind::kPhased: {
      t.phase_scale = c.get(p + "phase_scale", t.phase_scale);
      const int phases = c.get(p + "phases", 0);
      for (int k = 0; k < phases; ++k) {
        const std::string pp = p + "phase" + std::to_string(k) + ".";
        noc::Phase ph;
        ph.pattern = c.str(pp + "pattern", ph.pattern);
        ph.rate = c.get(pp + "rate", ph.rate);
        ph.duration_core_cycles =
            c.get(pp + "duration", ph.duration_core_cycles);
        ph.process = c.str(pp + "process", ph.process);
        ph.flits_per_packet = c.get(pp + "flits", ph.flits_per_packet);
        t.phases.push_back(ph);
      }
      break;
    }
  }

  t.nodes = parse_node_set(c.str(p + "nodes", "all"), num_nodes);
  t.start = c.get(p + "start", t.start);
  t.stop = c.get(p + "stop", t.stop);
  if (c.has(p + "qos")) t.qos = parse_qos_class(c.str(p + "qos", ""));
  t.p95_target = c.get(p + "p95_target", t.p95_target);
  return t;
}

noc::FaultParams parse_faults(const TrackedConfig& c) {
  noc::FaultParams f;
  f.seed = static_cast<std::uint64_t>(
      c.get("faults.seed", static_cast<long long>(f.seed)));
  f.link_fault_rate = c.get("faults.link_fault_rate", f.link_fault_rate);
  const long long timeout = c.get("faults.retry_timeout",
                                  static_cast<long long>(f.retry_timeout));
  if (timeout < 1) {
    // Checked before the uint64 cast (same wrap hazard as epoch_cycles).
    throw std::invalid_argument(
        "scenario: faults.retry_timeout must be >= 1, got " +
        std::to_string(timeout));
  }
  f.retry_timeout = static_cast<noc::Cycle>(timeout);
  f.retry_backoff = c.get("faults.retry_backoff", f.retry_backoff);
  f.retry_budget = c.get("faults.retry_budget", f.retry_budget);
  const int events = c.get("faults.events", 0);
  if (events < 0) {
    throw std::invalid_argument("scenario: faults.events must be >= 0");
  }
  for (int k = 0; k < events; ++k) {
    const std::string ep = "faults.event" + std::to_string(k) + ".";
    noc::FaultEvent e;
    const long long at = c.get(ep + "at_cycle", 0LL);
    if (at < 0) {
      throw std::invalid_argument("scenario: " + ep +
                                  "at_cycle must be >= 0");
    }
    e.at_cycle = static_cast<noc::Cycle>(at);
    const std::string kind = c.str(ep + "kind", "link_down");
    if (kind == "link_down") {
      e.kind = noc::FaultEvent::Kind::kLinkDown;
    } else if (kind == "slowdown") {
      e.kind = noc::FaultEvent::Kind::kSlowdown;
    } else {
      throw std::invalid_argument("scenario: " + ep +
                                  "kind must be link_down|slowdown, got '" +
                                  kind + "'");
    }
    e.node = c.get(ep + "node", e.node);
    e.port = c.get(ep + "port", e.port);
    e.factor = c.get(ep + "factor", e.factor);
    f.events.push_back(e);
  }
  // Range/shape checks fire here so a bad file is rejected with the faults:
  // message even before Scenario::validate runs.
  f.validate();
  return f;
}

ChurnParams parse_churn(const TrackedConfig& c) {
  ChurnParams ch;
  ch.seed = static_cast<std::uint64_t>(
      c.get("churn.seed", static_cast<long long>(ch.seed)));
  ch.arrival_rate = c.get("churn.arrival_rate", ch.arrival_rate);
  ch.horizon = c.get("churn.horizon", ch.horizon);
  ch.capacity = c.get("churn.capacity", ch.capacity);
  ch.max_arrivals = c.get("churn.max_arrivals", ch.max_arrivals);
  const int templates = c.get("churn.templates", 0);
  if (templates < 0) {
    throw std::invalid_argument("scenario: churn.templates must be >= 0");
  }
  for (int k = 0; k < templates; ++k) {
    const std::string tp = "churn.template" + std::to_string(k) + ".";
    ChurnTemplate t;
    t.tenant = c.get(tp + "tenant", t.tenant);
    t.weight = c.get(tp + "weight", t.weight);
    t.lifetime = c.str(tp + "lifetime", t.lifetime);
    t.lifetime_mean = c.get(tp + "lifetime_mean", t.lifetime_mean);
    t.lifetime_min = c.get(tp + "lifetime_min", t.lifetime_min);
    t.lifetime_max = c.get(tp + "lifetime_max", t.lifetime_max);
    ch.templates.push_back(t);
  }
  return ch;
}

ControllerSchedule parse_controller(const TrackedConfig& c,
                                    const std::string& base_dir) {
  ControllerSchedule ctl;
  ctl.type = c.str("controller.type", "");
  ctl.policy_file = c.str("controller.policy", "");
  ctl.policy_pin = c.str("controller.pin", "");
  const long long cycles = c.get("controller.epoch_cycles",
                                 static_cast<long long>(ctl.epoch_cycles));
  if (cycles <= 0) {
    // Checked before the uint64 cast: a negative value would wrap to ~2^64
    // and pass the ==0 validation, hanging scheduled runs.
    throw std::invalid_argument(
        "scenario: controller.epoch_cycles must be > 0, got " +
        std::to_string(cycles));
  }
  ctl.epoch_cycles = static_cast<std::uint64_t>(cycles);
  ctl.epochs = c.get("controller.epochs", ctl.epochs);
  if (ctl.type.empty() && !ctl.policy_file.empty()) {
    throw std::invalid_argument(
        "scenario: controller.policy set without controller.type");
  }
  if (!ctl.policy_file.empty()) {
    const std::string path = util::join_path(base_dir, ctl.policy_file);
    std::optional<std::string> blob = util::read_file_bytes(path);
    if (!blob) {
      throw std::invalid_argument(
          "scenario: controller policy file not found: " + path);
    }
    ctl.policy_blob = std::move(*blob);
  }
  return ctl;
}

}  // namespace

Scenario ScenarioReader::read_text(const std::string& text,
                                   const std::string& base_dir) {
  return read_text(text, base_dir, {});
}

Scenario ScenarioReader::read_text(
    const std::string& text, const std::string& base_dir,
    const std::map<std::string, std::string>& overrides) {
  util::Config cfg = util::parse_versioned_text(
      text, {"drlsc", kScenarioFormatVersion, "scenario",
             {"controller", "faults", "churn"}});
  // Overrides (fleet axis values) land after the file's keys, under the same
  // flattened names the sections produce ("tenant0.rate", "churn.capacity");
  // unknown override keys fail the unknown-key check below like typos do.
  for (const auto& [key, value] : overrides) {
    cfg.set(key, value);
    cfg.set_line(key, 0);  // value came from the override, not the file line
  }

  const TrackedConfig c(cfg);

  Scenario s;
  s.name = c.str("name", s.name);
  s.net.topology = c.str("topology", s.net.topology);
  if (c.has("size")) {
    s.net.width = s.net.height = c.get("size", s.net.width);
  }
  s.net.width = c.get("width", s.net.width);
  s.net.height = c.get("height", s.net.height);
  s.net.routing = c.str("routing", s.net.routing);
  s.net.max_vcs = c.get("max_vcs", s.net.max_vcs);
  s.net.max_depth = c.get("max_depth", s.net.max_depth);
  s.net.flits_per_packet = c.get("flits_per_packet", s.net.flits_per_packet);
  s.net.link_latency = static_cast<noc::Cycle>(
      c.get("link_latency", static_cast<long long>(s.net.link_latency)));
  s.net.pipeline_stages = c.get("pipeline_stages", s.net.pipeline_stages);
  s.net.seed =
      static_cast<std::uint64_t>(c.get("seed", static_cast<long long>(1)));
  s.duration = c.get("duration", s.duration);
  s.cycle_limit = static_cast<std::uint64_t>(
      c.get("cycle_limit", static_cast<long long>(s.cycle_limit)));

  const int tenants = c.get("tenants", 0);
  if (tenants <= 0) {
    throw std::invalid_argument("scenario: tenants must be >= 1");
  }
  const int num_nodes = s.net.width * s.net.height;
  for (int i = 0; i < tenants; ++i) {
    s.tenants.push_back(parse_tenant(c, i, num_nodes, base_dir));
  }
  s.controller = parse_controller(c, base_dir);
  s.faults = parse_faults(c);
  s.churn = parse_churn(c);

  c.reject_unknown("scenario");
  // Materialise churn arrivals as concrete tenants before validation, so the
  // returned scenario is fully expanded and validate() covers the instances.
  expand_churn(s);
  s.validate();
  return s;
}

Scenario ScenarioReader::read_file(const std::string& path) {
  return util::read_text_file(
      path, "scenario",
      [](const std::string& text, const std::string& base_dir) {
        return read_text(text, base_dir);
      });
}

void ScenarioWriter::write_text(std::ostream& os, const Scenario& s) {
  s.validate();
  os << "drlsc " << kScenarioFormatVersion << "\n";
  os << "name = " << s.name << "\n";
  os << "topology = " << s.net.topology << "\n";
  os << "width = " << s.net.width << "\n";
  os << "height = " << s.net.height << "\n";
  os << "routing = " << s.net.routing << "\n";
  os << "max_vcs = " << s.net.max_vcs << "\n";
  os << "max_depth = " << s.net.max_depth << "\n";
  os << "flits_per_packet = " << s.net.flits_per_packet << "\n";
  os << "link_latency = " << s.net.link_latency << "\n";
  os << "pipeline_stages = " << s.net.pipeline_stages << "\n";
  os << "seed = " << s.net.seed << "\n";
  const std::streamsize old_precision = os.precision(17);
  os << "duration = " << s.duration << "\n";
  os << "cycle_limit = " << s.cycle_limit << "\n";
  // Churned instances are reproduced from the [churn] block on load, so
  // only hand-declared tenants serialise — the round trip re-expands them
  // bit-identically (expansion is a pure function of the churn parameters).
  os << "tenants = " << s.num_declared_tenants() << "\n";
  std::size_t index = 0;
  for (const TenantSpec& t : s.tenants) {
    if (t.churned) continue;
    const std::string p = "tenant" + std::to_string(index++) + ".";
    os << "\n" << p << "name = " << t.name << "\n";
    os << p << "workload = " << to_string(t.kind) << "\n";
    switch (t.kind) {
      case WorkloadKind::kTrace:
        if (t.trace_file.empty()) {
          throw std::invalid_argument(
              "scenario: tenant '" + t.name +
              "' holds an in-memory trace; write it to a file and set "
              "trace_file before serialising");
        }
        os << p << "trace = " << t.trace_file << "\n";
        os << p << "rate_scale = " << t.rate_scale << "\n";
        os << p << "loop = " << (t.loop ? "true" : "false") << "\n";
        break;
      case WorkloadKind::kSteady:
        os << p << "pattern = " << t.pattern << "\n";
        os << p << "process = " << t.process << "\n";
        os << p << "rate = " << t.rate << "\n";
        break;
      case WorkloadKind::kPhased:
        if (t.phases.empty()) {
          os << p << "phase_scale = " << t.phase_scale << "\n";
        } else {
          os << p << "phases = " << t.phases.size() << "\n";
          for (std::size_t k = 0; k < t.phases.size(); ++k) {
            const noc::Phase& ph = t.phases[k];
            const std::string pp = p + "phase" + std::to_string(k) + ".";
            os << pp << "pattern = " << ph.pattern << "\n";
            os << pp << "rate = " << ph.rate << "\n";
            os << pp << "duration = " << ph.duration_core_cycles << "\n";
            os << pp << "process = " << ph.process << "\n";
            os << pp << "flits = " << ph.flits_per_packet << "\n";
          }
        }
        break;
    }
    os << p << "nodes = " << format_node_set(t.nodes) << "\n";
    os << p << "start = " << t.start << "\n";
    os << p << "stop = " << t.stop << "\n";
    // QoS lines only when the tenant departs from the default, so QoS-free
    // scenarios serialise exactly as they did before the QoS extension.
    if (t.qos != QosClass::kBestEffort) {
      os << p << "qos = " << to_string(t.qos) << "\n";
      if (t.qos == QosClass::kLatencyCritical) {
        os << p << "p95_target = " << t.p95_target << "\n";
      }
    }
  }
  if (s.controller.scheduled()) {
    os << "\n[controller]\n";
    os << "type = " << s.controller.type << "\n";
    if (s.controller.type == "drl") {
      if (s.controller.policy_file.empty()) {
        throw std::invalid_argument(
            "scenario: the drl controller schedule holds an in-memory "
            "policy; write it to a file and set policy_file before "
            "serialising");
      }
      os << "policy = " << s.controller.policy_file << "\n";
      if (!s.controller.policy_pin.empty()) {
        os << "pin = " << s.controller.policy_pin << "\n";
      }
    }
    os << "epoch_cycles = " << s.controller.epoch_cycles << "\n";
    os << "epochs = " << s.controller.epochs << "\n";
  }
  // The [churn] block only appears when churn is enabled, so churn-free
  // scenarios serialise exactly as before the churn extension.
  if (s.churn.enabled()) {
    os << "\n[churn]\n";
    os << "seed = " << s.churn.seed << "\n";
    os << "arrival_rate = " << s.churn.arrival_rate << "\n";
    if (s.churn.horizon > 0.0) os << "horizon = " << s.churn.horizon << "\n";
    if (s.churn.capacity > 0) os << "capacity = " << s.churn.capacity << "\n";
    os << "max_arrivals = " << s.churn.max_arrivals << "\n";
    os << "templates = " << s.churn.templates.size() << "\n";
    for (std::size_t k = 0; k < s.churn.templates.size(); ++k) {
      const ChurnTemplate& t = s.churn.templates[k];
      const std::string tp = "template" + std::to_string(k) + ".";
      os << tp << "tenant = " << t.tenant << "\n";
      os << tp << "weight = " << t.weight << "\n";
      os << tp << "lifetime = " << t.lifetime << "\n";
      if (t.lifetime == "uniform") {
        os << tp << "lifetime_min = " << t.lifetime_min << "\n";
        os << tp << "lifetime_max = " << t.lifetime_max << "\n";
      } else {
        os << tp << "lifetime_mean = " << t.lifetime_mean << "\n";
      }
    }
  }
  // The [faults] block only appears when faults are configured, so
  // fault-free scenarios serialise exactly as before the fault extension.
  if (s.faults.enabled()) {
    os << "\n[faults]\n";
    os << "seed = " << s.faults.seed << "\n";
    os << "link_fault_rate = " << s.faults.link_fault_rate << "\n";
    os << "retry_timeout = " << s.faults.retry_timeout << "\n";
    os << "retry_backoff = " << s.faults.retry_backoff << "\n";
    os << "retry_budget = " << s.faults.retry_budget << "\n";
    if (!s.faults.events.empty()) {
      os << "events = " << s.faults.events.size() << "\n";
      for (std::size_t k = 0; k < s.faults.events.size(); ++k) {
        const noc::FaultEvent& ev = s.faults.events[k];
        const std::string ep = "event" + std::to_string(k) + ".";
        os << ep << "at_cycle = " << ev.at_cycle << "\n";
        os << ep << "kind = " << noc::to_string(ev.kind) << "\n";
        os << ep << "node = " << ev.node << "\n";
        if (ev.kind == noc::FaultEvent::Kind::kLinkDown) {
          os << ep << "port = " << ev.port << "\n";
        } else {
          os << ep << "factor = " << ev.factor << "\n";
        }
      }
    }
  }
  os.precision(old_precision);
}

void ScenarioWriter::write_file(const std::string& path,
                                const Scenario& scenario) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("scenario: cannot write " + path);
  }
  write_text(out, scenario);
  if (!out) {
    throw std::runtime_error("scenario: write failed for " + path);
  }
}

}  // namespace drlnoc::scenario
