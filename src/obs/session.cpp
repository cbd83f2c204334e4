#include "obs/session.h"

#include <cmath>
#include <fstream>

#include "noc/network.h"
#include "obs/profiler.h"
#include "scenario/scenario.h"
#include "util/config.h"
#include "util/log.h"

namespace drlnoc::obs {

ObsOptions ObsOptions::from_config(const util::Config& cfg) {
  ObsOptions opts;
  opts.trace_out = cfg.get("trace-out", std::string());
  opts.metrics_out = cfg.get("metrics-out", std::string());
  opts.sample_rate = cfg.get("trace-sample", opts.sample_rate);
  const std::uint64_t cap = cfg.get("trace-capacity", std::uint64_t{0});
  if (cap > 0) opts.capacity = cap;
  return opts;
}

std::string heatmap_path_for(const std::string& metrics_path) {
  std::string base = metrics_path;
  const std::string ext = ".json";
  if (base.size() > ext.size() &&
      base.compare(base.size() - ext.size(), ext.size(), ext) == 0) {
    base.resize(base.size() - ext.size());
  }
  return base + "_heatmap.csv";
}

ObsSession::ObsSession(ObsOptions opts) : options_(std::move(opts)) {
  if (!options_.enabled()) return;
  if (!options_.trace_out.empty()) {
    FlightRecorderParams rp;
    rp.capacity = options_.capacity;
    rp.sample_rate = options_.sample_rate;
    recorder_ = std::make_unique<FlightRecorder>(rp);
  }
  Profiler::instance().reset();
  Profiler::instance().set_enabled(true);
}

ObsSession::~ObsSession() {
  if (enabled() && !finished_) Profiler::instance().set_enabled(false);
}

NetworkMetrics* ObsSession::metrics(int num_nodes) {
  if (options_.metrics_out.empty()) return nullptr;
  if (metrics_ == nullptr || metrics_->num_nodes() != num_nodes) {
    metrics_ = std::make_unique<NetworkMetrics>(num_nodes);
  }
  return metrics_.get();
}

void ObsSession::attach(noc::Network& net) {
  if (!enabled()) return;
  net.set_flight_recorder(recorder_.get());
  net.set_metrics(metrics(net.num_nodes()));
}

void ObsSession::annotate_scenario(const scenario::Scenario& scenario) {
  if (recorder_ == nullptr) return;
  for (std::size_t i = 0; i < scenario.tenants.size(); ++i) {
    const scenario::TenantSpec& t = scenario.tenants[i];
    recorder_->record(EventKind::kTenantStart, t.start,
                      static_cast<std::uint64_t>(t.start), /*packet_id=*/0,
                      static_cast<std::int32_t>(i));
    if (std::isfinite(t.stop)) {
      recorder_->record(EventKind::kTenantStop, t.stop,
                        static_cast<std::uint64_t>(t.stop), /*packet_id=*/0,
                        static_cast<std::int32_t>(i));
    }
  }
}

bool ObsSession::finish() {
  if (!enabled() || finished_) return true;
  finished_ = true;
  Profiler::instance().set_enabled(false);
  bool ok = true;
  if (recorder_ != nullptr) {
    std::ofstream os(options_.trace_out);
    if (os) {
      recorder_->write_chrome_trace(os);
    }
    if (!os) {
      LOG_ERROR << "obs: cannot write trace to " << options_.trace_out;
      ok = false;
    }
  }
  if (!options_.metrics_out.empty()) {
    std::ofstream os(options_.metrics_out);
    if (os) {
      os << "{\n\"schema\": 1,\n\"kind\": \"drlnoc-obs\",\n\"profile\": ";
      Profiler::instance().write_json(os);
      os << ",\n\"metrics\": ";
      if (metrics_ != nullptr) {
        metrics_->write_json(os);
      } else {
        os << "null\n";
      }
      os << "}\n";
    }
    if (!os) {
      LOG_ERROR << "obs: cannot write metrics to " << options_.metrics_out;
      ok = false;
    }
    if (metrics_ != nullptr) {
      const std::string heatmap = heatmap_path_for(options_.metrics_out);
      std::ofstream hs(heatmap);
      if (hs) metrics_->write_heatmap_csv(hs);
      if (!hs) {
        LOG_ERROR << "obs: cannot write heatmap to " << heatmap;
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace drlnoc::obs
