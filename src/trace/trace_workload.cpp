#include "trace/trace_workload.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace drlnoc::trace {

TraceWorkload::TraceWorkload(std::shared_ptr<const Trace> trace,
                             TraceWorkloadParams params)
    : trace_(std::move(trace)), params_(params) {
  if (!trace_) throw std::invalid_argument("TraceWorkload: null trace");
  dependents_ = build_dependents(*trace_);
  if (!(params_.rate_scale > 0.0) || !std::isfinite(params_.rate_scale)) {
    throw std::invalid_argument("TraceWorkload: rate_scale must be > 0");
  }

  std::size_t senders = 0;  // highest source + 1
  for (const TraceRecord& r : trace_->records) {
    senders = std::max(senders, static_cast<std::size_t>(r.src) + 1);
  }

  // One queue per node that sends, not per node the header declares, so
  // set-up stays O(records + edges) whatever `nodes` says.
  ready_.resize(senders);
  rearm(0.0);
}

TraceWorkload::TraceWorkload(Trace trace, TraceWorkloadParams params)
    : TraceWorkload(std::make_shared<const Trace>(std::move(trace)), params) {}

void TraceWorkload::rearm(double base_time) {
  const std::size_t n = trace_->records.size();
  pending_.resize(n);
  dep_ready_.assign(n, 0.0);
  live_.clear();
  iter_emitted_ = 0;
  iter_delivered_ = 0;
  ++iterations_;
  for (auto& q : ready_) q = ReadyQueue();
  ready_bound_ = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& r = trace_->records[i];
    pending_[i] = r.dep_count;
    if (r.dep_count == 0) {
      release(i, base_time + r.time / params_.rate_scale);
    }
  }
}

void TraceWorkload::release(std::size_t idx, double ready_time) {
  const TraceRecord& r = trace_->records[idx];
  ready_[static_cast<std::size_t>(r.src)].push(Ready{ready_time, idx});
  ready_bound_ = std::min(ready_bound_, ready_time);
}

void TraceWorkload::refresh_ready_bound() {
  double bound = std::numeric_limits<double>::infinity();
  for (const ReadyQueue& q : ready_) {
    if (!q.empty()) bound = std::min(bound, q.top().ready_time);
  }
  ready_bound_ = bound;
}

std::size_t TraceWorkload::pop(std::size_t s) {
  ReadyQueue& q = ready_[s];
  const std::size_t idx = q.top().idx;
  q.pop();
  ++iter_emitted_;
  ++total_emitted_;
  return idx;
}

void TraceWorkload::inject_tick(double core_time, util::Rng* /*rngs*/, int n,
                                std::uint64_t first_id,
                                std::vector<noc::Emission>& out) {
  if (ready_bound_ > core_time) return;
  const int senders = std::min(n, static_cast<int>(ready_.size()));
  for (noc::NodeId src = 0; src < senders; ++src) {
    const std::size_t idx = take_due(src, core_time);
    if (idx == kNone) continue;
    bind(idx, first_id + out.size());
    out.push_back({src, dst_of(idx), length_of(idx), 0});
  }
  refresh_ready_bound();
}

noc::NodeId TraceWorkload::generate(noc::NodeId src, double core_time,
                                    util::Rng& /*rng*/) {
  assert(pending_emit_ == kNone && "injection handshake out of order");
  pending_emit_ = take_due(src, core_time);
  return pending_emit_ == kNone ? noc::kInvalidNode : dst_of(pending_emit_);
}

int TraceWorkload::packet_length_for(noc::NodeId /*src*/,
                                     double /*core_time*/) const {
  assert(pending_emit_ != kNone);
  return length_of(pending_emit_);
}

void TraceWorkload::on_packet_injected(noc::NodeId /*src*/,
                                       std::uint64_t packet_id,
                                       double /*core_time*/) {
  assert(pending_emit_ != kNone && "on_packet_injected without generate");
  bind(pending_emit_, packet_id);
  pending_emit_ = kNone;
}

void TraceWorkload::on_packet_delivered(const noc::PacketRecord& rec) {
  std::uint32_t idx = 0;
  // Not one of ours (e.g. warm-up traffic) when the id is not live.
  if (!live_.take(rec.packet_id, idx)) return;
  ++iter_delivered_;
  ++total_delivered_;

  for (std::size_t e = dependents_.begin[idx]; e < dependents_.begin[idx + 1];
       ++e) {
    const std::uint32_t dep_idx = dependents_.targets[e];
    double& gate = dep_ready_[dep_idx];
    if (rec.eject_time > gate) gate = rec.eject_time;
    assert(pending_[dep_idx] > 0);
    if (--pending_[dep_idx] == 0) {
      const TraceRecord& r = trace_->records[dep_idx];
      release(dep_idx, gate + r.time / params_.rate_scale);
    }
  }

  if (params_.loop && iter_delivered_ == trace_->records.size()) {
    rearm(rec.eject_time);
  }
}

void TraceWorkload::on_packet_lost(const noc::PacketRecord& rec) {
  // A lost record is never delivered, so its dependents never release;
  // only its live entry goes.
  std::uint32_t idx = 0;
  live_.take(rec.packet_id, idx);
}

bool TraceWorkload::done() const {
  if (params_.loop) return false;
  const std::uint64_t n = trace_->records.size();
  return iter_emitted_ == n && iter_delivered_ == n;
}

std::string TraceWorkload::name() const {
  std::ostringstream os;
  os << "trace[" << trace_->records.size() << "rec x" << params_.rate_scale
     << "]";
  return os.str();
}

noc::RunResult run_trace_replay(noc::Network& net, TraceWorkload& workload,
                                std::uint64_t cycle_limit) {
  if (net.num_nodes() < workload.trace().nodes) {
    throw std::invalid_argument(
        "run_trace_replay: trace addresses more nodes than the network has");
  }
  return noc::run_until(
      net, &workload, [&workload] { return workload.done(); }, cycle_limit);
}

}  // namespace drlnoc::trace
