#include "trace/trace_workload.h"

#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace drlnoc::trace {

TraceWorkload::TraceWorkload(std::shared_ptr<const Trace> trace,
                             TraceWorkloadParams params)
    : trace_(std::move(trace)), params_(params) {
  if (!trace_) throw std::invalid_argument("TraceWorkload: null trace");
  trace_->validate();
  if (!(params_.rate_scale > 0.0) || !std::isfinite(params_.rate_scale)) {
    throw std::invalid_argument("TraceWorkload: rate_scale must be > 0");
  }

  const std::size_t n = trace_->records.size();
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  index.reserve(n);
  dependents_.resize(n);
  initial_pending_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& r = trace_->records[i];
    for (std::uint64_t dep : r.deps) {
      // validate() guarantees the dependency was declared earlier.
      dependents_[index.at(dep)].push_back(static_cast<std::uint32_t>(i));
    }
    initial_pending_[i] = static_cast<std::uint32_t>(r.deps.size());
    index.emplace(r.id, static_cast<std::uint32_t>(i));
  }

  ready_.resize(static_cast<std::size_t>(trace_->nodes));
  rearm(0.0);
}

TraceWorkload::TraceWorkload(Trace trace, TraceWorkloadParams params)
    : TraceWorkload(std::make_shared<const Trace>(std::move(trace)), params) {}

void TraceWorkload::rearm(double base_time) {
  const std::size_t n = trace_->records.size();
  pending_ = initial_pending_;
  dep_ready_.assign(n, 0.0);
  live_.clear();
  iter_emitted_ = 0;
  iter_delivered_ = 0;
  ++iterations_;
  for (auto& q : ready_) q = ReadyQueue();
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& r = trace_->records[i];
    if (r.deps.empty()) {
      release(i, base_time + r.time / params_.rate_scale);
    }
  }
}

void TraceWorkload::release(std::size_t idx, double ready_time) {
  const TraceRecord& r = trace_->records[idx];
  ready_[static_cast<std::size_t>(r.src)].push(Ready{ready_time, idx});
}

noc::NodeId TraceWorkload::generate(noc::NodeId src, double core_time,
                                    util::Rng& /*rng*/) {
  if (src < 0 || src >= trace_->nodes) return noc::kInvalidNode;
  ReadyQueue& q = ready_[static_cast<std::size_t>(src)];
  if (q.empty() || q.top().ready_time > core_time) return noc::kInvalidNode;
  assert(pending_emit_ == SIZE_MAX && "injection handshake out of order");
  pending_emit_ = q.top().idx;
  q.pop();
  ++iter_emitted_;
  ++total_emitted_;
  return trace_->records[pending_emit_].dst;
}

int TraceWorkload::packet_length_for(noc::NodeId /*src*/,
                                     double /*core_time*/) const {
  assert(pending_emit_ != SIZE_MAX);
  const int length = trace_->records[pending_emit_].length;
  return length > 0 ? length : trace_->default_length;
}

void TraceWorkload::on_packet_injected(noc::NodeId /*src*/,
                                       std::uint64_t packet_id,
                                       double /*core_time*/) {
  assert(pending_emit_ != SIZE_MAX && "on_packet_injected without generate");
  live_.insert(packet_id, static_cast<std::uint32_t>(pending_emit_));
  pending_emit_ = SIZE_MAX;
}

void TraceWorkload::on_packet_delivered(const noc::PacketRecord& rec) {
  std::uint32_t idx = 0;
  // Not one of ours (e.g. warm-up traffic) when the id is not live.
  if (!live_.take(rec.packet_id, idx)) return;
  ++iter_delivered_;
  ++total_delivered_;

  for (std::uint32_t dep_idx : dependents_[idx]) {
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
