#include "trace/recorder.h"

#include <algorithm>
#include <string>

namespace drlnoc::trace {

TraceRecorder::TraceRecorder(int nodes, noc::TrafficInjector* source,
                             int default_length)
    : nodes_(nodes), source_(source), default_length_(default_length) {}

void TraceRecorder::inject_tick(double core_time, util::Rng* rngs, int n,
                                std::uint64_t first_id,
                                std::vector<noc::Emission>& out) {
  if (source_ != nullptr) {
    source_->inject_tick(core_time, rngs, n, first_id, out);
  }
}

noc::NodeId TraceRecorder::generate(noc::NodeId src, double core_time,
                                    util::Rng& rng) {
  return source_ != nullptr ? source_->generate(src, core_time, rng)
                            : noc::kInvalidNode;
}

int TraceRecorder::packet_length_for(noc::NodeId src, double core_time) const {
  return source_ != nullptr ? source_->packet_length_for(src, core_time) : 0;
}

int TraceRecorder::tenant_for(noc::NodeId src, double core_time) const {
  return source_ != nullptr ? source_->tenant_for(src, core_time) : 0;
}

void TraceRecorder::on_packet_injected(noc::NodeId src,
                                       std::uint64_t packet_id,
                                       double core_time) {
  if (source_ != nullptr) {
    source_->on_packet_injected(src, packet_id, core_time);
  }
}

void TraceRecorder::on_packet_delivered(const noc::PacketRecord& rec) {
  records_.push_back(rec);
  if (source_ != nullptr) source_->on_packet_delivered(rec);
}

void TraceRecorder::on_packet_lost(const noc::PacketRecord& rec) {
  if (source_ != nullptr) source_->on_packet_lost(rec);
}

std::string TraceRecorder::name() const {
  return "recorder[" + (source_ != nullptr ? source_->name() : "drain") + "]";
}

Trace TraceRecorder::build() const {
  Trace trace;
  trace.nodes = nodes_;
  trace.default_length = default_length_;
  trace.records.reserve(records_.size());
  for (const noc::PacketRecord& rec : records_) {
    TraceRecord r;
    r.id = rec.packet_id;
    r.src = rec.src;
    r.dst = rec.dst;
    r.time = rec.inject_time;
    r.length = rec.length;
    trace.records.push_back(std::move(r));
  }
  // Completion order -> injection order. Ids are assigned sequentially at
  // injection, so this also sorts by (inject_time, node).
  std::sort(trace.records.begin(), trace.records.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.id < b.id;
            });
  return trace;
}

}  // namespace drlnoc::trace
