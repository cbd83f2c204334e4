#include "trace/generators.h"

#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace drlnoc::trace {

namespace {
void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}
}  // namespace

Trace generate_dnn_pipeline(const DnnPipelineParams& p) {
  require(p.nodes >= 2, "dnn_pipeline: nodes must be >= 2");
  require(p.layers >= 2, "dnn_pipeline: layers must be >= 2");
  require(p.tiles_per_layer >= 1, "dnn_pipeline: tiles_per_layer must be >= 1");
  require(p.batches >= 1, "dnn_pipeline: batches must be >= 1");
  require(p.batch_interval >= 0.0, "dnn_pipeline: batch_interval must be >= 0");
  require(p.compute_delay >= 0.0, "dnn_pipeline: compute_delay must be >= 0");
  require(p.activation_flits >= 1,
          "dnn_pipeline: activation_flits must be >= 1");

  Trace trace;
  trace.nodes = p.nodes;
  trace.default_length = p.activation_flits;

  const auto node_of = [&](int layer, int tile) -> noc::NodeId {
    return (layer * p.tiles_per_layer + tile) % p.nodes;
  };

  std::uint64_t next_id = 1;
  // Positions of the packets delivered into each tile of the *receiving*
  // layer for the batch currently being generated; boundary l feeds the
  // inputs of boundary l+1.
  const auto tiles = static_cast<std::size_t>(p.tiles_per_layer);
  for (int b = 0; b < p.batches; ++b) {
    std::vector<std::vector<std::uint32_t>> inputs(tiles);
    for (int l = 0; l + 1 < p.layers; ++l) {
      std::vector<std::vector<std::uint32_t>> next_inputs(tiles);
      for (int u = 0; u < p.tiles_per_layer; ++u) {
        const noc::NodeId src = node_of(l, u);
        const std::vector<std::uint32_t>& in =
            inputs[static_cast<std::size_t>(u)];
        for (int v = 0; v < p.tiles_per_layer; ++v) {
          const noc::NodeId dst = node_of(l + 1, v);
          if (src == dst) continue;  // wrapped placement: self-sends elided
          TraceRecord rec;
          rec.id = next_id++;
          rec.src = src;
          rec.dst = dst;
          rec.length = static_cast<std::uint16_t>(p.activation_flits);
          // The entry layer (or a tile starved by self-send elision)
          // releases on the batch clock.
          const bool root = l == 0 || in.empty();
          rec.time = root ? static_cast<double>(b) * p.batch_interval +
                                static_cast<double>(l) * p.compute_delay
                          : p.compute_delay;
          next_inputs[static_cast<std::size_t>(v)].push_back(trace.add(
              rec, root ? std::span<const std::uint32_t>() : in));
        }
      }
      inputs = std::move(next_inputs);
    }
    if (b == 0) {
      // Every batch has the first one's shape.
      const auto batches = static_cast<std::size_t>(p.batches);
      trace.records.reserve(trace.records.size() * batches);
      trace.deps.reserve(trace.deps.size() * batches);
    }
  }
  trace.validate();
  return trace;
}

Trace generate_allreduce_ring(const AllReduceRingParams& p) {
  require(p.nodes >= 2, "allreduce_ring: nodes must be >= 2");
  require(p.rounds >= 1, "allreduce_ring: rounds must be >= 1");
  require(p.compute_delay >= 0.0, "allreduce_ring: compute_delay must be >= 0");
  require(p.chunk_flits >= 1, "allreduce_ring: chunk_flits must be >= 1");
  require(p.start_time >= 0.0, "allreduce_ring: start_time must be >= 0");

  Trace trace;
  trace.nodes = p.nodes;
  trace.default_length = p.chunk_flits;

  const int n = p.nodes;
  const int steps = 2 * (n - 1);  // reduce-scatter + all-gather
  const auto sends = static_cast<std::size_t>(p.rounds) *
                     static_cast<std::size_t>(steps) *
                     static_cast<std::size_t>(n);
  trace.records.reserve(sends);
  trace.deps.reserve(sends - static_cast<std::size_t>(n));  // all but step 0
  std::uint64_t next_id = 1;
  // Positions of each node's send in the previous step and in the
  // previous round's last step.
  std::vector<std::uint32_t> prev_step(static_cast<std::size_t>(n), 0);
  std::vector<std::uint32_t> prev_round_last(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < p.rounds; ++r) {
    for (int s = 0; s < steps; ++s) {
      std::vector<std::uint32_t> this_step(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        const auto left = static_cast<std::size_t>((i + n - 1) % n);
        TraceRecord rec;
        rec.id = next_id++;
        rec.src = i;
        rec.dst = (i + 1) % n;
        rec.length = static_cast<std::uint16_t>(p.chunk_flits);
        std::uint32_t pos = 0;
        if (s > 0) {
          // Forward once the chunk from the left neighbour has been reduced.
          rec.time = p.compute_delay;
          pos = trace.add(rec, {prev_step[left]});
        } else if (r > 0) {
          // A new all-reduce starts at node i when its previous round ends.
          rec.time = p.compute_delay;
          pos = trace.add(rec, {prev_round_last[left]});
        } else {
          rec.time = p.start_time;
          pos = trace.add(rec);
        }
        this_step[static_cast<std::size_t>(i)] = pos;
      }
      prev_step = std::move(this_step);
    }
    prev_round_last = prev_step;
  }
  trace.validate();
  return trace;
}

Trace generate_alltoall(const AllToAllParams& p) {
  require(p.nodes >= 2, "alltoall: nodes must be >= 2");
  require(p.rounds >= 1, "alltoall: rounds must be >= 1");
  require(p.compute_delay >= 0.0, "alltoall: compute_delay must be >= 0");
  require(p.flits >= 1, "alltoall: flits must be >= 1");
  require(p.start_time >= 0.0, "alltoall: start_time must be >= 0");

  Trace trace;
  trace.nodes = p.nodes;
  trace.default_length = p.flits;

  const int n = p.nodes;
  const auto per_round =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1);
  trace.records.reserve(per_round * static_cast<std::size_t>(p.rounds));
  trace.deps.reserve(per_round * static_cast<std::size_t>(n - 1) *
                     static_cast<std::size_t>(p.rounds - 1));
  std::uint64_t next_id = 1;
  // received[i] = positions of the previous round's packets addressed to
  // node i.
  std::vector<std::vector<std::uint32_t>> received(
      static_cast<std::size_t>(n));
  for (int r = 0; r < p.rounds; ++r) {
    std::vector<std::vector<std::uint32_t>> next_received(
        static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        TraceRecord rec;
        rec.id = next_id++;
        rec.src = i;
        rec.dst = j;
        rec.length = static_cast<std::uint16_t>(p.flits);
        rec.time = r == 0 ? p.start_time : p.compute_delay;
        next_received[static_cast<std::size_t>(j)].push_back(trace.add(
            rec, r == 0 ? std::span<const std::uint32_t>()
                        : received[static_cast<std::size_t>(i)]));
      }
    }
    received = std::move(next_received);
  }
  trace.validate();
  return trace;
}

}  // namespace drlnoc::trace
