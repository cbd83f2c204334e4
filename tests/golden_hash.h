// The hasher behind the golden determinism tests: util::Fnv1a64 with the
// standard FNV offset basis, over 64-bit words (doubles by bit pattern).
// Every golden literal in tests/ was captured with exactly this byte stream,
// so the goldens pin the library hash as well as the simulation.
#pragma once

#include <cstdint>
#include <vector>

#include "noc/network.h"
#include "util/fnv.h"

namespace drlnoc {

class GoldenHash {
 public:
  void mix(std::uint64_t v) { h_.u64(v); }
  void mix(double v) { h_.f64(v); }
  void mix(int v) { h_.u64(static_cast<std::uint64_t>(std::int64_t{v})); }
  std::uint64_t value() const { return h_.value(); }

 private:
  util::Fnv1a64 h_{util::Fnv1a64::kStandardBasis};
};

/// Folds whole 64-bit values (not their bytes) FNV-style; combines per-task
/// hashes in the thread-invariance checks.
inline std::uint64_t fold_words(const std::vector<std::uint64_t>& values) {
  std::uint64_t h = util::Fnv1a64::kStandardBasis;
  for (const std::uint64_t v : values) h = (h ^ v) * util::Fnv1a64::kPrime;
  return h;
}

/// The aggregate epoch counters the fabric goldens pin.
inline void mix_stats(GoldenHash& h, const noc::EpochStats& s) {
  h.mix(s.packets_offered);
  h.mix(s.packets_received);
  h.mix(s.flits_injected);
  h.mix(s.flits_ejected);
  h.mix(s.avg_latency);
  h.mix(s.p95_latency);
  h.mix(s.max_latency);
  h.mix(s.avg_hops);
  h.mix(s.avg_buffer_occupancy);
  h.mix(s.source_queue_total);
}

inline void mix_record(GoldenHash& h, const noc::PacketRecord& r) {
  h.mix(r.packet_id);
  h.mix(r.src);
  h.mix(r.dst);
  h.mix(static_cast<std::uint64_t>(r.length));
  h.mix(r.inject_time);
  h.mix(r.eject_time);
  h.mix(static_cast<std::uint64_t>(r.hops));
  h.mix(static_cast<std::uint64_t>(r.measured ? 1 : 0));
}

inline void mix_records(GoldenHash& h,
                        const std::vector<noc::PacketRecord>& records) {
  h.mix(static_cast<std::uint64_t>(records.size()));
  for (const noc::PacketRecord& r : records) mix_record(h, r);
}

/// The delivered-packet stream with each record's tenant tag.
inline std::uint64_t tenant_stream_hash(
    const std::vector<noc::PacketRecord>& records) {
  GoldenHash h;
  h.mix(static_cast<std::uint64_t>(records.size()));
  for (const noc::PacketRecord& r : records) {
    mix_record(h, r);
    h.mix(static_cast<std::uint64_t>(r.tenant));
  }
  return h.value();
}

/// Microarchitectural state: every input VC occupancy and advertised
/// capacity, every output VC credit count.
inline void mix_router_state(GoldenHash& h, noc::Network& net) {
  const int radix = net.topology().radix();
  const int vcs = net.params().max_vcs;
  for (int node = 0; node < net.num_nodes(); ++node) {
    noc::Router& r = net.router(node);
    h.mix(r.buffered_flits());
    for (int p = 0; p < radix; ++p) {
      for (int v = 0; v < vcs; ++v) {
        h.mix(r.input_occupancy(p, v));
        h.mix(r.advertised_capacity(p, v));
        h.mix(r.output_credits(p, v));
      }
    }
  }
}

}  // namespace drlnoc
