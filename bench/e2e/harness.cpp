#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <utility>

namespace drlnoc::e2e {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

void digest_epoch(Digest& d, const noc::EpochStats& s) {
  d.f64(s.core_cycles);
  d.u64(s.router_cycles);
  d.u64(s.packets_offered);
  d.u64(s.packets_received);
  d.u64(s.flits_injected);
  d.u64(s.flits_ejected);
  d.f64(s.avg_latency);
  d.f64(s.p95_latency);
  d.f64(s.max_latency);
  d.f64(s.dynamic_energy_pj);
  d.f64(s.static_energy_pj);
  d.u64(s.source_queue_total);
  d.u64(s.flits_dropped);
  d.u64(s.retries);
  d.u64(s.packets_lost);
  d.u64(static_cast<std::uint64_t>(s.config.active_vcs));
  d.u64(static_cast<std::uint64_t>(s.config.active_depth));
  d.u64(static_cast<std::uint64_t>(s.config.dvfs_level));
  for (const noc::TenantEpochStats& t : s.tenants) {
    d.u64(t.packets_offered);
    d.u64(t.packets_received);
    d.f64(t.avg_latency);
    d.f64(t.p95_latency);
  }
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<noc::NodeId> seeded_permutation(int n, std::uint64_t seed) {
  std::vector<noc::NodeId> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        derive_seed(seed, static_cast<std::uint64_t>(i)) %
        static_cast<std::uint64_t>(i + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[j]);
  }
  return p;
}

ProfileMark::ProfileMark() {
  for (int i = 0; i < static_cast<int>(obs::Phase::kCount); ++i) {
    totals_[i] = obs::Profiler::instance().totals(static_cast<obs::Phase>(i));
  }
}

double ProfileMark::seconds_since(obs::Phase phase) const {
  const auto now = obs::Profiler::instance().totals(phase);
  return static_cast<double>(now.ns - totals_[static_cast<int>(phase)].ns) *
         1e-9;
}

std::uint64_t ProfileMark::count_since(obs::Phase phase) const {
  const auto now = obs::Profiler::instance().totals(phase);
  return now.count - totals_[static_cast<int>(phase)].count;
}

noc::NodeId CountingInjector::generate(noc::NodeId src, double core_time,
                                       util::Rng& rng) {
  noc::NodeId dst;
  if ((polls_++ & 63) == 0) {
    const auto t0 = Clock::now();
    dst = inner_.generate(src, core_time, rng);
    sampled_s_ += seconds_between(t0, Clock::now());
    ++sampled_;
  } else {
    dst = inner_.generate(src, core_time, rng);
  }
  if (dst != noc::kInvalidNode) ++packets_;
  return dst;
}

double CountingInjector::busy_s() const {
  if (sampled_ == 0) return 0.0;
  const double per_poll =
      std::max(0.0, sampled_s_ / static_cast<double>(sampled_) - timer_pair_s_);
  return per_poll * static_cast<double>(polls_);
}

void CountingInjector::report(Layers& layers, const std::string& prefix) const {
  layers[prefix + ".polls"] = static_cast<double>(polls_);
  layers[prefix + ".packets"] = static_cast<double>(packets_);
  layers[prefix + ".hit_ratio"] =
      polls_ > 0 ? static_cast<double>(packets_) / static_cast<double>(polls_)
                 : 0.0;
  layers[prefix + ".busy_s"] = busy_s();
}

double measure_timer_pair_s() {
  constexpr int kPairs = 4096;
  std::vector<double> samples;
  samples.reserve(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    const auto t0 = Clock::now();
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  std::nth_element(samples.begin(), samples.begin() + kPairs / 2,
                   samples.end());
  return samples[kPairs / 2];
}

TracedScope::TracedScope() {
  obs::Profiler::instance().reset();
  obs::Profiler::instance().set_enabled(true);
}

TracedScope::~TracedScope() { obs::Profiler::instance().set_enabled(false); }

void TracedScope::finish(RepResult& r, int nodes,
                         double useful_cycles, double step_children_s,
                         const std::vector<std::string>& self_times) const {
  const auto step = obs::Profiler::instance().totals(obs::Phase::kNetStep);
  const double step_s = static_cast<double>(step.ns) * 1e-9;
  const double cycles = static_cast<double>(step.count);
  Layers& l = r.layers;
  l["noc.step.cycles"] = cycles;
  l["noc.step.busy_s"] = step_s - step_children_s;
  l["noc.step.ns_per_node_cycle"] =
      cycles > 0.0 ? static_cast<double>(step.ns) / (cycles * nodes) : 0.0;
  l["core.useful_cycle_ratio"] = cycles > 0.0 ? useful_cycles / cycles : 0.0;
  double attributed = l["noc.step.busy_s"];
  for (const std::string& name : self_times) attributed += l[name];
  l["unattributed_s"] = r.setup_s + r.wall_s - attributed;
}

}  // namespace drlnoc::e2e
