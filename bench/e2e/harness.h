// Shared machinery of the end-to-end benchmark: clocks, resource usage,
// output digests, seeded input generation, the per-layer metric sink of a
// traced repetition, and the Workload interface the four workflows
// implement. Only public library calls are used, so every number here can be
// reproduced from the repository's own API.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "noc/network.h"
#include "obs/profiler.h"

namespace drlnoc::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of the whole process (all threads, including
/// threads that already exited).
double process_cpu_s();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// FNV-1a 64 over the simulated outputs a workload produces.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::string hex16(std::uint64_t v);

/// Hashes the simulated content of one epoch window: counters, latencies,
/// energy and the configuration it ran under.
void digest_epoch(Digest& d, const noc::EpochStats& s);

/// Deterministic 64-bit stream value `stream` of bench seed `seed`
/// (splitmix64). Workloads derive traffic, churn and placement seeds from it.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);
/// Seeded permutation of 0..n-1 (Fisher-Yates over derive_seed draws).
std::vector<noc::NodeId> seeded_permutation(int n, std::uint64_t seed);

/// Per-layer metrics of one traced repetition, by name.
using Layers = std::map<std::string, double>;

/// Snapshot of the process-global profiler; the *_since accessors give the
/// phase totals accumulated after the snapshot was taken.
class ProfileMark {
 public:
  ProfileMark();
  double seconds_since(obs::Phase phase) const;
  std::uint64_t count_since(obs::Phase phase) const;

 private:
  obs::Profiler::PhaseTotals totals_[static_cast<int>(obs::Phase::kCount)];
};

/// Accumulates wall time into `acc` for the lifetime of the scope.
class Span {
 public:
  explicit Span(double& acc) : acc_(acc), start_(Clock::now()) {}
  ~Span() { acc_ += seconds_between(start_, Clock::now()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& acc_;
  Clock::time_point start_;
};

/// Forwarding TrafficInjector that counts every generate() poll and times
/// one poll in 64, subtracting the measured cost of an empty timer pair. It
/// forwards every other hook unchanged, so the wrapped run is the same
/// program (the traced digests prove it).
class CountingInjector final : public noc::TrafficInjector {
 public:
  CountingInjector(noc::TrafficInjector& inner, double timer_pair_s)
      : inner_(inner), timer_pair_s_(timer_pair_s) {}

  noc::NodeId generate(noc::NodeId src, double core_time,
                       util::Rng& rng) override;
  int packet_length(double core_time) const override {
    return inner_.packet_length(core_time);
  }
  int packet_length_for(noc::NodeId src, double core_time) const override {
    return inner_.packet_length_for(src, core_time);
  }
  int tenant_for(noc::NodeId src, double core_time) const override {
    return inner_.tenant_for(src, core_time);
  }
  void on_packet_injected(noc::NodeId src, std::uint64_t packet_id,
                          double core_time) override {
    inner_.on_packet_injected(src, packet_id, core_time);
  }
  void on_packet_delivered(const noc::PacketRecord& rec) override {
    ++delivered_;
    inner_.on_packet_delivered(rec);
  }
  std::string name() const override { return inner_.name(); }

  std::uint64_t delivered() const { return delivered_; }
  /// Estimated time inside the wrapped generate(): the mean sampled poll,
  /// net of the timer cost, times the number of polls.
  double busy_s() const;
  /// Writes `<prefix>.polls/.packets/.hit_ratio/.busy_s` into `layers`.
  void report(Layers& layers, const std::string& prefix) const;

 private:
  noc::TrafficInjector& inner_;
  double timer_pair_s_;
  std::uint64_t polls_ = 0;
  std::uint64_t packets_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t sampled_ = 0;
  double sampled_s_ = 0.0;
};

/// Median cost of one back-to-back steady_clock::now() pair, in seconds.
double measure_timer_pair_s();

/// Outcome of one repetition of a workload.
struct RepResult {
  double setup_s = 0.0;  ///< until the first measured step
  double wall_s = 0.0;   ///< the measured work
  double cpu_s = 0.0;    ///< process CPU over the measured work
  std::uint64_t ops = 0; ///< operations attempted (epochs, episodes, ...)
  std::uint64_t digest = 0;
  std::vector<std::string> failures;  ///< broken invariants; empty = pass
  std::vector<double> epoch_ms;       ///< per-epoch host time (serve only)
  Layers layers;                      ///< traced repetitions only
};

/// Worker threads of train_t6 (actors) and fleet_t8 (ExperimentRunner jobs).
/// One: on a shared 4-vCPU virtual machine, ten interleaved runs per thread
/// count gave a wall_s spread (IQR / median) of 10.8% on train and 13.2% on
/// fleet with two threads, against 1.7% and 9.6% with one. With one actor,
/// train_t6 is the single-core multi-actor case the ROADMAP's actors=1
/// regression is about. The layer attribution assumes one busy thread: with
/// more, the self-time check in e2e.cpp fails.
inline constexpr int kThreads = 1;

/// Sizes of one workload instance: the full benchmark or the smoke run.
struct WorkloadOptions {
  std::uint64_t seed = 1;
  bool smoke = false;
  std::string workdir;  ///< private scratch directory for generated inputs
};

/// One end-to-end workflow. prepare() generates the inputs once per process
/// (excluded from every metric, as users generate them once); each run()
/// is one self-contained repetition on fresh objects.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void prepare() = 0;
  virtual RepResult run(bool traced) = 0;
};

std::unique_ptr<Workload> make_serve(const WorkloadOptions& o);
std::unique_ptr<Workload> make_train(const WorkloadOptions& o);
std::unique_ptr<Workload> make_fleet(const WorkloadOptions& o);
std::unique_ptr<Workload> make_replay(const WorkloadOptions& o);

/// Starts a traced repetition: resets the process-global profiler and
/// enables its phases. The destructor disables it again.
class TracedScope {
 public:
  TracedScope();
  ~TracedScope();
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;

  /// Fills the whole-run layer entries of the repetition `r`:
  ///   noc.step.cycles / .busy_s / .ns_per_node_cycle from the profiler's
  ///   Network::step phase (`step_children_s` of it, already attributed to
  ///   an injector, is excluded from the self time), core.useful_cycle_ratio
  ///   (`useful_cycles` / cycles stepped), and unattributed_s = setup + wall
  ///   minus every `self_times` entry — so the self-times and
  ///   unattributed_s sum exactly to the repetition's wall time.
  void finish(RepResult& r, int nodes, double useful_cycles,
              double step_children_s,
              const std::vector<std::string>& self_times) const;
};

}  // namespace drlnoc::e2e
