// Profiling hooks: fixed-slot scoped phase timers aggregated per run.
// A process-global singleton holds one (total_ns, count) pair per phase;
// ScopedPhase reads the steady clock only while profiling is enabled, so a
// disabled profiler costs exactly one relaxed atomic load per scope and
// reads no clock: its overhead is bounded by construction, not measured.
//
// Counters are relaxed atomics: parallel experiment workers may time the
// same phase concurrently; totals are exact, ordering is irrelevant.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>

namespace drlnoc::obs {

enum class Phase : int {
  kNetStep = 0,    ///< Network::step (fabric simulation)
  kRollout,        ///< trainer: agent action selection
  kEnvStep,        ///< trainer: environment step (epoch simulation)
  kLearn,          ///< trainer: gradient step (agent.observe/learn)
  kReplaySample,   ///< DQN: replay-buffer batch sampling
  kEvaluate,       ///< full policy evaluation episodes
  kCount,
};

const char* to_string(Phase phase);

class Profiler {
 public:
  static Profiler& instance();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void add(Phase phase, std::uint64_t ns) {
    const auto i = static_cast<std::size_t>(phase);
    ns_[i].fetch_add(ns, std::memory_order_relaxed);
    count_[i].fetch_add(1, std::memory_order_relaxed);
  }

  struct PhaseTotals {
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
  };
  PhaseTotals totals(Phase phase) const;

  void reset();

  /// {"phases": [{"name", "ns", "count", "mean_ns"}...]} — only phases that
  /// fired are listed.
  void write_json(std::ostream& os) const;

 private:
  Profiler() = default;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> ns_[static_cast<std::size_t>(Phase::kCount)]{};
  std::atomic<std::uint64_t> count_[static_cast<std::size_t>(Phase::kCount)]{};
};

/// RAII phase timer. Construction samples enabled() once; a disabled
/// profiler costs one relaxed load and no clock reads.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase)
      : phase_(phase), active_(Profiler::instance().enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhase() {
    if (!active_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    Profiler::instance().add(phase_, static_cast<std::uint64_t>(ns));
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Phase phase_;
  bool active_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace drlnoc::obs
