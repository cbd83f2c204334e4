// Deterministic, seedable pseudo-random number generation.
//
// The whole repository routes randomness through util::Rng so that a single
// 64-bit seed reproduces an entire simulation + training run bit-for-bit
// (docs/ARCHITECTURE.md, "Determinism rules"). The generator is
// xoshiro256**, seeded via splitmix64; both are public-domain algorithms by
// Blackman & Vigna.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace drlnoc::util {

/// splitmix64 step; used to expand a single seed into generator state.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator with convenience sampling helpers.
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Raw 64 random bits.
  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 top bits, scaled exactly.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p. Draws nothing when p is
  /// outside (0, 1).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Standard normal via Box-Muller (cached second sample).
  double normal();

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);

  /// Sample an index proportional to the (non-negative) weights.
  /// Requires at least one strictly positive weight.
  std::size_t weighted(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Deterministically derive an independent child stream (e.g. one per
  /// router) from this generator's seed lineage.
  Rng fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace drlnoc::util
