#include "util/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace drlnoc::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  // Expand the seed with splitmix64 as recommended by the xoshiro authors;
  // guarantees the all-zero state cannot occur.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::below(std::uint64_t n) {
  assert(n > 0);
  // Lemire-style rejection to remove modulo bias.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lowbits = static_cast<std::uint64_t>(m);
  if (lowbits < n) {
    std::uint64_t threshold = (0 - n) % n;
    while (lowbits < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lowbits = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<std::int64_t>(
                  below(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::size_t Rng::weighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("Rng::weighted: negative weight");
    total += w;
  }
  if (total <= 0.0)
    throw std::invalid_argument("Rng::weighted: all weights are zero");
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: last positive weight wins
}

Rng Rng::fork() { return Rng((*this)()); }

}  // namespace drlnoc::util
