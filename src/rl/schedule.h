// Exploration / annealing schedules.
#pragma once

#include <algorithm>
#include <cstdint>

namespace drlnoc::rl {

/// Linear anneal from `start` to `end` over `steps` calls to value(t).
class LinearSchedule {
 public:
  LinearSchedule(double start, double end, std::uint64_t steps)
      : start_(start), end_(end), steps_(steps == 0 ? 1 : steps) {}

  double value(std::uint64_t t) const {
    const double frac =
        std::min(1.0, static_cast<double>(t) / static_cast<double>(steps_));
    return start_ + frac * (end_ - start_);
  }

 private:
  double start_, end_;
  std::uint64_t steps_;
};

}  // namespace drlnoc::rl
