// Adam (Kingma & Ba, 2015), the one optimizer the DQN trains with.
#pragma once

#include <vector>

#include "nn/layers.h"

namespace drlnoc::nn {

class Adam {
 public:
  explicit Adam(double lr);
  /// Applies one update to every parameter slot of `net` from its
  /// accumulated gradients. Moments are kept per slot (Mlp::param order)
  /// and reset for a slot whose shape changed.
  void step(Mlp& net);

 private:
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEps = 1e-8;

  double lr_;
  long long t_ = 0;
  std::vector<std::vector<double>> m_, v_;
};

}  // namespace drlnoc::nn
