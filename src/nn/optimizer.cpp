#include "nn/optimizer.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace drlnoc::nn {

Adam::Adam(double lr) : lr_(lr) {
  if (lr <= 0.0) throw std::invalid_argument("learning rate must be > 0");
}

void Adam::step(Mlp& net) {
  const std::size_t slots = net.num_param_slots();
  if (m_.size() != slots) {
    m_.assign(slots, {});
    v_.assign(slots, {});
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  for (std::size_t i = 0; i < slots; ++i) {
    auto& p = net.param(i).raw();
    const auto& g = net.grad(i).raw();
    assert(p.size() == g.size());
    auto& m = m_[i];
    auto& v = v_[i];
    if (m.size() != p.size()) {
      m.assign(p.size(), 0.0);
      v.assign(p.size(), 0.0);
    }
    // Restrict pointers let the per-element div/sqrt chain vectorise
    // (divpd/sqrtpd are exactly rounded, so results are bit-identical to
    // the scalar loop).
    double* __restrict__ pp = p.data();
    const double* __restrict__ pg = g.data();
    double* __restrict__ pm = m.data();
    double* __restrict__ pv = v.data();
    for (std::size_t j = 0; j < p.size(); ++j) {
      pm[j] = kBeta1 * pm[j] + (1.0 - kBeta1) * pg[j];
      pv[j] = kBeta2 * pv[j] + (1.0 - kBeta2) * pg[j] * pg[j];
      const double mhat = pm[j] / bc1;
      const double vhat = pv[j] / bc2;
      pp[j] -= lr_ * mhat / (std::sqrt(vhat) + kEps);
    }
  }
}

}  // namespace drlnoc::nn
