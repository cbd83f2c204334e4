#include "nn/loss.h"

#include <cassert>
#include <cmath>

namespace drlnoc::nn {

LossResult mse_loss(const Matrix& pred, const Matrix& target) {
  assert(pred.rows() == target.rows() && pred.cols() == target.cols());
  LossResult out;
  out.grad = Matrix(pred.rows(), pred.cols());
  const double n = static_cast<double>(pred.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.raw().size(); ++i) {
    const double d = pred.raw()[i] - target.raw()[i];
    acc += d * d;
    out.grad.raw()[i] = 2.0 * d / n;
  }
  out.loss = acc / n;
  return out;
}

MaskedLossResult masked_huber_loss(const Matrix& pred,
                                   const std::vector<int>& action,
                                   const std::vector<double>& target,
                                   const std::vector<double>& weight,
                                   double delta) {
  MaskedLossResult out;
  masked_huber_loss_into(out, pred, action, target, weight, delta);
  return out;
}

void masked_huber_loss_into(MaskedLossResult& out, const Matrix& pred,
                            const std::vector<int>& action,
                            const std::vector<double>& target,
                            const std::vector<double>& weight,
                            double delta) {
  assert(action.size() == pred.rows());
  assert(target.size() == pred.rows());
  assert(weight.size() == pred.rows());
  out.grad.resize(pred.rows(), pred.cols(), 0.0);
  out.td_abs.resize(pred.rows());
  const double n = static_cast<double>(pred.rows());
  double acc = 0.0;
  for (std::size_t r = 0; r < pred.rows(); ++r) {
    const auto a = static_cast<std::size_t>(action[r]);
    assert(a < pred.cols());
    const double d = pred.at(r, a) - target[r];
    out.td_abs[r] = std::abs(d);
    const double w = weight[r];
    if (std::abs(d) <= delta) {
      acc += w * 0.5 * d * d;
      out.grad.at(r, a) = w * d / n;
    } else {
      acc += w * delta * (std::abs(d) - 0.5 * delta);
      out.grad.at(r, a) = w * (d > 0.0 ? delta : -delta) / n;
    }
  }
  out.loss = acc / n;
}

}  // namespace drlnoc::nn
