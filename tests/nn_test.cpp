#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace drlnoc::nn {
namespace {

TEST(Matrix, BasicOps) {
  Matrix a(2, 3, 1.0);
  Matrix b(2, 3, 2.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.at(1, 2), 3.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  a *= 4.0;
  EXPECT_DOUBLE_EQ(a.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(Matrix(2, 2, 3.0).norm(), 6.0);
}

TEST(Matrix, MatmulAgainstHand) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12].
  double av[] = {1, 2, 3, 4, 5, 6}, bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.raw().begin());
  std::copy(bv, bv + 6, b.raw().begin());
  Matrix c;
  matmul_into(c, a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(Matrix, TransposedProductsConsistent) {
  util::Rng rng(1);
  Matrix a(4, 3), b(4, 5), c(6, 3);
  for (double& v : a.raw()) v = rng.normal();
  for (double& v : b.raw()) v = rng.normal();
  for (double& v : c.raw()) v = rng.normal();
  // matmul_tn_into(tn, a, b): tn = aᵀ b; check one element by explicit sum.
  Matrix tn;
  matmul_tn_into(tn, a, b);
  double expect = 0.0;
  for (int k = 0; k < 4; ++k) expect += a.at(k, 1) * b.at(k, 2);
  EXPECT_NEAR(tn.at(1, 2), expect, 1e-12);
  // matmul_nt_into(nt, a, c): nt = a cᵀ (3 columns shared).
  Matrix nt;
  matmul_nt_into(nt, a, c);
  expect = 0.0;
  for (int k = 0; k < 3; ++k) expect += a.at(2, k) * c.at(4, k);
  EXPECT_NEAR(nt.at(2, 4), expect, 1e-12);
}

TEST(Matrix, SaveLoadRoundTrip) {
  util::Rng rng(2);
  Matrix m(3, 4);
  for (double& v : m.raw()) v = rng.normal();
  std::stringstream ss;
  m.save(ss);
  Matrix n(3, 4);
  n.load(ss);
  ASSERT_EQ(n.rows(), 3u);
  ASSERT_EQ(n.cols(), 4u);
  for (std::size_t i = 0; i < m.raw().size(); ++i) {
    EXPECT_DOUBLE_EQ(m.raw()[i], n.raw()[i]);
  }
}

TEST(Linear, ForwardMatchesHand) {
  Linear lin(2, 2);
  lin.weights().at(0, 0) = 1.0;
  lin.weights().at(0, 1) = 2.0;
  lin.weights().at(1, 0) = 3.0;
  lin.weights().at(1, 1) = 4.0;
  lin.bias().at(0, 0) = 0.5;
  lin.bias().at(0, 1) = -0.5;
  Matrix x(1, 2);
  x.at(0, 0) = 1.0;
  x.at(0, 1) = 2.0;
  Matrix y;
  lin.forward_into(x, y);
  EXPECT_DOUBLE_EQ(y.at(0, 0), 1.0 + 6.0 + 0.5);
  EXPECT_DOUBLE_EQ(y.at(0, 1), 2.0 + 8.0 - 0.5);
}

TEST(Activations, ForwardShapes) {
  Matrix x(2, 2);
  x.at(0, 0) = -1.0;
  x.at(0, 1) = 2.0;
  x.at(1, 0) = 0.0;
  x.at(1, 1) = -3.0;
  Matrix r;
  activate_into(Activation::kReLU, x, r);
  ASSERT_EQ(r.rows(), 2u);
  ASSERT_EQ(r.cols(), 2u);
  EXPECT_DOUBLE_EQ(r.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(r.at(1, 1), 0.0);
  Matrix t;
  activate_into(Activation::kTanh, x, t);
  ASSERT_EQ(t.rows(), 2u);
  ASSERT_EQ(t.cols(), 2u);
  EXPECT_NEAR(t.at(0, 1), std::tanh(2.0), 1e-12);
  EXPECT_NEAR(t.at(1, 1), std::tanh(-3.0), 1e-12);
}

// Finite-difference gradient check for the whole MLP.
class GradCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(GradCheck, MlpMatchesFiniteDifferences) {
  util::Rng rng(3);
  Mlp mlp({3, 8, 5, 2}, GetParam(), rng);
  Matrix x(4, 3);
  Matrix target(4, 2);
  for (double& v : x.raw()) v = rng.normal();
  for (double& v : target.raw()) v = rng.normal();

  auto loss_of = [&](Mlp& net) {
    return mse_loss(net.infer_ws(x), target).loss;
  };

  // Analytic gradients.
  mlp.zero_grads();
  const LossResult lr = mse_loss(mlp.forward_ws(x), target);
  mlp.backward_ws(lr.grad);

  const double eps = 1e-6;
  int checked = 0;
  for (std::size_t p = 0; p < mlp.num_param_slots(); ++p) {
    for (std::size_t i = 0; i < mlp.param(p).raw().size(); i += 3) {
      double& w = mlp.param(p).raw()[i];
      const double orig = w;
      w = orig + eps;
      const double up = loss_of(mlp);
      w = orig - eps;
      const double down = loss_of(mlp);
      w = orig;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = mlp.grad(p).raw()[i];
      EXPECT_NEAR(analytic, numeric,
                  1e-4 * std::max(1.0, std::abs(numeric)))
          << "param " << p << " index " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

INSTANTIATE_TEST_SUITE_P(Activations, GradCheck,
                         ::testing::Values(Activation::kReLU,
                                           Activation::kTanh));

TEST(Loss, MaskedHuberGradientMatchesFiniteDifference) {
  util::Rng rng(5);
  Matrix pred(3, 4);
  for (double& v : pred.raw()) v = rng.normal();
  const std::vector<int> actions = {1, 3, 0};
  const std::vector<double> targets = {0.5, -2.0, 4.0};  // one far (linear)
  const std::vector<double> weights = {1.0, 0.5, 2.0};

  const MaskedLossResult res =
      masked_huber_loss(pred, actions, targets, weights);
  const double eps = 1e-6;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      double& v = pred.at(r, c);
      const double orig = v;
      v = orig + eps;
      const double up =
          masked_huber_loss(pred, actions, targets, weights).loss;
      v = orig - eps;
      const double down =
          masked_huber_loss(pred, actions, targets, weights).loss;
      v = orig;
      EXPECT_NEAR(res.grad.at(r, c), (up - down) / (2 * eps) / 3.0 * 3.0,
                  1e-5);
    }
  }
  // TD errors reported per row.
  EXPECT_NEAR(res.td_abs[0], std::abs(pred.at(0, 1) - 0.5), 1e-12);
}

TEST(Mlp, CopyAndSoftUpdate) {
  util::Rng rng(7);
  Mlp a({2, 4, 2}, Activation::kReLU, rng);
  Mlp b({2, 4, 2}, Activation::kReLU, rng);
  b.copy_weights_from(a);
  Matrix x(1, 2, 0.3);
  EXPECT_EQ(a.infer_ws(x).row(0), b.infer_ws(x).row(0));
  Mlp dueling({2, 4, 2}, Activation::kReLU, rng, /*dueling=*/true);
  EXPECT_THROW(dueling.copy_weights_from(a), std::invalid_argument);
}

TEST(Mlp, RejectsLayerWidthsItCouldNotLoad) {
  util::Rng rng(8);
  EXPECT_THROW(Mlp({4, 0, 3}, Activation::kReLU, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({0, 3}, Activation::kReLU, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({4, kMaxLayerWidth + 1, 3}, Activation::kReLU, rng),
               std::invalid_argument);
  EXPECT_THROW(Mlp(std::vector<std::size_t>(kMaxLayers + 1, 2),
                   Activation::kReLU, rng),
               std::invalid_argument);
  // The largest accepted layer count saves to a blob load() reads back.
  Mlp deep(std::vector<std::size_t>(kMaxLayers, 2), Activation::kTanh, rng);
  std::stringstream ss;
  deep.save(ss);
  EXPECT_EQ(Mlp::load(ss).sizes(), deep.sizes());
}

TEST(Mlp, GradClipBoundsNorm) {
  util::Rng rng(9);
  Mlp mlp({3, 16, 3}, Activation::kReLU, rng);
  Matrix x(8, 3), t(8, 3);
  for (double& v : x.raw()) v = rng.normal() * 10;
  for (double& v : t.raw()) v = rng.normal() * 10;
  mlp.zero_grads();
  mlp.backward_ws(mse_loss(mlp.forward_ws(x), t).grad);
  mlp.clip_grad_norm(0.5);
  double total = 0.0;
  for (std::size_t s = 0; s < mlp.num_param_slots(); ++s) {
    total += mlp.grad(s).norm() * mlp.grad(s).norm();
  }
  EXPECT_LE(std::sqrt(total), 0.5 + 1e-9);
}

TEST(Mlp, SaveLoadPreservesFunction) {
  util::Rng rng(11);
  Mlp mlp({4, 8, 3}, Activation::kTanh, rng);
  Matrix x(2, 4);
  for (double& v : x.raw()) v = rng.normal();
  const auto before = mlp.infer_ws(x).row(0);
  std::stringstream ss;
  mlp.save(ss);
  Mlp loaded = Mlp::load(ss);
  const auto after = loaded.infer_ws(x).row(0);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i], after[i], 1e-12);
  }
}

TEST(DuelingHead, QDecomposition) {
  DuelingHead head(3, 4);
  util::Rng rng(21);
  head.init_he(rng);
  Matrix x(2, 3);
  for (double& v : x.raw()) v = rng.normal();
  Matrix q;
  head.forward_into(x, q);
  ASSERT_EQ(q.rows(), 2u);
  ASSERT_EQ(q.cols(), 4u);
  // Advantages are centred, so mean_c(Q_rc) == V_r.
  Matrix v;
  head.value().forward_into(x, v);
  for (std::size_t r = 0; r < q.rows(); ++r) {
    double mean = 0.0;
    for (std::size_t c = 0; c < q.cols(); ++c) mean += q.at(r, c) / 4.0;
    EXPECT_NEAR(mean, v.at(r, 0), 1e-12) << "row " << r;
  }
  // A dueling Mlp's head holds four slots: W_v, b_v, W_a, b_a.
  Mlp mlp({3, 4}, Activation::kReLU, rng, /*dueling=*/true);
  ASSERT_EQ(mlp.num_param_slots(), 4u);
  EXPECT_EQ(mlp.param(0).cols(), 1u);
  EXPECT_EQ(mlp.param(1).cols(), 1u);
  EXPECT_EQ(mlp.param(2).cols(), 4u);
  EXPECT_EQ(mlp.param(3).cols(), 4u);
}

TEST(DuelingHead, GradientMatchesFiniteDifferences) {
  util::Rng rng(23);
  Mlp mlp({3, 8, 4}, Activation::kReLU, rng, /*dueling=*/true);
  Matrix x(5, 3), target(5, 4);
  for (double& v : x.raw()) v = rng.normal();
  for (double& v : target.raw()) v = rng.normal();
  mlp.zero_grads();
  const LossResult lr = mse_loss(mlp.forward_ws(x), target);
  mlp.backward_ws(lr.grad);
  const double eps = 1e-6;
  for (std::size_t p = 0; p < mlp.num_param_slots(); ++p) {
    for (std::size_t i = 0; i < mlp.param(p).raw().size(); i += 2) {
      double& w = mlp.param(p).raw()[i];
      const double orig = w;
      w = orig + eps;
      const double up = mse_loss(mlp.infer_ws(x), target).loss;
      w = orig - eps;
      const double down = mse_loss(mlp.infer_ws(x), target).loss;
      w = orig;
      EXPECT_NEAR(mlp.grad(p).raw()[i], (up - down) / (2 * eps), 1e-5)
          << "param " << p << " index " << i;
    }
  }
}

TEST(DuelingHead, SaveLoadRoundTrip) {
  util::Rng rng(25);
  Mlp mlp({4, 8, 3}, Activation::kReLU, rng, /*dueling=*/true);
  Matrix x(1, 4);
  for (double& v : x.raw()) v = rng.normal();
  const auto before = mlp.infer_ws(x).row(0);
  std::stringstream ss;
  mlp.save(ss);
  Mlp loaded = Mlp::load(ss);
  const auto after = loaded.infer_ws(x).row(0);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i], after[i], 1e-12);
  }
}

TEST(Optimizer, AdamDescendsQuadratic) {
  // Minimize (w - 3)^2 by hand-fed gradients on a 1x1 network's weight.
  util::Rng rng(1);
  Mlp net({1, 1}, Activation::kReLU, rng);
  double& w = net.param(0).at(0, 0);
  w = -5.0;
  Adam opt(0.2);
  for (int i = 0; i < 500; ++i) {
    net.zero_grads();
    net.grad(0).at(0, 0) = 2.0 * (w - 3.0);
    opt.step(net);
  }
  EXPECT_NEAR(w, 3.0, 1e-3);
  EXPECT_DOUBLE_EQ(net.param(1).at(0, 0), 0.0);  // zero-gradient bias stays
  EXPECT_THROW(Adam(-1.0), std::invalid_argument);
}

TEST(Optimizer, MlpLearnsXor) {
  util::Rng rng(13);
  Mlp mlp({2, 16, 1}, Activation::kTanh, rng);
  Adam opt(0.05);
  Matrix x(4, 2), t(4, 1);
  const double xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const double ts[4] = {0, 1, 1, 0};
  for (int r = 0; r < 4; ++r) {
    x.at(r, 0) = xs[r][0];
    x.at(r, 1) = xs[r][1];
    t.at(r, 0) = ts[r];
  }
  double loss = 1.0;
  for (int i = 0; i < 2000 && loss > 1e-3; ++i) {
    mlp.zero_grads();
    const LossResult lr = mse_loss(mlp.forward_ws(x), t);
    loss = lr.loss;
    mlp.backward_ws(lr.grad);
    opt.step(mlp);
  }
  EXPECT_LT(loss, 1e-3);
}

}  // namespace
}  // namespace drlnoc::nn
