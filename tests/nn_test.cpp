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
  const Matrix c = matmul(a, b);
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
  // matmul_tn(a, b) == aᵀ b; check one element by explicit sum.
  const Matrix tn = matmul_tn(a, b);
  double expect = 0.0;
  for (int k = 0; k < 4; ++k) expect += a.at(k, 1) * b.at(k, 2);
  EXPECT_NEAR(tn.at(1, 2), expect, 1e-12);
  // matmul_nt(a, c) == a cᵀ (3 columns shared).
  const Matrix nt = matmul_nt(a, c);
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
  const Matrix n = Matrix::load(ss);
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
  ReLU relu;
  Tanh tanh_layer;
  Matrix x(2, 2);
  x.at(0, 0) = -1.0;
  x.at(0, 1) = 2.0;
  x.at(1, 0) = 0.0;
  x.at(1, 1) = -3.0;
  Matrix r;
  relu.forward_into(x, r);
  EXPECT_DOUBLE_EQ(r.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.at(0, 1), 2.0);
  Matrix t;
  tanh_layer.forward_into(x, t);
  EXPECT_NEAR(t.at(0, 1), std::tanh(2.0), 1e-12);
}

// Finite-difference gradient check for the whole MLP (DESIGN invariant 8).
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
  auto params = mlp.params();
  auto grads = mlp.grads();
  int checked = 0;
  for (std::size_t p = 0; p < params.size(); ++p) {
    for (std::size_t i = 0; i < params[p]->raw().size(); i += 3) {
      double& w = params[p]->raw()[i];
      const double orig = w;
      w = orig + eps;
      const double up = loss_of(mlp);
      w = orig - eps;
      const double down = loss_of(mlp);
      w = orig;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = grads[p]->raw()[i];
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

  Mlp c({2, 4, 2}, Activation::kReLU, rng);
  const double before = c.params()[0]->at(0, 0);
  const double src = a.params()[0]->at(0, 0);
  c.soft_update_from(a, 0.25);
  EXPECT_NEAR(c.params()[0]->at(0, 0), 0.25 * src + 0.75 * before, 1e-12);
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
  for (Matrix* g : mlp.grads()) total += g->norm() * g->norm();
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
  // Per construction, mean_c(Q_rc) == V_r, i.e. advantages are centred:
  // Q - rowmean(Q) must equal A - rowmean(A); check rowmean(Q) is finite
  // and the head has 2 param groups (value + advantage).
  EXPECT_EQ(head.params().size(), 4u);  // W_v, b_v, W_a, b_a
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
  auto params = mlp.params();
  auto grads = mlp.grads();
  const double eps = 1e-6;
  for (std::size_t p = 0; p < params.size(); ++p) {
    for (std::size_t i = 0; i < params[p]->raw().size(); i += 2) {
      double& w = params[p]->raw()[i];
      const double orig = w;
      w = orig + eps;
      const double up = mse_loss(mlp.infer_ws(x), target).loss;
      w = orig - eps;
      const double down = mse_loss(mlp.infer_ws(x), target).loss;
      w = orig;
      EXPECT_NEAR(grads[p]->raw()[i], (up - down) / (2 * eps), 1e-5)
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

TEST(Optimizer, SgdDescendsQuadratic) {
  // Minimize (w - 3)^2 by hand-fed gradients.
  Matrix w(1, 1, 0.0), g(1, 1);
  Sgd opt(0.1);
  for (int i = 0; i < 200; ++i) {
    g.at(0, 0) = 2.0 * (w.at(0, 0) - 3.0);
    opt.step({&w}, {&g});
  }
  EXPECT_NEAR(w.at(0, 0), 3.0, 1e-6);
}

TEST(Optimizer, AdamDescendsQuadratic) {
  Matrix w(1, 1, -5.0), g(1, 1);
  Adam opt(0.2);
  for (int i = 0; i < 500; ++i) {
    g.at(0, 0) = 2.0 * (w.at(0, 0) - 3.0);
    opt.step({&w}, {&g});
  }
  EXPECT_NEAR(w.at(0, 0), 3.0, 1e-3);
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
    opt.step(mlp.params(), mlp.grads());
  }
  EXPECT_LT(loss, 1e-3);
}

TEST(Optimizer, FactoryKinds) {
  EXPECT_EQ(make_optimizer("sgd", 0.1)->name(), "sgd");
  EXPECT_EQ(make_optimizer("adam", 0.1)->name(), "adam");
  EXPECT_THROW(make_optimizer("rmsprop", 0.1), std::invalid_argument);
  EXPECT_THROW(Adam(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace drlnoc::nn
