#include <gtest/gtest.h>

#include "testing/test_util.h"

#include <cmath>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/random.h"

namespace blazeit {
namespace {

TEST(LinearTest, ForwardAddsBias) {
  Rng rng(1);
  Linear lin(2, 2, &rng);
  Matrix x(1, 2);
  x.At(0, 0) = 0;
  x.At(0, 1) = 0;
  Matrix y = lin.Forward(x);  // zero input -> bias only (zero-initialized)
  EXPECT_FLOAT_EQ(y.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.At(0, 1), 0.0f);
}

TEST(LinearTest, GradientCheckNumeric) {
  // Finite-difference check of dL/dW for L = sum(output).
  Rng rng(2);
  Linear lin(3, 2, &rng);
  Matrix x(2, 3);
  Rng data_rng(3);
  for (float& v : x.data()) v = static_cast<float>(data_rng.Normal(0, 1));

  Matrix y = lin.Forward(x);
  Matrix dy(y.rows(), y.cols());
  for (float& v : dy.data()) v = 1.0f;
  Matrix dx = lin.Backward(dy);

  // Numeric gradient w.r.t. an input element.
  const double eps = 1e-3;
  Matrix x2 = x;
  x2.At(0, 1) += static_cast<float>(eps);
  Matrix y2 = lin.Forward(x2);
  double f0 = 0, f1 = 0;
  for (float v : y.data()) f0 += v;
  for (float v : y2.data()) f1 += v;
  EXPECT_NEAR(dx.At(0, 1), (f1 - f0) / eps, 1e-2);
}

TEST(ReLUTest, ForwardAndBackwardMask) {
  ReLU relu;
  Matrix x(1, 4);
  x.At(0, 0) = -1;
  x.At(0, 1) = 2;
  x.At(0, 2) = 0;
  x.At(0, 3) = 3;
  Matrix y = relu.Forward(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 0);
  EXPECT_FLOAT_EQ(y.At(0, 1), 2);
  Matrix dy(1, 4);
  for (float& v : dy.data()) v = 1.0f;
  Matrix dx = relu.Backward(dy);
  EXPECT_FLOAT_EQ(dx.At(0, 0), 0);  // gradient blocked for negative input
  EXPECT_FLOAT_EQ(dx.At(0, 1), 1);
  EXPECT_FLOAT_EQ(dx.At(0, 2), 0);  // zero input also blocked
}

TEST(SoftmaxTest, RowsSumToOne) {
  Matrix logits(2, 3);
  logits.At(0, 0) = 1;
  logits.At(0, 1) = 2;
  logits.At(0, 2) = 3;
  logits.At(1, 0) = -100;
  logits.At(1, 1) = 100;  // extreme values must not overflow
  logits.At(1, 2) = 0;
  Matrix p = Softmax(logits);
  for (int r = 0; r < 2; ++r) {
    double sum = 0;
    for (int c = 0; c < 3; ++c) {
      sum += p.At(r, c);
      EXPECT_GE(p.At(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  EXPECT_GT(p.At(0, 2), p.At(0, 0));
  EXPECT_NEAR(p.At(1, 1), 1.0, 1e-5);
}

TEST(CrossEntropyTest, PerfectPredictionLowLoss) {
  Matrix logits(1, 2);
  logits.At(0, 0) = 20;
  logits.At(0, 1) = -20;
  SoftmaxCrossEntropy loss;
  EXPECT_LT(loss.Forward(logits, {0}), 1e-5);
  EXPECT_GT(loss.Forward(logits, {1}), 10.0);
}

TEST(CrossEntropyTest, UniformLogitsGiveLogK) {
  Matrix logits(1, 4);
  SoftmaxCrossEntropy loss;
  EXPECT_NEAR(loss.Forward(logits, {2}), std::log(4.0), 1e-5);
}

TEST(CrossEntropyTest, BackwardIsSoftmaxMinusOneHot) {
  Matrix logits(1, 3);
  logits.At(0, 0) = 0.3f;
  logits.At(0, 1) = -0.1f;
  SoftmaxCrossEntropy loss;
  loss.Forward(logits, {1});
  Matrix grad = loss.Backward();
  EXPECT_NEAR(grad.At(0, 0), loss.probs().At(0, 0), 1e-6);
  EXPECT_NEAR(grad.At(0, 1), loss.probs().At(0, 1) - 1.0, 1e-6);
  double sum = grad.At(0, 0) + grad.At(0, 1) + grad.At(0, 2);
  EXPECT_NEAR(sum, 0.0, 1e-6);
}

TEST(SgdTest, StepMovesAgainstGradient) {
  std::vector<float> w = {1.0f};
  std::vector<float> g = {0.5f};
  SgdOptimizer opt({{&w, &g}}, /*lr=*/0.1, /*momentum=*/0.0);
  opt.Step();
  EXPECT_NEAR(w[0], 0.95f, 1e-6);
  opt.ZeroGrad();
  EXPECT_EQ(g[0], 0.0f);
}

TEST(SgdTest, MomentumAccumulates) {
  std::vector<float> w = {0.0f};
  std::vector<float> g = {1.0f};
  SgdOptimizer opt({{&w, &g}}, 0.1, 0.9);
  opt.Step();  // v=1, w=-0.1
  opt.Step();  // v=1.9, w=-0.29
  EXPECT_NEAR(w[0], -0.29f, 1e-5);
}

}  // namespace
}  // namespace blazeit
