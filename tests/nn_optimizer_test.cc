#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "autograd/nn.h"
#include "autograd/optimizer.h"

namespace nmcdr {
namespace ag {
namespace {

TEST(ParameterStoreTest, RegisterAndLookup) {
  ParameterStore store;
  Tensor w = store.Register("w", Matrix(2, 3));
  EXPECT_TRUE(store.Contains("w"));
  EXPECT_FALSE(store.Contains("v"));
  EXPECT_EQ(store.Get("w").raw(), w.raw());
  EXPECT_EQ(store.ParameterCount(), 6);
  EXPECT_TRUE(w.requires_grad());
}

TEST(ParameterStoreDeathTest, DuplicateNameAborts) {
  ParameterStore store;
  store.Register("w", Matrix(1, 1));
  EXPECT_DEATH(store.Register("w", Matrix(1, 1)), "CHECK");
}

TEST(ParameterStoreTest, ZeroGradClearsAccumulation) {
  ParameterStore store;
  Tensor w = store.Register("w", Matrix(1, 2, 1.f));
  Backward(Sum(w));
  EXPECT_EQ(w.grad().At(0, 0), 1.f);
  store.ZeroGrad();
  EXPECT_EQ(w.grad().At(0, 0), 0.f);
}

TEST(ParameterStoreTest, ClipGradNormScalesDown) {
  ParameterStore store;
  Tensor w = store.Register("w", Matrix(1, 2));
  w.raw()->grad = Matrix::FromRows({{3.f, 4.f}});  // norm 5
  const float norm = store.ClipGradNorm(1.f);
  EXPECT_NEAR(norm, 5.f, 1e-5f);
  EXPECT_NEAR(w.grad().At(0, 0), 0.6f, 1e-5f);
  EXPECT_NEAR(w.grad().At(0, 1), 0.8f, 1e-5f);
}

TEST(ParameterStoreTest, ClipGradNormNoOpBelowThreshold) {
  ParameterStore store;
  Tensor w = store.Register("w", Matrix(1, 1));
  w.raw()->grad = Matrix::FromRows({{0.5f}});
  store.ClipGradNorm(1.f);
  EXPECT_NEAR(w.grad().At(0, 0), 0.5f, 1e-6f);
}

TEST(ParameterStoreTest, SnapshotRestoreRoundTrip) {
  ParameterStore store;
  Tensor w = store.Register("w", Matrix(1, 2, 1.f));
  std::vector<Matrix> snapshot = store.SnapshotValues();
  w.mutable_value().At(0, 0) = 99.f;
  store.RestoreValues(snapshot);
  EXPECT_EQ(w.value().At(0, 0), 1.f);
}

TEST(LinearTest, ForwardMatchesManual) {
  ParameterStore store;
  Rng rng(1);
  Linear layer(&store, "l", 3, 2, &rng);
  EXPECT_TRUE(store.Contains("l.W"));
  EXPECT_TRUE(store.Contains("l.b"));
  Matrix x = Matrix::FromRows({{1, 2, 3}});
  Tensor out = layer.Forward(Tensor(x));
  Matrix expected = AddRowBroadcast(MatMul(x, layer.weight().value()),
                                    layer.bias().value());
  EXPECT_TRUE(AllClose(out.value(), expected, 1e-5f));
}

TEST(MlpTest, ShapesAndLayerAccess) {
  ParameterStore store;
  Rng rng(2);
  Mlp mlp(&store, "m", {4, 8, 8, 1}, &rng);
  EXPECT_EQ(mlp.num_layers(), 3);
  EXPECT_EQ(mlp.in_features(), 4);
  EXPECT_EQ(mlp.out_features(), 1);
  Tensor out = mlp.Forward(Tensor(Matrix(5, 4)));
  EXPECT_EQ(out.rows(), 5);
  EXPECT_EQ(out.cols(), 1);
}

TEST(SgdTest, StepMathExact) {
  ParameterStore store;
  Tensor w = store.Register("w", Matrix(1, 1, 2.f));
  Sgd sgd(&store, /*lr=*/0.1f);
  Backward(Sum(w));  // grad = 1
  sgd.Step();
  EXPECT_NEAR(w.value().At(0, 0), 1.9f, 1e-6f);
  // Gradient zeroed after step.
  EXPECT_EQ(w.grad().At(0, 0), 0.f);
}

TEST(SgdTest, WeightDecayPullsTowardZero) {
  ParameterStore store;
  Tensor w = store.Register("w", Matrix(1, 1, 10.f));
  Sgd sgd(&store, /*lr=*/0.1f, /*weight_decay=*/1.f);
  Backward(Sum(Scale(w, 0.f)));  // zero data gradient
  sgd.Step();
  EXPECT_NEAR(w.value().At(0, 0), 9.f, 1e-5f);
}

TEST(AdamTest, FirstStepMagnitudeIsLr) {
  // With bias correction, the first Adam step is lr * g/|g| = lr * sign(g).
  ParameterStore store;
  Tensor w = store.Register("w", Matrix(1, 1, 1.f));
  Adam adam(&store, /*lr=*/0.01f);
  Backward(Sum(Scale(w, 3.f)));  // grad = 3
  adam.Step();
  EXPECT_NEAR(w.value().At(0, 0), 1.f - 0.01f, 1e-5f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 elementwise.
  ParameterStore store;
  Tensor w = store.Register("w", Matrix(2, 2));
  Adam adam(&store, 0.05f);
  for (int step = 0; step < 500; ++step) {
    Tensor diff = AddScalar(w, -3.f);
    Backward(SumSquares(diff));
    adam.Step();
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.value().data()[i], 3.f, 1e-2f);
  }
}

TEST(AdamTest, SkipsParamsWithoutGradients) {
  ParameterStore store;
  Tensor used = store.Register("used", Matrix(1, 1, 1.f));
  Tensor unused = store.Register("unused", Matrix(1, 1, 5.f));
  Adam adam(&store, 0.1f);
  Backward(Sum(used));
  adam.Step();
  EXPECT_EQ(unused.value().At(0, 0), 5.f);
  EXPECT_LT(used.value().At(0, 0), 1.f);
}

TEST(OptimizerFactoryTest, MakesKnownOptimizers) {
  ParameterStore store;
  store.Register("w", Matrix(1, 1));
  EXPECT_NE(MakeOptimizer("sgd", &store, 0.1f), nullptr);
  EXPECT_NE(MakeOptimizer("adam", &store, 0.1f), nullptr);
}

TEST(OptimizerTest, LearningRateAdjustable) {
  ParameterStore store;
  store.Register("w", Matrix(1, 1));
  Sgd sgd(&store, 0.1f);
  EXPECT_NEAR(sgd.learning_rate(), 0.1f, 1e-7f);
  sgd.set_learning_rate(0.01f);
  EXPECT_NEAR(sgd.learning_rate(), 0.01f, 1e-7f);
}

/// Parameterized: training a Linear on a least-squares problem converges
/// for several optimizers and learning rates. The name is a std::string,
/// not a const char*, so the printed parameter (and with it the CTest
/// name) is the optimizer name rather than a run-dependent address.
class LinearRegressionSweep
    : public ::testing::TestWithParam<std::pair<std::string, float>> {};

TEST_P(LinearRegressionSweep, FitsLeastSquares) {
  const auto [opt_name, lr] = GetParam();
  ParameterStore store;
  Rng rng(3);
  Linear layer(&store, "l", 2, 1, &rng);
  auto optimizer = MakeOptimizer(opt_name, &store, lr);
  // Target: y = 2*x0 - x1 + 0.5.
  Matrix x = Matrix::Gaussian(64, 2, &rng);
  Matrix y(64, 1);
  for (int i = 0; i < 64; ++i) {
    y.At(i, 0) = 2.f * x.At(i, 0) - x.At(i, 1) + 0.5f;
  }
  float final_loss = 0.f;
  for (int step = 0; step < 800; ++step) {
    Tensor pred = layer.Forward(Tensor(x));
    Tensor loss = Mean(Hadamard(Sub(pred, Tensor(y)), Sub(pred, Tensor(y))));
    final_loss = loss.value().At(0, 0);
    ag::Backward(loss);
    optimizer->Step();
  }
  EXPECT_LT(final_loss, 1e-2f);
}

INSTANTIATE_TEST_SUITE_P(
    Optimizers, LinearRegressionSweep,
    ::testing::Values(std::make_pair(std::string("sgd"), 0.1f),
                      std::make_pair(std::string("adam"), 0.05f),
                      std::make_pair(std::string("adam"), 0.01f)));

}  // namespace
}  // namespace ag
}  // namespace nmcdr
