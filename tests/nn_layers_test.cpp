// Layer tests: shape contracts + finite-difference gradient checks for
// every layer (the DST methods trust these gradients for growth scoring).
#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

using testing::check_module_gradients;
using testing::random_tensor;

TEST(Linear, ForwardShapeAndBias) {
  util::Rng rng(1);
  nn::Linear layer(4, 3, rng);
  layer.bias().value[1] = 2.0f;
  const auto y = layer.forward(random_tensor(tensor::Shape({5, 4}), 2));
  EXPECT_EQ(y.shape(), tensor::Shape({5, 3}));
}

TEST(Linear, ZeroWeightsBiasOnlyOutput) {
  util::Rng rng(1);
  nn::Linear layer(2, 2, rng);
  layer.weight().value.fill(0.0f);
  layer.bias().value[0] = 1.5f;
  layer.bias().value[1] = -0.5f;
  const auto y = layer.forward(random_tensor(tensor::Shape({3, 2}), 3));
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(y.at2(n, 0), 1.5f);
    EXPECT_EQ(y.at2(n, 1), -0.5f);
  }
}

TEST(Linear, GradientsMatchFiniteDifferences) {
  util::Rng rng(2);
  nn::Linear layer(6, 4, rng);
  check_module_gradients(layer, random_tensor(tensor::Shape({3, 6}), 4));
}

TEST(Linear, NoBiasVariantHasOneParameter) {
  util::Rng rng(3);
  nn::Linear layer(4, 4, rng, /*with_bias=*/false);
  EXPECT_EQ(layer.parameters().size(), 1u);
  EXPECT_THROW(layer.bias(), util::CheckError);
}

TEST(Linear, WrongInputShapeThrows) {
  util::Rng rng(4);
  nn::Linear layer(4, 2, rng);
  EXPECT_THROW(layer.forward(random_tensor(tensor::Shape({3, 5}), 5)),
               util::CheckError);
}

TEST(Linear, WeightIsSparsifiableBiasIsNot) {
  util::Rng rng(5);
  nn::Linear layer(4, 2, rng);
  EXPECT_TRUE(layer.weight().sparsifiable);
  EXPECT_FALSE(layer.bias().sparsifiable);
}

TEST(Conv2d, ForwardShape) {
  util::Rng rng(6);
  nn::Conv2d conv(3, 8, 3, 1, 1, rng);
  const auto y = conv.forward(random_tensor(tensor::Shape({2, 3, 8, 8}), 7));
  EXPECT_EQ(y.shape(), tensor::Shape({2, 8, 8, 8}));
}

TEST(Conv2d, StrideShrinksOutput) {
  util::Rng rng(8);
  nn::Conv2d conv(1, 4, 3, 2, 1, rng);
  const auto y = conv.forward(random_tensor(tensor::Shape({1, 1, 8, 8}), 9));
  EXPECT_EQ(y.shape(), tensor::Shape({1, 4, 4, 4}));
}

TEST(Conv2d, GradientsMatchFiniteDifferences) {
  util::Rng rng(10);
  nn::Conv2d conv(2, 3, 3, 1, 1, rng);
  check_module_gradients(conv, random_tensor(tensor::Shape({2, 2, 5, 5}), 11));
}

TEST(Conv2d, StridedGradientsMatchFiniteDifferences) {
  util::Rng rng(12);
  nn::Conv2d conv(2, 2, 3, 2, 1, rng);
  check_module_gradients(conv, random_tensor(tensor::Shape({1, 2, 6, 6}), 13));
}

TEST(Conv2d, BiasGradients) {
  util::Rng rng(14);
  nn::Conv2d conv(1, 2, 3, 1, 1, rng, /*with_bias=*/true);
  EXPECT_EQ(conv.parameters().size(), 2u);
  check_module_gradients(conv, random_tensor(tensor::Shape({2, 1, 4, 4}), 15));
}

TEST(Conv2d, KnownConvolutionValue) {
  util::Rng rng(16);
  nn::Conv2d conv(1, 1, 2, 1, 0, rng);
  conv.weight().value = tensor::Tensor(tensor::Shape({1, 1, 2, 2}),
                                       {1, 0, 0, 1});  // trace kernel
  tensor::Tensor x(tensor::Shape({1, 1, 3, 3}),
                   {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const auto y = conv.forward(x);
  EXPECT_EQ(y.shape(), tensor::Shape({1, 1, 2, 2}));
  EXPECT_EQ(y[0], 1.0f + 5.0f);
  EXPECT_EQ(y[3], 5.0f + 9.0f);
}

TEST(Conv2d, WrongChannelCountThrows) {
  util::Rng rng(17);
  nn::Conv2d conv(3, 4, 3, 1, 1, rng);
  EXPECT_THROW(conv.forward(random_tensor(tensor::Shape({1, 2, 8, 8}), 18)),
               util::CheckError);
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  nn::BatchNorm2d bn(3);
  bn.set_training(true);
  const auto x = random_tensor(tensor::Shape({4, 3, 5, 5}), 19, 3.0f);
  const auto y = bn.forward(x);
  // Each channel of the output should have ≈0 mean and ≈1 variance.
  for (std::size_t c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    const std::size_t count = 4 * 25;
    for (std::size_t n = 0; n < 4; ++n) {
      for (std::size_t i = 0; i < 25; ++i) {
        mean += y[(n * 3 + c) * 25 + i];
      }
    }
    mean /= count;
    for (std::size_t n = 0; n < 4; ++n) {
      for (std::size_t i = 0; i < 25; ++i) {
        const double d = y[(n * 3 + c) * 25 + i] - mean;
        var += d * d;
      }
    }
    var /= count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  nn::BatchNorm2d bn(2);
  bn.set_training(true);
  for (int i = 0; i < 20; ++i) {
    bn.forward(random_tensor(tensor::Shape({8, 2, 3, 3}),
                             static_cast<std::uint64_t>(100 + i), 2.0f));
  }
  bn.set_training(false);
  const auto x = random_tensor(tensor::Shape({4, 2, 3, 3}), 21, 2.0f);
  const auto y = bn.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  // Running stats should be near the true distribution (mean 0, var 4).
  EXPECT_NEAR(bn.running_mean()[0], 0.0f, 0.5f);
  EXPECT_NEAR(bn.running_var()[0], 4.0f, 1.5f);
}

TEST(BatchNorm2d, GradientsMatchFiniteDifferences) {
  nn::BatchNorm2d bn(2);
  bn.set_training(true);
  check_module_gradients(bn, random_tensor(tensor::Shape({3, 2, 4, 4}), 22),
                         8e-2, 10, 1e-2f);
}

TEST(BatchNorm1d, GradientsMatchFiniteDifferences) {
  nn::BatchNorm1d bn(5);
  bn.set_training(true);
  check_module_gradients(bn, random_tensor(tensor::Shape({6, 5}), 23), 8e-2,
                         10, 1e-2f);
}

TEST(BatchNorm, RejectsWrongRank) {
  nn::BatchNorm2d bn2(3);
  EXPECT_THROW(bn2.forward(random_tensor(tensor::Shape({3, 3}), 24)),
               util::CheckError);
  nn::BatchNorm1d bn1(3);
  EXPECT_THROW(bn1.forward(random_tensor(tensor::Shape({2, 3, 4, 4}), 25)),
               util::CheckError);
}

TEST(ReLU, ZeroesNegatives) {
  nn::ReLU relu;
  tensor::Tensor x(tensor::Shape({4}), {-1, 0, 2, -3});
  const auto y = relu.forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  EXPECT_EQ(y[3], 0.0f);
}

TEST(ReLU, GradientMasksNegatives) {
  nn::ReLU relu;
  tensor::Tensor x(tensor::Shape({3}), {-1, 1, 2});
  relu.forward(x);
  tensor::Tensor g(tensor::Shape({3}), {5, 5, 5});
  const auto gx = relu.backward(g);
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[1], 5.0f);
  EXPECT_EQ(gx[2], 5.0f);
}

TEST(Activations, SigmoidTanhLeakyGradients) {
  nn::Sigmoid sigmoid;
  check_module_gradients(sigmoid, random_tensor(tensor::Shape({3, 4}), 26));
  nn::Tanh tanh_layer;
  check_module_gradients(tanh_layer, random_tensor(tensor::Shape({3, 4}), 27));
  nn::LeakyReLU leaky(0.1f);
  check_module_gradients(leaky, random_tensor(tensor::Shape({3, 4}), 28));
}

TEST(MaxPool, SelectsWindowMaximum) {
  nn::MaxPool2d pool(2);
  tensor::Tensor x(tensor::Shape({1, 1, 2, 2}), {1, 5, 3, 2});
  const auto y = pool.forward(x);
  EXPECT_EQ(y.shape(), tensor::Shape({1, 1, 1, 1}));
  EXPECT_EQ(y[0], 5.0f);
  tensor::Tensor g(tensor::Shape({1, 1, 1, 1}), {7.0f});
  const auto gx = pool.backward(g);
  EXPECT_EQ(gx[1], 7.0f);  // gradient routed to the argmax
  EXPECT_EQ(gx[0], 0.0f);
}

TEST(MaxPool, GradientsMatchFiniteDifferences) {
  nn::MaxPool2d pool(2);
  // distinct values so the argmax is stable under perturbation
  check_module_gradients(pool, random_tensor(tensor::Shape({2, 2, 4, 4}), 29),
                         5e-2, 12, 1e-3f);
}

TEST(AvgPool, AveragesWindow) {
  nn::AvgPool2d pool(2);
  tensor::Tensor x(tensor::Shape({1, 1, 2, 2}), {1, 2, 3, 6});
  const auto y = pool.forward(x);
  EXPECT_EQ(y[0], 3.0f);
}

TEST(AvgPool, GradientsMatchFiniteDifferences) {
  nn::AvgPool2d pool(2);
  check_module_gradients(pool, random_tensor(tensor::Shape({1, 2, 4, 4}), 30));
}

TEST(GlobalAvgPool, ReducesToChannels) {
  nn::GlobalAvgPool pool;
  const auto y =
      pool.forward(random_tensor(tensor::Shape({3, 5, 4, 4}), 31));
  EXPECT_EQ(y.shape(), tensor::Shape({3, 5}));
}

TEST(GlobalAvgPool, GradientsMatchFiniteDifferences) {
  nn::GlobalAvgPool pool;
  check_module_gradients(pool, random_tensor(tensor::Shape({2, 3, 3, 3}), 32));
}

TEST(Flatten, ShapeRoundTrip) {
  nn::Flatten flatten;
  const auto x = random_tensor(tensor::Shape({2, 3, 4, 5}), 33);
  const auto y = flatten.forward(x);
  EXPECT_EQ(y.shape(), tensor::Shape({2, 60}));
  const auto gx = flatten.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Dropout, EvalModePassesThrough) {
  nn::Dropout dropout(0.5, util::Rng(1));
  dropout.set_training(false);
  const auto x = random_tensor(tensor::Shape({4, 4}), 34);
  EXPECT_TRUE(dropout.forward(x).equals(x));
}

TEST(Dropout, TrainModeDropsAndRescales) {
  nn::Dropout dropout(0.5, util::Rng(2));
  dropout.set_training(true);
  tensor::Tensor x({10000});
  x.fill(1.0f);
  const auto y = dropout.forward(x);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) ++zeros;
    else EXPECT_NEAR(y[i], 2.0f, 1e-5f);  // 1/(1-0.5)
    sum += y[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.5, 0.03);
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.05);  // expectation preserved
}

TEST(Dropout, BackwardUsesSameMask) {
  nn::Dropout dropout(0.3, util::Rng(3));
  dropout.set_training(true);
  tensor::Tensor x({100});
  x.fill(1.0f);
  const auto y = dropout.forward(x);
  tensor::Tensor g({100});
  g.fill(1.0f);
  const auto gx = dropout.backward(g);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(gx[i], y[i]);  // same 0-or-scale pattern
  }
}

TEST(Dropout, InvalidProbabilityThrows) {
  EXPECT_THROW(nn::Dropout(1.0, util::Rng(4)), util::CheckError);
  EXPECT_THROW(nn::Dropout(-0.1, util::Rng(5)), util::CheckError);
}

TEST(Sequential, ComposesAndPropagatesTraining) {
  util::Rng rng(35);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(6, 8, rng);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Linear>(8, 3, rng);
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.parameters().size(), 4u);  // 2 weights + 2 biases
  const auto y = seq.forward(random_tensor(tensor::Shape({2, 6}), 36));
  EXPECT_EQ(y.shape(), tensor::Shape({2, 3}));
  seq.set_training(false);
  EXPECT_FALSE(seq.child(1).is_training());
}

TEST(Sequential, GradientsMatchFiniteDifferences) {
  util::Rng rng(37);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(5, 7, rng);
  seq.emplace<nn::Tanh>();
  seq.emplace<nn::Linear>(7, 2, rng);
  check_module_gradients(seq, random_tensor(tensor::Shape({3, 5}), 38));
}

TEST(Sequential, ZeroGradClearsAll) {
  util::Rng rng(39);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(3, 3, rng);
  const auto x = random_tensor(tensor::Shape({2, 3}), 40);
  seq.forward(x);
  seq.backward(random_tensor(tensor::Shape({2, 3}), 41));
  seq.zero_grad();
  for (auto* p : seq.parameters()) {
    for (std::size_t i = 0; i < p->grad().numel(); ++i) {
      EXPECT_EQ(p->grad()[i], 0.0f);
    }
  }
}

TEST(Sequential, NumParametersCountsElements) {
  util::Rng rng(42);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(3, 4, rng);  // 12 + 4
  EXPECT_EQ(seq.num_parameters(), 16u);
}

TEST(Parameter, GradientIsAllocatedOnFirstUse) {
  util::Rng rng(51);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(2, 3, 3, 1, 1, rng, /*with_bias=*/true);
  seq.emplace<nn::BatchNorm2d>(3);
  seq.emplace<nn::Flatten>();
  seq.emplace<nn::Linear>(3 * 4 * 4, 5, rng);
  const std::vector<nn::Parameter*> params = seq.parameters();
  ASSERT_EQ(params.size(), 6u);  // conv, batch-norm and linear: two each

  // Fresh layers hold no gradient, and zero_grad() allocates none.
  for (const nn::Parameter* p : params) EXPECT_FALSE(p->has_grad()) << p->name;
  seq.zero_grad();
  for (const nn::Parameter* p : params) EXPECT_FALSE(p->has_grad()) << p->name;

  // The first grad() is zeros of the value's shape.
  nn::Parameter& w = *params[0];
  EXPECT_TRUE(w.grad().equals(tensor::Tensor(w.value.shape())));
  EXPECT_TRUE(w.has_grad());
  w.release_grad();
  EXPECT_FALSE(w.has_grad());

  // A backward pass allocates and fills every gradient.
  seq.forward(random_tensor(tensor::Shape({2, 2, 4, 4}), 52));
  seq.backward(random_tensor(tensor::Shape({2, 5}), 53));
  for (nn::Parameter* p : params) {
    ASSERT_TRUE(p->has_grad()) << p->name;
    EXPECT_GT(tensor::squared_norm(p->grad()), 0.0) << p->name;
  }

  // Released, it is gone; a later grad() is zeros again.
  w.release_grad();
  EXPECT_FALSE(w.has_grad());
  EXPECT_TRUE(w.grad().equals(tensor::Tensor(w.value.shape())));
}

TEST(Sequential, ConvPoolStackGradients) {
  util::Rng rng(43);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(1, 2, 3, 1, 1, rng);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::MaxPool2d>(2);
  seq.emplace<nn::Flatten>();
  seq.emplace<nn::Linear>(2 * 2 * 2, 3, rng);
  check_module_gradients(seq, random_tensor(tensor::Shape({2, 1, 4, 4}), 44),
                         6e-2);
}

}  // namespace
}  // namespace dstee
