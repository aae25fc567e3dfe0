// Parameterized geometry sweeps: layer output-shape contracts across a
// grid of configurations (the compile-time of a CNN stack is a run-time
// property here, so these sweeps guard every geometry branch).
#include <gtest/gtest.h>

#include <cmath>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

using testing::random_tensor;

// ---- conv geometry grid ------------------------------------------------------

struct ConvCase {
  std::size_t in_ch, out_ch, kernel, stride, padding, in_hw;
};

class ConvGeometry : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometry, OutputShapeMatchesFormulaAndBackwardRoundTrips) {
  const ConvCase c = GetParam();
  util::Rng rng(1);
  nn::Conv2d conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.padding, rng);
  const auto x =
      random_tensor(tensor::Shape({2, c.in_ch, c.in_hw, c.in_hw}), 2);
  const auto y = conv.forward(x);
  const std::size_t expect_hw =
      (c.in_hw + 2 * c.padding - c.kernel) / c.stride + 1;
  EXPECT_EQ(y.shape(), tensor::Shape({2, c.out_ch, expect_hw, expect_hw}));
  const auto gx = conv.backward(random_tensor(y.shape(), 3));
  EXPECT_EQ(gx.shape(), x.shape());
  EXPECT_FALSE(tensor::has_nonfinite(gx));
  // Weight gradient is populated everywhere (dense — DST's requirement).
  double grad_mass = 0.0;
  for (std::size_t i = 0; i < conv.weight().grad().numel(); ++i) {
    grad_mass += std::fabs(conv.weight().grad()[i]);
  }
  EXPECT_GT(grad_mass, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvGeometry,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 4},   // pointwise
                      ConvCase{3, 8, 3, 1, 1, 8},   // same-pad 3x3
                      ConvCase{4, 4, 3, 2, 1, 9},   // strided odd input
                      ConvCase{2, 6, 5, 1, 2, 7},   // 5x5 same-pad
                      ConvCase{8, 4, 1, 2, 0, 6},   // strided pointwise
                      ConvCase{2, 2, 3, 1, 0, 5},   // valid conv
                      ConvCase{1, 16, 7, 2, 3, 16}, // stem-like 7x7/2
                      ConvCase{5, 3, 2, 2, 0, 8})); // even kernel

// ---- pooling geometry --------------------------------------------------------

struct PoolCase {
  std::size_t kernel, stride, in_hw;
};

class PoolGeometry : public ::testing::TestWithParam<PoolCase> {};

TEST_P(PoolGeometry, MaxPoolShapeAndGradientMass) {
  const PoolCase c = GetParam();
  nn::MaxPool2d pool(c.kernel, c.stride);
  const auto x = random_tensor(tensor::Shape({2, 3, c.in_hw, c.in_hw}), 5);
  const auto y = pool.forward(x);
  const std::size_t expect = (c.in_hw - c.kernel) / c.stride + 1;
  EXPECT_EQ(y.shape(), tensor::Shape({2, 3, expect, expect}));
  // Backward routes exactly one gradient unit per output element.
  tensor::Tensor ones(y.shape());
  ones.fill(1.0f);
  const auto gx = pool.backward(ones);
  EXPECT_NEAR(tensor::sum(gx), static_cast<double>(y.numel()), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Grid, PoolGeometry,
                         ::testing::Values(PoolCase{2, 2, 8}, PoolCase{2, 2, 9},
                                           PoolCase{3, 3, 9}, PoolCase{3, 2, 7},
                                           PoolCase{2, 1, 5},
                                           PoolCase{4, 4, 16}));

// ---- linear size grid --------------------------------------------------------

class LinearSizes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(LinearSizes, ForwardBackwardShapes) {
  const auto [in, out] = GetParam();
  util::Rng rng(7);
  nn::Linear layer(in, out, rng);
  const auto x = random_tensor(tensor::Shape({3, in}), 8);
  const auto y = layer.forward(x);
  EXPECT_EQ(y.shape(), tensor::Shape({3, out}));
  EXPECT_EQ(layer.backward(random_tensor(y.shape(), 9)).shape(), x.shape());
  EXPECT_EQ(layer.weight().value.shape(), tensor::Shape({out, in}));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LinearSizes,
    ::testing::Combine(::testing::Values<std::size_t>(1, 7, 64),
                       ::testing::Values<std::size_t>(1, 5, 33)));

// ---- batchnorm channel grid --------------------------------------------------

class BatchNormChannels : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchNormChannels, TrainAndEvalShapesAgree) {
  const std::size_t channels = GetParam();
  nn::BatchNorm2d bn(channels);
  const auto x = random_tensor(tensor::Shape({4, channels, 3, 3}), 10);
  bn.set_training(true);
  EXPECT_EQ(bn.forward(x).shape(), x.shape());
  EXPECT_EQ(bn.backward(random_tensor(x.shape(), 11)).shape(), x.shape());
  bn.set_training(false);
  EXPECT_EQ(bn.forward(x).shape(), x.shape());
  // Eval backward (SynFlow path) works too.
  EXPECT_EQ(bn.backward(random_tensor(x.shape(), 12)).shape(), x.shape());
}

INSTANTIATE_TEST_SUITE_P(Grid, BatchNormChannels,
                         ::testing::Values<std::size_t>(1, 2, 5, 16, 64));

// ---- input-too-small failure grid ---------------------------------------------

TEST(GeometryErrors, ConvRejectsInputSmallerThanKernel) {
  util::Rng rng(13);
  nn::Conv2d conv(1, 1, 5, 1, 0, rng);
  EXPECT_THROW(conv.forward(random_tensor(tensor::Shape({1, 1, 3, 3}), 14)),
               util::CheckError);
}

TEST(GeometryErrors, PoolRejectsInputSmallerThanWindow) {
  nn::MaxPool2d pool(4);
  EXPECT_THROW(pool.forward(random_tensor(tensor::Shape({1, 1, 3, 3}), 15)),
               util::CheckError);
}

}  // namespace
}  // namespace dstee
