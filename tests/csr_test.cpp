// CSR sparse-inference tests: conversion round-trips, products vs dense
// reference, and the end-to-end sparse deployment of a masked MLP through
// the serve compiler.
#include <gtest/gtest.h>

#include <vector>

#include "models/mlp.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "serve/compiled_net.hpp"
#include "sparse/csr.hpp"
#include "sparse/sparse_model.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

using testing::random_tensor;

TEST(Csr, FromDenseRoundTrips) {
  tensor::Tensor dense(tensor::Shape({3, 4}),
                       {1, 0, 2, 0, 0, 0, 0, 3, 4, 0, 0, 5});
  const auto csr = sparse::CsrMatrix::from_dense(dense);
  EXPECT_EQ(csr.rows(), 3u);
  EXPECT_EQ(csr.cols(), 4u);
  EXPECT_EQ(csr.nnz(), 5u);
  EXPECT_NEAR(csr.density(), 5.0 / 12.0, 1e-12);
  EXPECT_TRUE(csr.to_dense().equals(dense));
}

TEST(Csr, EpsThresholdDropsSmallEntries) {
  tensor::Tensor dense(tensor::Shape({1, 3}), {1.0f, 1e-6f, -2.0f});
  const auto csr = sparse::CsrMatrix::from_dense(dense, 1e-3f);
  EXPECT_EQ(csr.nnz(), 2u);
}

TEST(Csr, FromMaskedStoresActiveEntriesOnly) {
  util::Rng rng(1);
  models::MlpConfig cfg;
  cfg.in_features = 8;
  cfg.hidden = {};
  cfg.out_features = 8;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, 0.75, sparse::DistributionKind::kUniform,
                         rng);
  const auto csr = sparse::CsrMatrix::from_masked(sm.layer(0));
  EXPECT_EQ(csr.nnz(), sm.layer(0).num_active());
  // Reconstruction matches the masked dense weights exactly.
  EXPECT_TRUE(csr.to_dense().equals(sm.layer(0).param().value));
}

TEST(Csr, MatvecMatchesDense) {
  const auto dense = random_tensor(tensor::Shape({7, 5}), 2);
  const auto x = random_tensor(tensor::Shape({5}), 3);
  const auto csr = sparse::CsrMatrix::from_dense(dense);
  const auto y = csr.matvec(x);
  ASSERT_EQ(y.numel(), 7u);
  for (std::size_t r = 0; r < 7; ++r) {
    float expect = 0.0f;
    for (std::size_t c = 0; c < 5; ++c) expect += dense[r * 5 + c] * x[c];
    EXPECT_NEAR(y[r], expect, 1e-4f);
  }
}

TEST(Csr, MatmulNtMatchesDenseKernel) {
  const auto w = random_tensor(tensor::Shape({6, 9}), 4);
  const auto x = random_tensor(tensor::Shape({4, 9}), 5);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  EXPECT_TRUE(csr.matmul_nt(x).allclose(tensor::matmul_nt(x, w), 1e-4f));
}

TEST(Csr, SpmmMatchesDenseMatmulOnRandomMaskedMatrices) {
  for (const double density : {0.05, 0.3, 0.7}) {
    auto w = random_tensor(tensor::Shape({13, 9}), 31);
    // Random mask at the given density.
    util::Rng mask_rng(static_cast<std::uint64_t>(density * 1000));
    for (std::size_t i = 0; i < w.numel(); ++i) {
      if (mask_rng.uniform() > density) w[i] = 0.0f;
    }
    const auto x = random_tensor(tensor::Shape({6, 9}), 33);
    const auto csr = sparse::CsrMatrix::from_dense(w);
    const auto expected = tensor::matmul_nt(x, w);
    EXPECT_TRUE(csr.spmm(x).allclose(expected, 1e-4f))
        << "density " << density;
  }
}

TEST(Csr, SpmmHandlesEmptyRowsAndFullyDense) {
  // Row 1 is entirely masked; the result row must be exactly zero.
  tensor::Tensor w(tensor::Shape({3, 4}),
                   {1, -2, 0, 3, 0, 0, 0, 0, 4, 5, 6, 7});
  const auto x = random_tensor(tensor::Shape({5, 4}), 41);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  const auto y = csr.spmm(x);
  for (std::size_t n = 0; n < 5; ++n) EXPECT_EQ(y[n * 3 + 1], 0.0f);
  EXPECT_TRUE(y.allclose(tensor::matmul_nt(x, w), 1e-4f));

  // Fully dense matrix: CSR must agree with the dense kernel too.
  const auto d = random_tensor(tensor::Shape({7, 6}), 43);
  const auto xd = random_tensor(tensor::Shape({4, 6}), 44);
  EXPECT_EQ(sparse::CsrMatrix::from_dense(d).nnz(), 42u);
  EXPECT_TRUE(sparse::CsrMatrix::from_dense(d).spmm(xd).allclose(
      tensor::matmul_nt(xd, d), 1e-4f));
}

TEST(Csr, SpmmIsThreadCountInvariant) {
  // Row-parallel chunks write disjoint outputs, so any thread count must
  // produce bit-identical results (0 = hardware concurrency).
  const auto w = random_tensor(tensor::Shape({33, 17}), 51);
  const auto x = random_tensor(tensor::Shape({9, 17}), 52);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  const auto serial = csr.spmm(x, 1);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                    std::size_t{5}, std::size_t{64}}) {
    EXPECT_TRUE(csr.spmm(x, threads).equals(serial))
        << "threads=" << threads;
  }
}

TEST(Csr, SpmmShapeChecks) {
  const auto w = random_tensor(tensor::Shape({3, 4}), 61);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  EXPECT_THROW(csr.spmm(random_tensor(tensor::Shape({2, 5}), 62)),
               util::CheckError);
  EXPECT_THROW(csr.spmm(random_tensor(tensor::Shape({4}), 63)),
               util::CheckError);
}

TEST(Csr, ScaleRowsScalesStoredValuesOnly) {
  tensor::Tensor w(tensor::Shape({2, 3}), {1, 0, 2, 0, 3, 0});
  auto csr = sparse::CsrMatrix::from_dense(w);
  csr.scale_rows(std::vector<float>{2.0f, -1.0f});
  tensor::Tensor expected(tensor::Shape({2, 3}), {2, 0, 4, 0, -3, 0});
  EXPECT_TRUE(csr.to_dense().equals(expected));
  EXPECT_THROW(csr.scale_rows(std::vector<float>{1.0f}), util::CheckError);
}

TEST(Csr, ShapeChecks) {
  const auto w = random_tensor(tensor::Shape({3, 4}), 6);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  EXPECT_THROW(csr.matvec(random_tensor(tensor::Shape({5}), 7)),
               util::CheckError);
  EXPECT_THROW(csr.matmul_nt(random_tensor(tensor::Shape({2, 5}), 8)),
               util::CheckError);
  EXPECT_THROW(
      sparse::CsrMatrix::from_dense(random_tensor(tensor::Shape({4}), 9)),
      util::CheckError);
}

class CsrDensitySweep : public ::testing::TestWithParam<double> {};

TEST_P(CsrDensitySweep, SparseForwardMatchesMaskedDenseMlp) {
  // End-to-end: sparse-train state → CSR-compiled serve program → forward
  // equals the dense masked model's eval-mode forward at every density.
  const double sparsity = GetParam();
  util::Rng rng(11);
  models::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.hidden = {24, 16};
  cfg.out_features = 5;
  models::Mlp model(cfg, rng);
  sparse::SparseModel sm(model, sparsity,
                         sparse::DistributionKind::kUniform, rng);

  model.set_training(false);
  const serve::CompiledNet net = serve::CompiledNet::compile(model, &sm);
  const auto x = random_tensor(tensor::Shape({6, 12}), 13);
  const auto dense_out = model.forward(x);
  const auto sparse_out = net.forward(x);
  EXPECT_TRUE(sparse_out.allclose(dense_out, 1e-3f));
  EXPECT_EQ(net.total_nnz(), sm.total_active());
}

INSTANTIATE_TEST_SUITE_P(Densities, CsrDensitySweep,
                         ::testing::Values(0.0, 0.5, 0.9, 0.98));

TEST(Csr, FromDenseFlattensHigherRanksRowMajor) {
  // A conv weight [Cout, Cin, K, K] converts as [Cout, Cin·K·K] — the same
  // 2-d view nn::Conv2d lowers to for its matmul.
  const auto w = random_tensor(tensor::Shape({5, 3, 2, 2}), 31);
  const auto csr = sparse::CsrMatrix::from_dense(w);
  EXPECT_EQ(csr.rows(), 5u);
  EXPECT_EQ(csr.cols(), 12u);
  EXPECT_TRUE(csr.to_dense().equals(w.reshaped(tensor::Shape({5, 12}))));
}

TEST(Csr, SpmmColsMatchesDenseMatmul) {
  // Y = A·B over a column-per-position patch matrix, vs the dense kernel.
  util::Rng rng(7);
  tensor::Tensor a = random_tensor(tensor::Shape({6, 9}), 41);
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if ((i * 2654435761u) % 10 < 7) a[i] = 0.0f;  // ~70% sparse
  }
  const auto csr = sparse::CsrMatrix::from_dense(a);
  const auto b = random_tensor(tensor::Shape({9, 13}), 42);
  const auto expected = tensor::matmul(a, b);
  EXPECT_TRUE(csr.spmm_cols(b).allclose(expected, 1e-5f));

  // The into-variant writes the same values into caller storage.
  tensor::Tensor out({6, 13});
  csr.spmm_cols_into(b, out.raw());
  EXPECT_TRUE(out.allclose(expected, 1e-5f));
}

TEST(Csr, SpmmColsShapeChecks) {
  const auto csr =
      sparse::CsrMatrix::from_dense(random_tensor(tensor::Shape({3, 4}), 1));
  EXPECT_THROW(csr.spmm_cols(random_tensor(tensor::Shape({5, 2}), 2)),
               util::CheckError);
  EXPECT_THROW(csr.spmm_cols(random_tensor(tensor::Shape({4}), 3)),
               util::CheckError);
}

TEST(Csr, Im2colSpmmMatchesDenseConvReference) {
  // The serve-side conv lowering (im2col + spmm_cols with the masked
  // [Cout, Cin·K·K] matrix) must reproduce nn::Conv2d's dense forward on
  // the same masked weights, across stride/padding variants.
  struct Variant {
    std::size_t kernel, stride, padding;
  };
  for (const Variant v : {Variant{3, 1, 1}, Variant{3, 2, 0},
                          Variant{5, 2, 2}, Variant{1, 1, 0}}) {
    util::Rng rng(100 + v.kernel * 10 + v.stride);
    nn::Conv2d conv(3, 6, v.kernel, v.stride, v.padding, rng);
    // Mask ~60% of the weights to zero (stored-zero topology).
    auto& w = conv.weight().value;
    for (std::size_t i = 0; i < w.numel(); ++i) {
      if ((i * 2654435761u) % 10 < 6) w[i] = 0.0f;
    }
    conv.set_training(false);
    const auto x = random_tensor(tensor::Shape({2, 3, 9, 9}), 55);
    const auto expected = conv.forward(x);

    const auto csr = sparse::CsrMatrix::from_dense(w);
    tensor::ConvGeometry g;
    g.in_channels = 3;
    g.in_h = 9;
    g.in_w = 9;
    g.kernel_h = v.kernel;
    g.kernel_w = v.kernel;
    g.stride = v.stride;
    g.padding = v.padding;
    const std::size_t oh = g.out_h(), ow = g.out_w();
    tensor::Tensor y({2, 6, oh, ow});
    tensor::Tensor cols({g.patch_size(), oh * ow});
    for (std::size_t n = 0; n < 2; ++n) {
      tensor::im2col(x.raw() + n * 3 * 9 * 9, g, cols);
      csr.spmm_cols_into(cols, y.raw() + n * 6 * oh * ow);
    }
    EXPECT_TRUE(y.allclose(expected, 1e-4f))
        << "k" << v.kernel << " s" << v.stride << " p" << v.padding;
  }
}

}  // namespace
}  // namespace dstee
