// CSR sparse-inference tests: conversion round-trips, products vs dense
// reference, and the end-to-end sparse deployment of a masked MLP through
// the serve compiler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "kernels/simd/backend.hpp"
#include "models/mlp.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "serve/compiled_net.hpp"
#include "sparse/csr.hpp"
#include "sparse/masked_parameter.hpp"
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

// --- from_masked_edit: from_masked of an edited mask ---------------------

using Pairs = std::vector<std::pair<std::size_t, float>>;

/// A masked [rows, cols] weight: random values at the active positions,
/// zero elsewhere, as training leaves it.
struct MaskedWeight {
  MaskedWeight(std::size_t rows, std::size_t cols,
               std::vector<std::size_t> active, std::uint64_t seed)
      : param("w", tensor::Shape({rows, cols}), true),
        layer(param,
              sparse::Mask::from_indices(tensor::Shape({rows, cols}), active),
              0) {
    param.value = random_tensor(tensor::Shape({rows, cols}), seed);
    layer.apply_mask_to_value();
  }

  /// The edit as apply_delta performs it.
  void apply(const std::vector<std::size_t>& removed, const Pairs& added,
             const Pairs& changed) {
    for (const std::size_t i : removed) {
      layer.mask().deactivate(i);
      param.value[i] = 0.0f;
    }
    for (const auto& [i, v] : added) {
      layer.mask().activate(i);
      param.value[i] = v;
    }
    for (const auto& [i, v] : changed) param.value[i] = v;
  }

  nn::Parameter param;
  sparse::MaskedParameter layer;
};

/// The same row pointers, columns and value bits.
::testing::AssertionResult same_csr(const sparse::CsrMatrix& a,
                                    const sparse::CsrMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shapes differ";
  }
  if (a.row_ptr() != b.row_ptr()) {
    return ::testing::AssertionFailure() << "row_ptr differs";
  }
  if (a.col_idx() != b.col_idx()) {
    return ::testing::AssertionFailure() << "col_idx differs";
  }
  if (std::memcmp(a.values().data(), b.values().data(),
                  a.nnz() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "values differ";
  }
  return ::testing::AssertionSuccess();
}

/// from_masked of `w` as it stands, with every value doubled: the base
/// node of a folded plan, whose values the merge must not read.
sparse::CsrMatrix folded_base(const MaskedWeight& w) {
  sparse::CsrMatrix base = sparse::CsrMatrix::from_masked(w.layer);
  base.scale_rows(std::vector<float>(base.rows(), 2.0f));
  return base;
}

TEST(Csr, FromMaskedMatchesAReferenceScanOnRandomMasks) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    const std::size_t rows = 5 + seed, cols = 9 + 3 * seed;
    MaskedWeight w(rows, cols,
                   rng.sample_without_replacement(rows * cols,
                                                  rows * cols / 10),
                   seed);
    const auto csr = sparse::CsrMatrix::from_masked(w.layer);
    std::vector<std::size_t> row_ptr{0};
    std::vector<std::uint32_t> col_idx;
    std::vector<float> values;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        if (w.layer.mask().is_active(r * cols + c)) {
          col_idx.push_back(static_cast<std::uint32_t>(c));
          values.push_back(w.param.value[r * cols + c]);
        }
      }
      row_ptr.push_back(col_idx.size());
    }
    EXPECT_EQ(csr.row_ptr(), row_ptr) << "seed " << seed;
    EXPECT_EQ(csr.col_idx(), col_idx) << "seed " << seed;
    EXPECT_EQ(csr.values(), values) << "seed " << seed;
  }
}

TEST(Csr, FromMaskedEditEqualsFromMaskedOfTheEditedMask) {
  // 90%-sparse random masks, a DST-sized edit: a third of the active
  // positions leave, as many inactive ones join, and half of the
  // survivors move.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(100 + seed);
    const std::size_t rows = 7 + seed, cols = 11 + 2 * seed;
    const std::size_t n = rows * cols;
    MaskedWeight w(rows, cols, rng.sample_without_replacement(n, n / 10),
                   seed);
    const std::vector<std::size_t> active = w.layer.mask().active_indices();
    const std::vector<std::size_t> inactive =
        w.layer.mask().inactive_indices();
    std::vector<std::size_t> removed;
    Pairs added, changed;
    std::vector<char> leaves(n, 0);
    for (const std::size_t k :
         rng.sample_without_replacement(active.size(), active.size() / 3)) {
      leaves[active[k]] = 1;
    }
    for (const std::size_t i : active) {
      if (leaves[i] != 0) {
        removed.push_back(i);
      } else if (rng.uniform() < 0.5) {
        changed.emplace_back(i, static_cast<float>(rng.normal()));
      }
    }
    std::vector<std::size_t> joins = rng.sample_without_replacement(
        inactive.size(), removed.size());
    std::sort(joins.begin(), joins.end());
    for (const std::size_t k : joins) {
      added.emplace_back(inactive[k], static_cast<float>(rng.normal()));
    }

    const sparse::CsrMatrix base = folded_base(w);
    w.apply(removed, added, changed);
    const auto merged = sparse::CsrMatrix::from_masked_edit(
        base, w.param.value, removed, added, changed);
    ASSERT_TRUE(merged.has_value()) << "seed " << seed;
    EXPECT_TRUE(same_csr(*merged, sparse::CsrMatrix::from_masked(w.layer)))
        << "seed " << seed;
  }
}

// A 4×6 mask whose rows exercise the merge's edges:
//   row 0 {0, 3}     → remove the first column, add the last
//   row 1 {1, 4}     → both removed: the row empties
//   row 2 {}         → the first and last columns join: filled from empty
//   row 3 {0, 2, 5}  → survivors only; `changed` names the first and last
constexpr std::size_t kEdgeRows = 4, kEdgeCols = 6;
const std::vector<std::size_t> kEdgeActive = {0, 3, 7, 10, 18, 20, 23};
const std::vector<std::size_t> kEdgeRemoved = {0, 7, 10};
const Pairs kEdgeAdded = {{5, 0.5f}, {12, -1.5f}, {17, 2.5f}};
const Pairs kEdgeChanged = {{18, 3.0f}, {23, -4.0f}};

TEST(Csr, FromMaskedEditHandlesRowEdgesAndEmptyRows) {
  for (const bool with_changes : {true, false}) {
    // Without a changed list every surviving value comes from the dense
    // tensor; with one covering two of row 3's three survivors, the third
    // still does.
    const Pairs changed = with_changes ? kEdgeChanged : Pairs{};
    MaskedWeight w(kEdgeRows, kEdgeCols, kEdgeActive, 7);
    const sparse::CsrMatrix base = folded_base(w);
    w.apply(kEdgeRemoved, kEdgeAdded, changed);
    const auto merged = sparse::CsrMatrix::from_masked_edit(
        base, w.param.value, kEdgeRemoved, kEdgeAdded, changed);
    ASSERT_TRUE(merged.has_value());
    const auto expected = sparse::CsrMatrix::from_masked(w.layer);
    EXPECT_TRUE(same_csr(*merged, expected)) << "changes " << with_changes;
    EXPECT_EQ(merged->row_ptr(),
              (std::vector<std::size_t>{0, 2, 2, 4, 7}));
    EXPECT_EQ(merged->col_idx(),
              (std::vector<std::uint32_t>{3, 5, 0, 5, 0, 2, 5}));
  }
  // No edit at all: the base positions with the dense values.
  MaskedWeight w(kEdgeRows, kEdgeCols, kEdgeActive, 8);
  const auto merged = sparse::CsrMatrix::from_masked_edit(
      folded_base(w), w.param.value, {}, {}, {});
  ASSERT_TRUE(merged.has_value());
  EXPECT_TRUE(same_csr(*merged, sparse::CsrMatrix::from_masked(w.layer)));
}

TEST(Csr, FromMaskedEditReturnsNoMatrixForListsThatDoNotFit) {
  MaskedWeight w(kEdgeRows, kEdgeCols, kEdgeActive, 9);
  const sparse::CsrMatrix base = folded_base(w);
  struct Case {
    const char* what;
    std::vector<std::size_t> removed;
    Pairs added, changed;
  };
  const std::vector<Case> cases = {
      {"removed not ascending", {7, 0}, {}, {}},
      {"removed duplicate", {0, 0}, {}, {}},
      {"added not ascending", {}, {{12, 1.0f}, {5, 1.0f}}, {}},
      {"added duplicate", {}, {{5, 1.0f}, {5, 1.0f}}, {}},
      {"changed not ascending", {}, {}, {{23, 1.0f}, {18, 1.0f}}},
      {"changed duplicate", {}, {}, {{18, 1.0f}, {18, 1.0f}}},
      {"removed position the base lacks", {1}, {}, {}},
      {"removed past the last row", {24}, {}, {}},
      {"added position the base holds", {}, {{3, 1.0f}}, {}},
      {"changed at a removed position", {0}, {}, {{0, 1.0f}}},
      {"changed at an inactive position", {}, {}, {{1, 1.0f}}},
      {"changed at an added position", {}, {{5, 1.0f}}, {{5, 1.0f}}},
      {"more removals than entries", {0, 3, 7, 10, 18, 20, 23, 24}, {}, {}},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(sparse::CsrMatrix::from_masked_edit(base, w.param.value,
                                                     c.removed, c.added,
                                                     c.changed)
                     .has_value())
        << c.what;
  }
  // A weight tensor of another size is a caller error, not a misfit.
  EXPECT_THROW(sparse::CsrMatrix::from_masked_edit(
                   base, random_tensor(tensor::Shape({4, 5}), 1), {}, {}, {}),
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

TEST(Csr, EpilogueBeyondABiasIsRefused) {
  // The CSR products apply an epilogue's bias and nothing else: on every
  // entry point an epilogue with a residual or an activation throws
  // instead of being applied or dropped.
  const auto csr =
      sparse::CsrMatrix::from_dense(random_tensor(tensor::Shape({3, 4}), 61));
  const auto x = random_tensor(tensor::Shape({2, 4}), 62);
  const auto cols = random_tensor(tensor::Shape({4, 5}), 63);
  const auto bias = random_tensor(tensor::Shape({3}), 64);
  const std::vector<float> residual(3 * 5, 1.0f);
  std::vector<std::uint32_t> offsets;
  for (const std::uint32_t c : csr.col_idx()) offsets.push_back(c * 5);
  std::vector<float> out(3 * 5);

  // How many of the five entry points throw CheckError for `ep`.
  const auto refusals = [&](const kernels::Epilogue& ep) {
    std::size_t thrown = 0;
    const auto run = [&](const auto& call) {
      try {
        call();
      } catch (const util::CheckError&) {
        ++thrown;
      }
    };
    run([&] { (void)csr.spmm(x, {}, ep); });
    run([&] { csr.spmm_into(x, out.data(), {}, ep); });
    run([&] { csr.spmm_cols_into(cols, out.data(), ep); });
    run([&] { csr.spmm_cols_into(cols.raw(), 5, out.data(), ep); });
    run([&] {
      csr.spconv_into(cols.raw(), offsets, {1, 5, 5}, out.data(), ep);
    });
    return thrown;
  };
  kernels::Epilogue with_residual;
  with_residual.residual = residual.data();
  with_residual.residual_stride = 3;
  EXPECT_EQ(refusals(with_residual), 5u);
  kernels::Epilogue with_act;
  with_act.has_act = true;
  EXPECT_EQ(refusals(with_act), 5u);

  kernels::Epilogue bias_only;
  bias_only.bias = bias.raw();
  EXPECT_EQ(refusals(bias_only), 0u);
  const auto plain = csr.spmm(x);
  const auto biased = csr.spmm(x, {}, bias_only);
  for (std::size_t i = 0; i < plain.numel(); ++i) {
    EXPECT_EQ(biased[i], plain[i] + bias[i % 3]) << i;
  }
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
