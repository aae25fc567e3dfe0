// Kernel-backend tests: the registry contract (names, CPUID gating, loud
// failure on unknown backends) and the bit-identity guarantee — every
// SIMD kernel must reproduce the scalar reference EXACTLY (tensor::equals,
// not allclose) across batch sizes that exercise full 8-wide vector
// bodies, sub-register tails, and row ranges whose boundaries do not
// align with the vector width. The direct-conv geometry sweep lives in
// direct_conv_test.cpp. The int8 quantizer's error bound
// (≤ scale/2 per stored value) is pinned here too, next to the kernels
// that consume it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "kernels/epilogue.hpp"
#include "kernels/simd/backend.hpp"
#include "sparse/csr.hpp"
#include "sparse/qcsr.hpp"
#include "tensor/tensor.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

using kernels::ActKind;
using kernels::Epilogue;
using kernels::simd::KernelBackend;
using testing::activation_epilogues;
using testing::random_tensor;

/// ~40%-dense CSR test matrix (unit-normal entries, |v| > 0.8 kept).
sparse::CsrMatrix sparse_csr(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  return sparse::CsrMatrix::from_dense(
      random_tensor(tensor::Shape({rows, cols}), seed), 0.8f);
}

/// Whole-matrix kernel views, for driving a backend's row-range bodies
/// directly.
kernels::simd::CsrView view_of(const sparse::CsrMatrix& m) {
  return {m.row_ptr().data(), m.col_idx().data(), m.values().data(),
          m.rows(), m.cols()};
}

kernels::simd::QCsrView view_of(const sparse::QCsrMatrix& m) {
  return {m.row_ptr().data(), m.col_idx().data(), m.values().data(),
          m.scales().data(), m.rows(), m.cols()};
}

/// Fill for output slots a row-range kernel must leave untouched.
constexpr float kUnwritten = -1234.5f;

/// Skips the enclosing test when the host/build cannot run AVX2 kernels.
#define REQUIRE_AVX2(var)                                     \
  const KernelBackend* var = kernels::simd::avx2_backend();   \
  if ((var) == nullptr) {                                     \
    GTEST_SKIP() << "AVX2 backend unavailable on this host";  \
  }

/// Every SIMD backend this host and build can run (avx2, avx512).
std::vector<const KernelBackend*> simd_backends() {
  std::vector<const KernelBackend*> out;
  for (const std::string& name : kernels::simd::available_backends()) {
    const KernelBackend* be = kernels::simd::find_backend(name);
    if (be->is_simd) out.push_back(be);
  }
  return out;
}

TEST(KernelBackend, RegistryNamesAndLookup) {
  const KernelBackend& scalar = kernels::simd::scalar_backend();
  EXPECT_STREQ(scalar.name, "scalar");
  EXPECT_FALSE(scalar.is_simd);
  EXPECT_NE(scalar.spmm_rows, nullptr);
  EXPECT_NE(scalar.qspmm_rows, nullptr);
  EXPECT_NE(scalar.spconv, nullptr);
  EXPECT_NE(scalar.epilogue_range, nullptr);

  EXPECT_EQ(kernels::simd::find_backend("scalar"), &scalar);
  EXPECT_EQ(kernels::simd::find_backend("warp9"), nullptr);
  EXPECT_EQ(kernels::simd::find_backend(""), nullptr);

  const auto names = kernels::simd::available_backends();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");
  const bool lists_avx2 =
      std::find(names.begin(), names.end(), "avx2") != names.end();
  EXPECT_EQ(lists_avx2, kernels::simd::avx2_backend() != nullptr);

  const bool lists_avx512 =
      std::find(names.begin(), names.end(), "avx512") != names.end();
  EXPECT_EQ(lists_avx512, kernels::simd::avx512_backend() != nullptr);
  if (lists_avx512) {
    // Widest last; the avx512 backend builds on the avx2 kernels.
    EXPECT_TRUE(lists_avx2);
    EXPECT_EQ(names.back(), "avx512");
  }

  const KernelBackend* avx2 = kernels::simd::avx2_backend();
  if (avx2 != nullptr) {
    EXPECT_STREQ(avx2->name, "avx2");
    EXPECT_TRUE(avx2->is_simd);
    EXPECT_TRUE(kernels::simd::cpu_has_avx2());
    EXPECT_EQ(kernels::simd::find_backend("avx2"), avx2);
    EXPECT_NE(avx2->spconv, nullptr);
    EXPECT_NE(avx2->spconv, scalar.spconv);
  }
  const KernelBackend* avx512 = kernels::simd::avx512_backend();
  if (avx512 != nullptr) {
    // The avx2 kernels with an AVX-512 spconv body.
    ASSERT_NE(avx2, nullptr);
    EXPECT_STREQ(avx512->name, "avx512");
    EXPECT_TRUE(avx512->is_simd);
    EXPECT_TRUE(kernels::simd::cpu_has_avx512());
    EXPECT_EQ(kernels::simd::find_backend("avx512"), avx512);
    EXPECT_EQ(avx512->spmm_rows, avx2->spmm_rows);
    EXPECT_EQ(avx512->qspmm_rows, avx2->qspmm_rows);
    EXPECT_EQ(avx512->epilogue_range, avx2->epilogue_range);
    EXPECT_NE(avx512->spconv, nullptr);
    EXPECT_NE(avx512->spconv, avx2->spconv);
  } else {
    EXPECT_EQ(kernels::simd::find_backend("avx512"), nullptr);
  }
  // CPUID picks the widest backend unless DSTEE_KERNEL_BACKEND names one.
  if (std::getenv("DSTEE_KERNEL_BACKEND") == nullptr) {
    EXPECT_EQ(std::string(kernels::simd::active_backend().name),
              names.back());
  }
}

TEST(KernelBackend, SetActiveFailsLoudlyAndRoundTrips) {
  const std::string prev = kernels::simd::active_backend().name;
  EXPECT_THROW(kernels::simd::set_active_backend("warp9"), util::CheckError);
  // A failed override must not change the active backend.
  EXPECT_EQ(std::string(kernels::simd::active_backend().name), prev);

  kernels::simd::set_active_backend("scalar");
  EXPECT_STREQ(kernels::simd::active_backend().name, "scalar");
  kernels::simd::set_active_backend(prev);
  EXPECT_EQ(std::string(kernels::simd::active_backend().name), prev);
}

TEST(KernelBackend, SpmmBitIdenticalAcrossBatches) {
  REQUIRE_AVX2(avx2);
  const KernelBackend& scalar = kernels::simd::scalar_backend();
  // 37 rows / 29 cols: neither axis is a multiple of the vector width.
  const auto csr = sparse_csr(37, 29, 601);
  for (const std::size_t batch : {1u, 3u, 8u, 17u}) {
    const auto x = random_tensor(tensor::Shape({batch, 29}), 602 + batch);
    const auto ref = csr.spmm(x, {}, {}, &scalar);
    const auto got = csr.spmm(x, {}, {}, avx2);
    EXPECT_TRUE(got.equals(ref)) << "batch " << batch;
  }
}

TEST(KernelBackend, SpmmEpilogueVariantsBitIdentical) {
  REQUIRE_AVX2(avx2);
  const KernelBackend& scalar = kernels::simd::scalar_backend();
  const std::size_t rows = 21, cols = 13, batch = 17;
  const auto csr = sparse_csr(rows, cols, 611);
  const auto x = random_tensor(tensor::Shape({batch, cols}), 612);
  const auto bias = random_tensor(tensor::Shape({rows}), 613);
  const auto residual = random_tensor(tensor::Shape({batch, rows}), 614);
  for (Epilogue ep : activation_epilogues()) {
    ep.bias = bias.raw();
    ep.residual = residual.raw();
    ep.residual_stride = rows;
    const auto ref = csr.spmm(x, {}, ep, &scalar);
    const auto got = csr.spmm(x, {}, ep, avx2);
    EXPECT_TRUE(got.equals(ref))
        << "act " << (ep.has_act ? static_cast<int>(ep.act) : -1);
  }
}

TEST(KernelBackend, RowRangeBoundariesBitIdentical) {
  REQUIRE_AVX2(avx2);
  const KernelBackend& scalar = kernels::simd::scalar_backend();
  // Unaligned [r0, r1) of the full view — the range the intra-op chunker
  // hands each worker. Only that range may be written, and it must tile
  // the whole-matrix result exactly.
  const std::size_t rows = 37, cols = 19, batch = 17;
  const auto csr = sparse_csr(rows, cols, 621);
  const kernels::simd::CsrView a = view_of(csr);
  const auto x = random_tensor(tensor::Shape({batch, cols}), 622);
  const auto full = csr.spmm(x, {}, {}, &scalar);
  const std::size_t bounds[][2] = {{0, 1}, {3, 11}, {5, 37}, {8, 16},
                                   {0, 37}, {36, 37}};
  for (const auto& b : bounds) {
    std::vector<float> ref(batch * rows, kUnwritten);
    std::vector<float> got(batch * rows, kUnwritten);
    scalar.spmm_rows(a, x.raw(), batch, ref.data(), b[0], b[1], {});
    avx2->spmm_rows(a, x.raw(), batch, got.data(), b[0], b[1], {});
    EXPECT_EQ(got, ref) << "rows [" << b[0] << ", " << b[1] << ")";
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t r = 0; r < rows; ++r) {
        const bool in_range = r >= b[0] && r < b[1];
        ASSERT_EQ(got[n * rows + r], in_range ? full[n * rows + r]
                                              : kUnwritten);
      }
    }
  }
}

TEST(KernelBackend, RowRangeStridedResidualBitIdentical) {
  REQUIRE_AVX2(avx2);
  const KernelBackend& scalar = kernels::simd::scalar_backend();
  // A chunk [r0, r1) of a 37-wide output: bias and residual are indexed
  // by the full-view row, and the residual strides over the full width.
  const std::size_t rows = 37, cols = 19, batch = 9, r0 = 5, r1 = 20;
  const auto csr = sparse_csr(rows, cols, 631);
  const auto x = random_tensor(tensor::Shape({batch, cols}), 632);
  const auto bias = random_tensor(tensor::Shape({rows}), 633);
  const auto residual = random_tensor(tensor::Shape({batch, rows}), 634);
  Epilogue ep;
  ep.bias = bias.raw();
  ep.residual = residual.raw();
  ep.residual_stride = rows;
  ep.has_act = true;
  ep.act = ActKind::kRelu;
  std::vector<float> ref(batch * rows, kUnwritten);
  std::vector<float> got(batch * rows, kUnwritten);
  scalar.spmm_rows(view_of(csr), x.raw(), batch, ref.data(), r0, r1, ep);
  avx2->spmm_rows(view_of(csr), x.raw(), batch, got.data(), r0, r1, ep);
  EXPECT_EQ(got, ref);
}

TEST(KernelBackend, SpmmColsBitIdentical) {
  REQUIRE_AVX2(avx2);
  const KernelBackend& scalar = kernels::simd::scalar_backend();
  const std::size_t rows = 14, cols = 23;
  const auto csr = sparse_csr(rows, cols, 641);
  const auto bias = random_tensor(tensor::Shape({rows}), 642);
  // n covers partial tiles (1, 5, 19), exactly one 8-lane vector, and a
  // full 32/64-position tile with a remainder after it (70).
  for (const std::size_t n : {1u, 5u, 8u, 19u, 70u}) {
    const auto b = random_tensor(tensor::Shape({cols, n}), 643 + n);
    const auto residual = random_tensor(tensor::Shape({rows, n}), 644 + n);
    for (Epilogue ep : activation_epilogues()) {
      ep.bias = bias.raw();
      ep.residual = residual.raw();
      std::vector<float> ref(rows * n);
      csr.spmm_cols_into(b, ref.data(), ep, &scalar);
      for (const KernelBackend* be : simd_backends()) {
        std::vector<float> got(rows * n);
        csr.spmm_cols_into(b, got.data(), ep, be);
        EXPECT_EQ(got, ref) << be->name << ", n " << n << ", act "
                            << (ep.has_act ? static_cast<int>(ep.act) : -1);
      }
    }
  }
}

TEST(KernelBackend, QuantizedSpmmBitIdentical) {
  REQUIRE_AVX2(avx2);
  const KernelBackend& scalar = kernels::simd::scalar_backend();
  const std::size_t rows = 37, cols = 29;
  const auto q = sparse::QCsrMatrix::quantize(sparse_csr(rows, cols, 651));
  const auto bias = random_tensor(tensor::Shape({rows}), 652);
  for (const std::size_t batch : {1u, 3u, 8u, 17u}) {
    const auto x = random_tensor(tensor::Shape({batch, cols}), 653 + batch);
    EXPECT_TRUE(q.spmm(x, {}, {}, avx2).equals(q.spmm(x, {}, {}, &scalar)))
        << "batch " << batch;
    Epilogue ep;
    ep.bias = bias.raw();
    ep.has_act = true;
    ep.act = ActKind::kRelu;
    EXPECT_TRUE(q.spmm(x, {}, ep, avx2).equals(q.spmm(x, {}, ep, &scalar)))
        << "fused, batch " << batch;
  }
  // Quantized row ranges at unaligned boundaries, like the fp32 path.
  const auto x = random_tensor(tensor::Shape({17, cols}), 658);
  for (const std::size_t r0 : {std::size_t{3}, std::size_t{8}}) {
    std::vector<float> ref(17 * rows, kUnwritten);
    std::vector<float> got(17 * rows, kUnwritten);
    scalar.qspmm_rows(view_of(q), x.raw(), 17, ref.data(), r0, 31, {});
    avx2->qspmm_rows(view_of(q), x.raw(), 17, got.data(), r0, 31, {});
    EXPECT_EQ(got, ref) << "rows [" << r0 << ", 31)";
  }
}

TEST(KernelBackend, QuantizedSpmmColsBitIdentical) {
  REQUIRE_AVX2(avx2);
  const KernelBackend& scalar = kernels::simd::scalar_backend();
  const std::size_t rows = 14, cols = 23;
  const auto q = sparse::QCsrMatrix::quantize(sparse_csr(rows, cols, 661));
  for (const std::size_t n : {19u, 70u}) {
    const auto b = random_tensor(tensor::Shape({cols, n}), 662 + n);
    std::vector<float> ref(rows * n);
    q.spmm_cols_into(b, ref.data(), {}, &scalar);
    for (const KernelBackend* be : simd_backends()) {
      std::vector<float> got(rows * n);
      q.spmm_cols_into(b, got.data(), {}, be);
      EXPECT_EQ(got, ref) << be->name << ", n " << n;
    }
  }
}

TEST(KernelBackend, EpilogueRangeBitIdentical) {
  REQUIRE_AVX2(avx2);
  const KernelBackend& scalar = kernels::simd::scalar_backend();
  for (const std::size_t numel : {1u, 7u, 8u, 9u, 64u, 100u}) {
    const auto in = random_tensor(
        tensor::Shape({numel}), 671 + numel);
    const auto residual = random_tensor(tensor::Shape({numel}), 672 + numel);
    for (Epilogue ep : activation_epilogues()) {
      ep.residual = residual.raw();
      const auto ref = kernels::apply_epilogue(in, ep, {}, &scalar);
      const auto got = kernels::apply_epilogue(in, ep, {}, avx2);
      EXPECT_TRUE(got.equals(ref))
          << "numel " << numel << ", act "
          << (ep.has_act ? static_cast<int>(ep.act) : -1);
    }
  }
}

TEST(QCsrMatrix, QuantizePreservesPatternAndBoundsError) {
  const auto csr = sparse_csr(23, 17, 681);
  const auto q = sparse::QCsrMatrix::quantize(csr);
  // The sparsity pattern survives exactly — only values change.
  EXPECT_EQ(q.rows(), csr.rows());
  EXPECT_EQ(q.cols(), csr.cols());
  EXPECT_EQ(q.row_ptr(), csr.row_ptr());
  EXPECT_EQ(q.col_idx(), csr.col_idx());
  ASSERT_EQ(q.scales().size(), q.rows());

  for (std::size_t r = 0; r < q.rows(); ++r) {
    float amax = 0.0f;
    for (std::size_t k = csr.row_ptr()[r]; k < csr.row_ptr()[r + 1]; ++k) {
      amax = std::max(amax, std::abs(csr.values()[k]));
    }
    const float scale = q.scales()[r];
    if (csr.row_ptr()[r] == csr.row_ptr()[r + 1]) continue;  // checked below
    EXPECT_NEAR(scale, amax / 127.0f, 1e-6f * std::max(1.0f, amax));
    for (std::size_t k = csr.row_ptr()[r]; k < csr.row_ptr()[r + 1]; ++k) {
      // Round-to-nearest: per stored value the dequantization error is at
      // most half a quantization step.
      const float dequant = scale * static_cast<float>(q.values()[k]);
      EXPECT_LE(std::abs(dequant - csr.values()[k]),
                0.5f * scale + 1e-6f)
          << "row " << r << " entry " << k;
    }
  }
}

TEST(QCsrMatrix, AllZeroRowGetsUnitScale) {
  // Row 1 stores nothing (from_dense drops exact zeros); its scale must
  // stay 1.0 so dequantization is well-defined.
  tensor::Tensor dense(tensor::Shape({3, 4}));
  for (std::size_t j = 0; j < 4; ++j) {
    dense[0 * 4 + j] = 1.0f + static_cast<float>(j);
    dense[2 * 4 + j] = -0.5f * static_cast<float>(j + 1);
  }
  const auto csr = sparse::CsrMatrix::from_dense(dense, 0.0f);
  const auto q = sparse::QCsrMatrix::quantize(csr);
  ASSERT_EQ(q.rows(), 3u);
  EXPECT_EQ(q.row_ptr()[1], q.row_ptr()[2]);  // row 1 is empty
  EXPECT_EQ(q.scales()[1], 1.0f);
  // Dense round trip stays within half a step of the source everywhere.
  const auto round_trip = q.to_dense();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_LE(std::abs(round_trip[r * 4 + j] - dense[r * 4 + j]),
                0.5f * q.scales()[r] + 1e-6f);
    }
  }
}

}  // namespace
}  // namespace dstee
