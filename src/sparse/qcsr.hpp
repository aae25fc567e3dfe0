// Int8-quantized CSR weights for serving.
//
// QCsrMatrix stores a CsrMatrix's values as symmetric int8 with one fp32
// scale per row (scale = rowwise amax / 127, values rounded to nearest):
// dequant(r, k) = scale[r] * int8[k]. Kernels accumulate the int8
// products in fp32 and multiply by the row scale once per output element,
// so precision loss is bounded by the value rounding alone — per stored
// value the dequantization error is at most scale[r]/2, i.e. amax/254 of
// the row's largest weight.
//
// Together with the uint32 column indices this stores a nonzero in
// 1 + 4 = 5 bytes of streamed payload versus the fp32 layout's 8 — and
// versus 12 before the index narrowing — which is the memory lever for
// packing more replicas per box (ROADMAP "SIMD + quantized CSR kernels").
//
// The class mirrors the CsrMatrix API surface that the serve executor
// touches (spmm/spmm_into, spmm_cols_into, spconv_into, to_dense, the
// raw arrays), so executor ops template over either matrix type.
// Quantization happens at plan-compile time via the serve::QuantizeWeights
// pass; training never sees this type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "kernels/epilogue.hpp"
#include "runtime/pool.hpp"
#include "tensor/tensor.hpp"

namespace dstee::kernels::simd {
struct ConvGrid;
struct KernelBackend;
}  // namespace dstee::kernels::simd

namespace dstee::sparse {

class CsrMatrix;

/// Compressed sparse row matrix with int8 values + per-row fp32 scales.
class QCsrMatrix {
 public:
  /// Symmetric per-row int8 quantization of an fp32 CSR matrix:
  /// scale[r] = max|row values| / 127 (1.0 for all-zero rows so
  /// dequantization stays well-defined), q = round-to-nearest(v / scale).
  /// The sparsity pattern is preserved exactly — only values change.
  static QCsrMatrix quantize(const CsrMatrix& src);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }
  double density() const;

  /// Batched SpMM with the CsrMatrix::spmm contract (epilogue layout,
  /// row-parallel chunking, backend dispatch); accumulation is fp32.
  tensor::Tensor spmm(const tensor::Tensor& x,
                      const runtime::IntraOp& intra = {},
                      const kernels::Epilogue& ep = {},
                      const kernels::simd::KernelBackend* backend =
                          nullptr) const;

  void spmm_into(const tensor::Tensor& x, float* out,
                 const runtime::IntraOp& intra = {},
                 const kernels::Epilogue& ep = {},
                 const kernels::simd::KernelBackend* backend = nullptr) const;

  /// Quantized CsrMatrix::spmm_cols_into.
  void spmm_cols_into(const tensor::Tensor& cols, float* out,
                      const kernels::Epilogue& ep = {},
                      const kernels::simd::KernelBackend* backend =
                          nullptr) const;

  void spmm_cols_into(const float* b, std::size_t n, float* out,
                      const kernels::Epilogue& ep = {},
                      const kernels::simd::KernelBackend* backend =
                          nullptr) const;

  /// Quantized CsrMatrix::spconv_into (the conv path): the row scale
  /// multiplies each accumulator before the epilogue.
  void spconv_into(const float* src, std::span<const std::uint32_t> offsets,
                   const kernels::simd::ConvGrid& grid, float* out,
                   const kernels::Epilogue& ep = {},
                   const kernels::simd::KernelBackend* backend =
                       nullptr) const;

  /// Dequantized dense reconstruction (tests / round-trips).
  tensor::Tensor to_dense() const;

  /// Bytes of weight payload a serving replica streams for this matrix:
  /// int8 values + uint32 column indices + fp32 row scales + row_ptr.
  std::size_t weight_bytes() const;

  /// Raw arrays (read-only).
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::uint32_t>& col_idx() const { return col_idx_; }
  const std::vector<std::int8_t>& values() const { return values_; }
  const std::vector<float>& scales() const { return scales_; }

 private:
  QCsrMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<std::int8_t> values_;
  std::vector<float> scales_;  ///< one dequantization factor per row
};

}  // namespace dstee::sparse
