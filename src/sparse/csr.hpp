// CSR sparse-matrix inference path.
//
// Training keeps weights dense-with-masks (the standard DST formulation),
// but the *deployment* story of the paper — inference FLOPs proportional to
// density — is only real if sparse kernels exist. This module converts a
// trained masked weight matrix into CSR form and provides the sparse
// matrix-vector / matrix-matrix products a deployment runtime would use.
// The micro_kernels bench measures the dense→CSR crossover empirically.
//
// The product entry points take a kernels::Epilogue but apply only its
// bias: they throw util::CheckError for an epilogue with a residual or an
// activation, which run as separate elementwise passes
// (kernels::apply_epilogue).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "kernels/epilogue.hpp"
#include "runtime/pool.hpp"
#include "sparse/masked_parameter.hpp"
#include "tensor/tensor.hpp"

namespace dstee::kernels::simd {
struct ConvGrid;
struct KernelBackend;
}  // namespace dstee::kernels::simd

namespace dstee::sparse {

/// Compressed sparse row matrix (float values, row-major logical shape).
class CsrMatrix {
 public:
  /// Builds from a dense tensor of rank >= 2, keeping entries with
  /// |v| > eps. dim(0) becomes the row count and the remaining axes are
  /// flattened into columns — exactly the [Cout, Cin·K·K] view a conv
  /// weight deploys under (rank-2 linear weights are unchanged).
  static CsrMatrix from_dense(const tensor::Tensor& dense, float eps = 0.0f);

  /// Builds from a masked parameter (only mask-active entries are stored,
  /// regardless of value — the faithful deployment of a sparse topology).
  /// Accepts rank >= 2 with the same row/column flattening as from_dense.
  /// One count pass and one branch-free store pass over every dense slot.
  static CsrMatrix from_masked(const MaskedParameter& param);

  /// from_masked of an edited mask, in O(nnz + edits) instead of a pass
  /// over every dense slot. `base` holds the positions of the mask before
  /// the edit, as from_masked built them (its values are not read). The
  /// edit lists flat positions: `removed` leave the mask, `added` join it
  /// with their values, and `changed` are surviving positions with new
  /// values. Every other surviving position takes its value from `dense`
  /// (the edited weights, [rows, cols] flattened), so the result equals
  /// from_masked of the edited parameter. Returns nullopt when the lists
  /// do not fit `base` — a list not strictly ascending, a removed
  /// position `base` lacks, an added one it holds, a changed one that
  /// does not survive — and the caller falls back to from_masked.
  static std::optional<CsrMatrix> from_masked_edit(
      const CsrMatrix& base, const tensor::Tensor& dense,
      std::span<const std::size_t> removed,
      std::span<const std::pair<std::size_t, float>> added,
      std::span<const std::pair<std::size_t, float>> changed);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Density in [0, 1].
  double density() const;

  /// y = A·x for x[cols] → y[rows].
  tensor::Tensor matvec(const tensor::Tensor& x) const;

  /// Y = X·Aᵀ for X[batch, cols] → Y[batch, rows] — the sparse Linear
  /// forward (weights stored [out, in] as in nn::Linear). Equivalent to
  /// spmm(x, 1); kept for call sites that predate the batched kernel.
  tensor::Tensor matmul_nt(const tensor::Tensor& x) const;

  /// Batched SpMM: Y = X·Aᵀ for X[batch, cols] → Y[batch, rows].
  ///
  /// The loop nest is row-parallel: output rows are split into contiguous
  /// chunks, each owned by one worker, so every element of Y is written by
  /// exactly one thread and the result is bit-identical for any thread
  /// count. `intra` picks the chunk count and the executing
  /// runtime::Pool; the default ({1, nullptr}) runs inline and never
  /// touches a pool. `ep.bias`, when set, is added in the output loop
  /// (Y[n, r] = acc + bias[r]); an `ep` with a residual or an activation
  /// throws util::CheckError. `backend` picks the kernel implementation
  /// (nullptr = the process active backend, see
  /// kernels::simd::active_backend()); all backends are bit-identical, so
  /// this only affects speed.
  tensor::Tensor spmm(const tensor::Tensor& x,
                      const runtime::IntraOp& intra = {},
                      const kernels::Epilogue& ep = {},
                      const kernels::simd::KernelBackend* backend =
                          nullptr) const;

  /// spmm writing into caller storage of batch·rows() floats.
  void spmm_into(const tensor::Tensor& x, float* out,
                 const runtime::IntraOp& intra = {},
                 const kernels::Epilogue& ep = {},
                 const kernels::simd::KernelBackend* backend = nullptr) const;

  /// Chunk-count-only overload (threads 0 = pool-wide on the process
  /// default pool) for call sites without a pool to inject.
  tensor::Tensor spmm(const tensor::Tensor& x, std::size_t num_threads) const;

  /// Y = A·B for dense B[cols, n] (row-major) → Y[rows, n]: the CSR kernel
  /// over an im2col patch matrix, whose columns are output positions. Each
  /// stored entry streams one contiguous B row, so the inner loop stays
  /// unit-stride for any sparsity pattern. It is spconv_into over the
  /// one-row grid {1, n, n} with offsets col·n (kernels::column_offsets).
  tensor::Tensor spmm_cols(const tensor::Tensor& cols) const;

  /// spmm_cols writing into caller-owned storage of rows()·cols.dim(1)
  /// floats: Y[r, j] = acc + ep.bias[r] (bias-only `ep`, as spmm).
  void spmm_cols_into(const tensor::Tensor& cols, float* out,
                      const kernels::Epilogue& ep = {},
                      const kernels::simd::KernelBackend* backend =
                          nullptr) const;

  /// spmm_cols_into over a raw row-major patch matrix B[cols(), n] — the
  /// per-image conv path, which writes straight into the [N, Cout, Ho,
  /// Wo] output tensor without an intermediate.
  void spmm_cols_into(const float* b, std::size_t n, float* out,
                      const kernels::Epilogue& ep = {},
                      const kernels::simd::KernelBackend* backend =
                          nullptr) const;

  /// Direct sparse convolution (kernels/direct_conv.hpp) writing
  /// rows()·grid.height·grid.width floats: out[r, y·width + x] =
  /// sum_k values[k] · src[offsets[k] + y·pitch + x] + ep.bias[r]
  /// (bias-only `ep`, as spmm). `offsets` holds one entry per nonzero;
  /// every read must lie inside `src`.
  void spconv_into(const float* src, std::span<const std::uint32_t> offsets,
                   const kernels::simd::ConvGrid& grid, float* out,
                   const kernels::Epilogue& ep = {},
                   const kernels::simd::KernelBackend* backend =
                       nullptr) const;

  /// Multiplies every stored value in row r by scale[r] (and bias folding
  /// callers adjust their bias separately). Used to fold an eval-mode
  /// batch-norm into the preceding sparse Linear at compile time.
  void scale_rows(std::span<const float> scale);

  /// Reconstructs the dense matrix (tests / round-trips).
  tensor::Tensor to_dense() const;

  /// Raw CSR arrays (read-only). Column indices are stored as uint32 —
  /// half the index bandwidth of the original size_t layout, and the type
  /// the SIMD gather kernels consume directly. The private constructor
  /// rejects matrices whose column count cannot be indexed in 32 bits.
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::uint32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

 private:
  CsrMatrix(std::size_t rows, std::size_t cols);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<float> values_;
};

}  // namespace dstee::sparse
